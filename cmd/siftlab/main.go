// Command siftlab regenerates the paper's tables and figures and runs the
// extension studies.
//
// Usage:
//
//	siftlab [flags] <experiment>
//
// Experiments: table2, table3, fig2, fig3, roc, sweep-window, sweep-grid,
// sweep-train, precision, generalization, adaptive, classifiers, motion,
// coresidency, pipeline, features, all.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"github.com/wiot-security/sift/internal/dataset"
	"github.com/wiot-security/sift/internal/experiments"
	"github.com/wiot-security/sift/internal/features"
	"github.com/wiot-security/sift/internal/sift"
	"github.com/wiot-security/sift/internal/svm"
)

func main() {
	err := run(os.Args[1:])
	if err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "siftlab:", err)
	}
	os.Exit(exitCode(err))
}

// exitCode maps run's error to the process status: 0 on success or -h,
// 2 for a usage error, as the flag package exits, and 1 otherwise.
func exitCode(err error) int {
	switch {
	case err == nil, errors.Is(err, flag.ErrHelp):
		return 0
	case errors.As(err, new(usageError)):
		return 2
	}
	return 1
}

// usageError is a command line that cannot be parsed or names an
// invalid value; main exits 2 for it, as the flag package does.
type usageError struct{ error }

func run(args []string) error {
	fs := flag.NewFlagSet("siftlab", flag.ContinueOnError)
	quick := fs.Bool("quick", false, "use the scaled-down protocol (4 subjects, 2 min training)")
	seed := fs.Int64("seed", 42, "environment seed")
	subjects := fs.Int("subjects", 0, "override cohort size (0 keeps the protocol's)")
	maxIter := fs.Int("svm-iter", 150, "SVM SMO iteration cap")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return usageError{err}
	}
	if fs.NArg() != 1 {
		fs.Usage()
		return usageError{fmt.Errorf("expected one experiment name, got %d args", fs.NArg())}
	}
	if *subjects < 0 {
		return usageError{fmt.Errorf("-subjects %d must not be negative", *subjects)}
	}
	if *maxIter < 0 {
		return usageError{fmt.Errorf("-svm-iter %d must not be negative", *maxIter)}
	}
	name := strings.ToLower(fs.Arg(0))
	runExperiment, ok := experimentRunners[name]
	if !ok {
		return usageError{fmt.Errorf("unknown experiment %q", name)}
	}

	cfg := experiments.DefaultConfig()
	if *quick {
		cfg = experiments.QuickConfig()
	}
	cfg.Seed = *seed
	if *subjects > 0 {
		cfg.Subjects = *subjects
	}
	svmCfg := svm.Config{Seed: *seed, MaxIter: *maxIter}

	start := time.Now()
	env, err := experiments.NewEnv(cfg)
	if err != nil {
		return err
	}
	fmt.Printf("environment: %d subjects, Δ=%.0f s training, %.0f s test (generated in %v)\n\n",
		cfg.Subjects, cfg.TrainSec, cfg.TestSec, time.Since(start).Round(time.Millisecond))
	return runExperiment(env, svmCfg)
}

// experimentRunners maps each experiment name to the study it runs. run
// checks a name against it before building the environment, and
// dispatches from it.
var experimentRunners = map[string]func(*experiments.Env, svm.Config) error{
	"table2": runTable2,
	"table3": runTable3,
	"fig2":   runFig2,
	"fig3":   runFig3,
	"roc": func(env *experiments.Env, svmCfg svm.Config) error {
		return printed(experiments.FormatROC)(experiments.ROCCurves(env, svmCfg))
	},
	"sweep-window": func(env *experiments.Env, svmCfg svm.Config) error {
		return printed(sweepTable("Accuracy vs window length (Simplified)", "w (s)"))(
			experiments.SweepWindow(env, features.Simplified, []float64{1, 2, 3, 5, 8}, svmCfg))
	},
	"sweep-grid": func(env *experiments.Env, svmCfg svm.Config) error {
		return printed(sweepTable("Accuracy vs portrait grid size (Simplified)", "n"))(
			experiments.SweepGrid(env, features.Simplified, []int{10, 25, 50, 75, 100}, svmCfg))
	},
	"sweep-train": func(env *experiments.Env, svmCfg svm.Config) error {
		return printed(sweepTable("Accuracy vs training span (Simplified)", "Δ (s)"))(
			experiments.SweepTraining(env, features.Simplified, trainSpans(env.Config.TrainSec), svmCfg))
	},
	"precision": func(env *experiments.Env, svmCfg svm.Config) error {
		return printed(sweepTable("Accuracy vs fixed-point fractional bits (Simplified)", "bits"))(
			experiments.PrecisionSweep(env, features.Simplified, []int{4, 8, 12, 16, 20}, svmCfg))
	},
	"generalization": func(env *experiments.Env, svmCfg svm.Config) error {
		return printed(experiments.FormatGeneralization)(experiments.AttackGeneralization(env, svmCfg))
	},
	"adaptive": func(env *experiments.Env, svmCfg svm.Config) error {
		res, err := experiments.Table2(env, svmCfg)
		if err != nil {
			return err
		}
		return printed(experiments.FormatAdaptive)(experiments.AdaptiveStudy(res.Telemetry))
	},
	"motion": func(env *experiments.Env, svmCfg svm.Config) error {
		return printed(experiments.FormatMotion)(experiments.MotionStudy(env, svmCfg))
	},
	"pipeline": func(env *experiments.Env, _ svm.Config) error {
		return printed(experiments.FormatPipeline)(experiments.PipelineStudy(env))
	},
	"coresidency": func(env *experiments.Env, _ svm.Config) error {
		return printed(experiments.FormatCoResidency)(experiments.CoResidency(env, features.Simplified))
	},
	"classifiers": func(env *experiments.Env, svmCfg svm.Config) error {
		return printed(experiments.FormatClassifiers)(experiments.ClassifierComparison(env, svmCfg))
	},
	"features": func(env *experiments.Env, _ svm.Config) error { return runFeatures(env) },
	"all": func(env *experiments.Env, svmCfg svm.Config) error {
		if err := runTable2(env, svmCfg); err != nil {
			return err
		}
		fmt.Println()
		if err := runTable3(env, svmCfg); err != nil {
			return err
		}
		fmt.Println()
		return runFig3(env, svmCfg)
	},
}

// printed returns a function that prints a study's result through
// format, or passes on the study's error.
func printed[T any](format func(T) string) func(T, error) error {
	return func(res T, err error) error {
		if err != nil {
			return err
		}
		fmt.Print(format(res))
		return nil
	}
}

// sweepTable formats a sweep's points under a title and parameter name.
func sweepTable(title, param string) func([]experiments.SweepPoint) string {
	return func(pts []experiments.SweepPoint) string { return experiments.FormatSweep(title, param, pts) }
}

func trainSpans(maxSec float64) []float64 {
	spans := []float64{60, 120, 300, 600, 1200}
	var out []float64
	for _, s := range spans {
		if s <= maxSec {
			out = append(out, s)
		}
	}
	if len(out) == 0 {
		out = []float64{maxSec}
	}
	return out
}

func runTable2(env *experiments.Env, svmCfg svm.Config) error {
	start := time.Now()
	res, err := experiments.Table2(env, svmCfg)
	if err != nil {
		return err
	}
	fmt.Print(res.Format())
	fmt.Printf("(completed in %v)\n", time.Since(start).Round(time.Millisecond))
	return nil
}

func runTable3(env *experiments.Env, _ svm.Config) error {
	res, err := experiments.Table3(env, nil)
	if err != nil {
		return err
	}
	fmt.Print(res.Format())
	return nil
}

func runFig2(env *experiments.Env, svmCfg svm.Config) error {
	trace, err := experiments.Fig2(env, svmCfg)
	if err != nil {
		return err
	}
	fmt.Print(trace)
	return nil
}

func runFig3(env *experiments.Env, _ svm.Config) error {
	view, err := experiments.Fig3(env)
	if err != nil {
		return err
	}
	fmt.Print(view)
	return nil
}

// runFeatures prints Table I: the feature set of every version, plus a
// genuine-vs-altered feature vector so the discriminative signal is
// visible.
func runFeatures(env *experiments.Env) error {
	wins, err := dataset.FromRecord(env.TestRecs[0], dataset.WindowSec)
	if err != nil {
		return err
	}
	donorWins, err := dataset.FromRecord(env.TestRecs[1], dataset.WindowSec)
	if err != nil {
		return err
	}
	genuine := wins[0]
	altered, err := dataset.Substitute(genuine, donorWins[0], env.TestRecs[0].SampleRate)
	if err != nil {
		return err
	}
	fmt.Println("TABLE I: Feature summary (genuine vs altered values on one window)")
	for _, v := range features.Versions {
		det := &sift.Detector{Version: v, GridN: 50}
		fg, err := det.FeaturesOf(genuine)
		if err != nil {
			return err
		}
		fa, err := det.FeaturesOf(altered)
		if err != nil {
			return err
		}
		fmt.Printf("\n%s (%d features):\n", v, v.Dim())
		for i, name := range v.Names() {
			fmt.Printf("  %-46s %10.4f | %10.4f\n", name, fg[i], fa[i])
		}
	}
	return nil
}
