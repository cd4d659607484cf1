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

	switch name {
	case "table2":
		return runTable2(env, svmCfg)
	case "table3":
		return runTable3(env, svmCfg)
	case "fig2":
		return runFig2(env, svmCfg)
	case "fig3":
		view, err := experiments.Fig3(env)
		if err != nil {
			return err
		}
		fmt.Print(view)
		return nil
	case "roc":
		res, err := experiments.ROCCurves(env, svmCfg)
		if err != nil {
			return err
		}
		fmt.Print(experiments.FormatROC(res))
		return nil
	case "sweep-window":
		pts, err := experiments.SweepWindow(env, features.Simplified, []float64{1, 2, 3, 5, 8}, svmCfg)
		if err != nil {
			return err
		}
		fmt.Print(experiments.FormatSweep("Accuracy vs window length (Simplified)", "w (s)", pts))
		return nil
	case "sweep-grid":
		pts, err := experiments.SweepGrid(env, features.Simplified, []int{10, 25, 50, 75, 100}, svmCfg)
		if err != nil {
			return err
		}
		fmt.Print(experiments.FormatSweep("Accuracy vs portrait grid size (Simplified)", "n", pts))
		return nil
	case "sweep-train":
		pts, err := experiments.SweepTraining(env, features.Simplified,
			trainSpans(cfg.TrainSec), svmCfg)
		if err != nil {
			return err
		}
		fmt.Print(experiments.FormatSweep("Accuracy vs training span (Simplified)", "Δ (s)", pts))
		return nil
	case "precision":
		pts, err := experiments.PrecisionSweep(env, features.Simplified, []int{4, 8, 12, 16, 20}, svmCfg)
		if err != nil {
			return err
		}
		fmt.Print(experiments.FormatSweep("Accuracy vs fixed-point fractional bits (Simplified)", "bits", pts))
		return nil
	case "generalization":
		rows, err := experiments.AttackGeneralization(env, svmCfg)
		if err != nil {
			return err
		}
		fmt.Print(experiments.FormatGeneralization(rows))
		return nil
	case "adaptive":
		res, err := experiments.Table2(env, svmCfg)
		if err != nil {
			return err
		}
		rows, err := experiments.AdaptiveStudy(res.Telemetry)
		if err != nil {
			return err
		}
		fmt.Print(experiments.FormatAdaptive(rows))
		return nil
	case "motion":
		rows, err := experiments.MotionStudy(env, svmCfg)
		if err != nil {
			return err
		}
		fmt.Print(experiments.FormatMotion(rows))
		return nil
	case "pipeline":
		rows, err := experiments.PipelineStudy(env)
		if err != nil {
			return err
		}
		fmt.Print(experiments.FormatPipeline(rows))
		return nil
	case "coresidency":
		rows, err := experiments.CoResidency(env, features.Simplified)
		if err != nil {
			return err
		}
		fmt.Print(experiments.FormatCoResidency(rows))
		return nil
	case "classifiers":
		rows, err := experiments.ClassifierComparison(env, svmCfg)
		if err != nil {
			return err
		}
		fmt.Print(experiments.FormatClassifiers(rows))
		return nil
	case "features":
		return runFeatures(env)
	case "all":
		if err := runTable2(env, svmCfg); err != nil {
			return err
		}
		fmt.Println()
		if err := runTable3(env, svmCfg); err != nil {
			return err
		}
		fmt.Println()
		view, err := experiments.Fig3(env)
		if err != nil {
			return err
		}
		fmt.Print(view)
		return nil
	default:
		return fmt.Errorf("unknown experiment %q", name)
	}
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

func runTable3(env *experiments.Env, svmCfg svm.Config) error {
	res, err := experiments.Table3(env, nil)
	if err != nil {
		return err
	}
	fmt.Print(res.Format())
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

// runFig2 traces the three-state pipeline on one window — the textual
// analog of the paper's Fig 2 overview.
func runFig2(env *experiments.Env, svmCfg svm.Config) error {
	det, err := sift.TrainForSubject(env.TrainRecs[0], env.DonorsFor(0), sift.Config{
		Version: features.Original,
		SVM:     svmCfg,
	})
	if err != nil {
		return err
	}
	wins, err := dataset.FromRecord(env.TestRecs[0], dataset.WindowSec)
	if err != nil {
		return err
	}
	app, err := sift.NewApp(det, func(a sift.AppAlert) {
		fmt.Printf("  ALERT window %d: altered=%v margin=%+.3f\n", a.WindowIndex, a.Altered, a.Margin)
	})
	if err != nil {
		return err
	}
	app.Trace(func(active, from, to string) {
		fmt.Printf("  [%s] %s → %s\n", active, from, to)
	})
	fmt.Println("Fig 2: SIFT pipeline trace (PeaksDataCheck → FeatureExtraction → MLClassifier)")
	for _, w := range wins[:3] {
		fmt.Printf("window %d:\n", w.Index)
		if err := app.Process(w); err != nil {
			return err
		}
	}
	return nil
}
