package experiments

import (
	"fmt"
	"math"
	"strings"

	"github.com/wiot-security/sift/internal/adaptive"
	"github.com/wiot-security/sift/internal/arp"
	"github.com/wiot-security/sift/internal/attack"
	"github.com/wiot-security/sift/internal/dataset"
	"github.com/wiot-security/sift/internal/features"
	"github.com/wiot-security/sift/internal/metrics"
	"github.com/wiot-security/sift/internal/sift"
	"github.com/wiot-security/sift/internal/svm"
)

// SweepPoint is one operating point of a parameter sweep.
type SweepPoint struct {
	Param    float64
	Accuracy float64
	FP       float64
	FN       float64
}

// FormatSweep renders a sweep as an aligned table.
func FormatSweep(title, paramName string, points []SweepPoint) string {
	var sb strings.Builder
	sb.WriteString(title + "\n")
	sb.WriteString(fmt.Sprintf("%-12s %9s %9s %9s\n", paramName, "Acc", "FP", "FN"))
	for _, p := range points {
		sb.WriteString(fmt.Sprintf("%-12.3g %8.2f%% %8.2f%% %8.2f%%\n",
			p.Param, 100*p.Accuracy, 100*p.FP, 100*p.FN))
	}
	return sb.String()
}

// evalProtocol trains and evaluates one (subject, config) pair with a
// custom window length and grid, returning the confusion matrix.
func evalProtocol(env *Env, i int, v features.Version, wSec float64, gridN int, svmCfg svm.Config) (metrics.Confusion, error) {
	set, err := dataset.BuildTraining(env.TrainRecs[i], env.DonorsFor(i), wSec)
	if err != nil {
		return metrics.Confusion{}, err
	}
	det, err := sift.Train(env.TrainRecs[i].SubjectID, set, sift.Config{Version: v, GridN: gridN, SVM: svmCfg})
	if err != nil {
		return metrics.Confusion{}, err
	}
	testSet, err := dataset.BuildTest(env.TestRecs[i], env.TestDonorsFor(i), wSec,
		dataset.TestAlteredFrac, env.Config.Seed+3000+int64(i))
	if err != nil {
		return metrics.Confusion{}, err
	}
	return det.Evaluate(testSet)
}

// sweep runs one sweep: at each parameter value it checks the value,
// evaluates every subject, and summarizes their confusions into one
// point.
func sweep[P int | float64](env *Env, params []P, check func(p P) error,
	eval func(p P, i int) (metrics.Confusion, error)) ([]SweepPoint, error) {
	var out []SweepPoint
	for _, p := range params {
		if err := check(p); err != nil {
			return nil, err
		}
		cms := make([]metrics.Confusion, len(env.Subjects))
		err := env.forEachSubject(func(i int) error {
			cm, err := eval(p, i)
			cms[i] = cm
			return err
		})
		if err != nil {
			return nil, err
		}
		s, err := metrics.Summarize(cms)
		if err != nil {
			return nil, err
		}
		out = append(out, SweepPoint{Param: float64(p), Accuracy: s.AvgAcc, FP: s.AvgFP, FN: s.AvgFN})
	}
	return out, nil
}

// SweepWindow measures detection quality as the window length w varies —
// an ablation of the paper's fixed w = 3 s.
func SweepWindow(env *Env, v features.Version, windows []float64, svmCfg svm.Config) ([]SweepPoint, error) {
	return sweep(env, windows, func(w float64) error {
		if w <= 0 {
			return fmt.Errorf("experiments: window %.3g s must be positive", w)
		}
		return nil
	}, func(w float64, i int) (metrics.Confusion, error) {
		cm, err := evalProtocol(env, i, v, w, 50, svmCfg)
		if err != nil {
			return cm, fmt.Errorf("experiments: sweep w=%.1f subject %d: %w", w, i, err)
		}
		return cm, nil
	})
}

// SweepGrid measures detection quality as the portrait grid size n varies
// — an ablation of the paper's fixed n = 50.
func SweepGrid(env *Env, v features.Version, grids []int, svmCfg svm.Config) ([]SweepPoint, error) {
	return sweep(env, grids, func(n int) error {
		if n <= 0 {
			return fmt.Errorf("experiments: grid %d must be positive", n)
		}
		return nil
	}, func(n, i int) (metrics.Confusion, error) {
		cm, err := evalProtocol(env, i, v, dataset.WindowSec, n, svmCfg)
		if err != nil {
			return cm, fmt.Errorf("experiments: sweep n=%d subject %d: %w", n, i, err)
		}
		return cm, nil
	})
}

// SweepTraining measures detection quality as the training span Δ varies —
// an ablation of the paper's "20 minutes works best" choice.
func SweepTraining(env *Env, v features.Version, spansSec []float64, svmCfg svm.Config) ([]SweepPoint, error) {
	return sweep(env, spansSec, func(span float64) error {
		if span < 2*dataset.WindowSec {
			return fmt.Errorf("experiments: training span %.0f s too short", span)
		}
		return nil
	}, func(span float64, i int) (metrics.Confusion, error) {
		full := env.TrainRecs[i]
		n := int(span * full.SampleRate)
		if n > len(full.ECG) {
			n = len(full.ECG)
		}
		rec, err := full.Slice(0, n)
		if err != nil {
			return metrics.Confusion{}, err
		}
		det, err := sift.TrainForSubject(rec, env.DonorsFor(i), sift.Config{Version: v, SVM: svmCfg})
		if err != nil {
			return metrics.Confusion{}, fmt.Errorf("experiments: sweep Δ=%.0f subject %d: %w", span, i, err)
		}
		testSet, err := dataset.BuildTest(env.TestRecs[i], env.TestDonorsFor(i),
			dataset.WindowSec, dataset.TestAlteredFrac, env.Config.Seed+4000+int64(i))
		if err != nil {
			return metrics.Confusion{}, err
		}
		return det.Evaluate(testSet)
	})
}

// ROCResult is a per-version ROC study.
type ROCResult struct {
	Version features.Version
	Curve   []metrics.ROCPoint
	AUC     float64
}

// ROCCurves computes a pooled ROC per version from the SVM margins over
// every subject's test set.
func ROCCurves(env *Env, svmCfg svm.Config) ([]ROCResult, error) {
	var out []ROCResult
	for _, v := range features.Versions {
		// Per-subject partial score lists, concatenated in subject order
		// so the pooled curve is identical to a serial run.
		type rocPart struct {
			scores []float64
			labels []bool
		}
		parts := make([]rocPart, len(env.Subjects))
		err := env.forEachSubject(func(i int) error {
			det, err := sift.TrainForSubject(env.TrainRecs[i], env.DonorsFor(i), sift.Config{Version: v, SVM: svmCfg})
			if err != nil {
				return err
			}
			testSet, err := dataset.BuildTest(env.TestRecs[i], env.TestDonorsFor(i),
				dataset.WindowSec, dataset.TestAlteredFrac, env.Config.Seed+5000+int64(i))
			if err != nil {
				return err
			}
			for _, w := range testSet.Windows {
				r, err := det.Classify(w)
				if err != nil {
					return err
				}
				parts[i].scores = append(parts[i].scores, r.Margin)
				parts[i].labels = append(parts[i].labels, w.Altered)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		var scores []float64
		var labels []bool
		for _, p := range parts {
			scores = append(scores, p.scores...)
			labels = append(labels, p.labels...)
		}
		curve, err := metrics.ROC(scores, labels)
		if err != nil {
			return nil, fmt.Errorf("experiments: ROC %v: %w", v, err)
		}
		out = append(out, ROCResult{Version: v, Curve: curve, AUC: metrics.AUC(curve)})
	}
	return out, nil
}

// FormatROC renders AUCs and a coarse curve.
func FormatROC(results []ROCResult) string {
	var sb strings.Builder
	sb.WriteString("ROC study (pooled over subjects)\n")
	for _, r := range results {
		sb.WriteString(fmt.Sprintf("%-11s AUC = %.3f\n", r.Version, r.AUC))
	}
	return sb.String()
}

// GeneralizationRow reports detection of one attack type by a detector
// trained only on the substitution attack.
type GeneralizationRow struct {
	Attack     string
	DetectRate float64 // fraction of attacked windows flagged
}

// AttackGeneralization trains the Original detector per subject on the
// substitution attack, then measures detection of every attack in the
// gallery — the attack-agnosticism claim, quantified.
func AttackGeneralization(env *Env, svmCfg svm.Config) ([]GeneralizationRow, error) {
	totals := map[string]int{}
	hits := map[string]int{}
	var order []string

	for i := range env.Subjects {
		det, err := sift.TrainForSubject(env.TrainRecs[i], env.DonorsFor(i), sift.Config{
			Version: features.Original,
			SVM:     svmCfg,
		})
		if err != nil {
			return nil, err
		}
		wins, err := dataset.FromRecord(env.TestRecs[i], dataset.WindowSec)
		if err != nil {
			return nil, err
		}
		var donorWins []dataset.Window
		for _, d := range env.TestDonorsFor(i) {
			dw, err := dataset.FromRecord(d, dataset.WindowSec)
			if err != nil {
				return nil, err
			}
			donorWins = append(donorWins, dw...)
		}
		half := len(wins) / 2
		gallery := attack.Gallery(wins[:half], donorWins, env.TestRecs[i].SampleRate, env.Config.Seed+int64(i))
		if i == 0 {
			for _, a := range gallery {
				order = append(order, a.Name())
			}
		}
		for _, a := range gallery {
			for _, w := range wins[half:] {
				attacked, err := a.Apply(w)
				if err != nil {
					return nil, fmt.Errorf("experiments: apply %s: %w", a.Name(), err)
				}
				r, err := det.Classify(attacked)
				if err != nil {
					return nil, err
				}
				totals[a.Name()]++
				if r.Altered {
					hits[a.Name()]++
				}
			}
		}
	}

	var out []GeneralizationRow
	for _, name := range order {
		rate := 0.0
		if totals[name] > 0 {
			rate = float64(hits[name]) / float64(totals[name])
		}
		out = append(out, GeneralizationRow{Attack: name, DetectRate: rate})
	}
	return out, nil
}

// FormatGeneralization renders the generalization matrix.
func FormatGeneralization(rows []GeneralizationRow) string {
	var sb strings.Builder
	sb.WriteString("Attack generalization (trained on substitution only)\n")
	for _, r := range rows {
		sb.WriteString(fmt.Sprintf("%-14s detected %6.2f%%\n", r.Attack, 100*r.DetectRate))
	}
	return sb.String()
}

// AdaptiveRow is one policy's outcome in the adaptive-security study.
type AdaptiveRow struct {
	Policy       string
	LifetimeDays float64
	Switches     int
}

// AdaptiveStudy compares fixed-version deployments against the
// hysteresis decision engine using the measured per-version cycle costs.
func AdaptiveStudy(telemetry map[features.Version]DeviceTelemetry) ([]AdaptiveRow, error) {
	energy := arp.DefaultEnergyModel()
	profiles := make([]adaptive.VersionProfile, 0, len(features.Versions))
	for _, v := range features.Versions {
		tel, ok := telemetry[v]
		if !ok {
			return nil, fmt.Errorf("experiments: missing telemetry for %v", v)
		}
		profiles = append(profiles, adaptive.VersionProfile{
			Version:         v,
			CyclesPerWindow: tel.CyclesPerWindow,
			NeedsSoftFloat:  v == features.Original,
			NeedsFixMath:    v != features.Original,
		})
	}
	caps := adaptive.StaticConstraints{HasSoftFloat: true, HasFixMath: true}

	var rows []AdaptiveRow
	for _, p := range profiles {
		e, err := adaptive.NewEngine([]adaptive.VersionProfile{p}, caps, adaptive.HysteresisPolicy{}, energy, dataset.WindowSec)
		if err != nil {
			return nil, err
		}
		days, err := e.RunToEmpty(5_000_000, 500)
		if err != nil {
			return nil, err
		}
		rows = append(rows, AdaptiveRow{Policy: "fixed-" + p.Version.String(), LifetimeDays: days})
	}
	e, err := adaptive.NewEngine(profiles, caps, adaptive.HysteresisPolicy{}, energy, dataset.WindowSec)
	if err != nil {
		return nil, err
	}
	days, err := e.RunToEmpty(5_000_000, 500)
	if err != nil {
		return nil, err
	}
	rows = append(rows, AdaptiveRow{Policy: "adaptive-hysteresis", LifetimeDays: days, Switches: e.Switches})
	return rows, nil
}

// FormatAdaptive renders the adaptive-security comparison.
func FormatAdaptive(rows []AdaptiveRow) string {
	var sb strings.Builder
	sb.WriteString("Adaptive security study (Insight #4)\n")
	for _, r := range rows {
		sb.WriteString(fmt.Sprintf("%-22s lifetime %6.1f days  switches %d\n", r.Policy, r.LifetimeDays, r.Switches))
	}
	return sb.String()
}

// PrecisionSweep quantizes host feature vectors to k fractional bits
// before classification, isolating the accuracy cost of fixed-point
// representations (the Q16.16 choice is k = 16).
func PrecisionSweep(env *Env, v features.Version, fracBits []int, svmCfg svm.Config) ([]SweepPoint, error) {
	return sweep(env, fracBits, func(k int) error {
		if k < 1 || k > 30 {
			return fmt.Errorf("experiments: fractional bits %d outside [1,30]", k)
		}
		return nil
	}, func(k, i int) (metrics.Confusion, error) {
		scale := math.Pow(2, float64(k))
		var cm metrics.Confusion
		det, err := sift.TrainForSubject(env.TrainRecs[i], env.DonorsFor(i), sift.Config{Version: v, SVM: svmCfg})
		if err != nil {
			return cm, err
		}
		testSet, err := dataset.BuildTest(env.TestRecs[i], env.TestDonorsFor(i),
			dataset.WindowSec, dataset.TestAlteredFrac, env.Config.Seed+6000+int64(i))
		if err != nil {
			return cm, err
		}
		for _, w := range testSet.Windows {
			f, err := det.FeaturesOf(w)
			if err != nil {
				return cm, err
			}
			for j := range f {
				f[j] = math.Round(f[j]*scale) / scale
			}
			cm.Add(w.Altered, det.Model.Decision(f) >= 0)
		}
		return cm, nil
	})
}
