package experiments

import (
	"strings"
	"testing"

	"github.com/wiot-security/sift/internal/baseline"
	"github.com/wiot-security/sift/internal/features"
	"github.com/wiot-security/sift/internal/svm"
)

func TestClassifierComparisonQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("comparison is slow")
	}
	env := quickEnv(t)
	rows, err := ClassifierComparison(env, quickSVM())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("rows = %d, want 5 algorithms", len(rows))
	}
	byName := map[string]float64{}
	for _, r := range rows {
		byName[r.Name] = r.Summary.AvgAcc
		if r.Summary.AvgAcc < 0.5 {
			t.Errorf("%s accuracy %.2f below chance", r.Name, r.Summary.AvgAcc)
		}
		if r.Summary.N != env.Config.Subjects {
			t.Errorf("%s summarized %d subjects", r.Name, r.Summary.N)
		}
	}
	// The paper's model-selection claim: the SVM should be at or near the
	// top — allow a small tolerance since kNN can tie on easy cohorts.
	svmAcc := byName["linear-SVM"]
	for name, acc := range byName {
		if acc > svmAcc+0.05 {
			t.Errorf("%s (%.3f) beats the SVM (%.3f) by more than the tolerance", name, acc, svmAcc)
		}
	}
	out := FormatClassifiers(rows)
	for _, want := range []string{"linear-SVM", "RBF-SVM", "kNN", "logistic", "nearest-centroid"} {
		if !strings.Contains(out, want) {
			t.Errorf("formatted comparison missing %q", want)
		}
	}
}

func TestMotionStudyQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("motion study is slow")
	}
	env := quickEnv(t)
	rows, err := MotionStudy(env, quickSVM())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d, want 3 policies", len(rows))
	}
	byPolicy := map[string]MotionRow{}
	for _, r := range rows {
		byPolicy[r.Policy] = r
		if r.FPRate < 0 || r.FPRate > 1 {
			t.Errorf("%s FP rate %.3f out of range", r.Policy, r.FPRate)
		}
	}
	gated := byPolicy["motion, activity-gated"]
	ungated := byPolicy["motion, ungated"]
	if gated.Coverage >= 1 {
		t.Errorf("gating must reduce coverage, got %.2f", gated.Coverage)
	}
	if gated.Coverage < 0.2 {
		t.Errorf("gating coverage %.2f implausibly low (rest is 1/3 of the schedule)", gated.Coverage)
	}
	if gated.FPRate > ungated.FPRate+1e-9 {
		t.Errorf("gated FP %.3f should not exceed ungated %.3f", gated.FPRate, ungated.FPRate)
	}
	if out := FormatMotion(rows); !strings.Contains(out, "gated") {
		t.Error("motion formatting broken")
	}
}

func TestMotionStudyNeedsLongRecords(t *testing.T) {
	cfg := QuickConfig()
	cfg.TestSec = 30 // too short for the 120 s episode schedule
	env, err := NewEnv(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := MotionStudy(env, quickSVM()); err == nil {
		t.Error("short test records should error")
	}
}

func TestCycleModelMonotoneAndPositive(t *testing.T) {
	env := quickEnv(t)
	for _, v := range []features.Version{features.Original, features.Reduced} {
		f, err := CycleModel(env.TestRecs[0], v)
		if err != nil {
			t.Fatalf("%v: %v", v, err)
		}
		prev := 0.0
		for _, w := range []float64{1, 2, 3, 5, 10} {
			c := f(w)
			if c <= 0 {
				t.Errorf("%v: cycles(%v) = %v, want positive", v, w, c)
			}
			if c < prev {
				t.Errorf("%v: cycles not monotone at w=%v", v, w)
			}
			prev = c
		}
		// Original carries the grid pipeline's per-window fixed cost, so
		// doubling w must NOT double the cycles; Reduced is essentially
		// per-sample-linear (its geometric loops scale with the peak
		// count), so it only needs to stay near-linear.
		if v == features.Original {
			if f(2) >= 2*f(1) {
				t.Errorf("Original: no fixed-overhead amortization: f(1)=%v f(2)=%v", f(1), f(2))
			}
		} else if f(2) > 2.6*f(1) {
			t.Errorf("%v: cycle growth implausibly super-linear: f(1)=%v f(2)=%v", v, f(1), f(2))
		}
	}
}

func TestFreshClassifierTypes(t *testing.T) {
	cfg := svm.Config{Seed: 1}
	for _, proto := range baseline.All(cfg) {
		c := freshClassifier(proto, cfg)
		if c.Name() != proto.Name() {
			t.Errorf("fresh classifier name %q != %q", c.Name(), proto.Name())
		}
		if c == proto {
			t.Errorf("%s: fresh classifier should be a new instance", proto.Name())
		}
	}
}

func TestCoResidencyQuick(t *testing.T) {
	env := quickEnv(t)
	rows, err := CoResidency(env, features.Simplified)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(rows))
	}
	var det, ped, both CoResidencyRow
	for _, r := range rows {
		switch {
		case strings.Contains(r.Apps, "+"):
			both = r
		case strings.Contains(r.Apps, "pedometer"):
			ped = r
		default:
			det = r
		}
	}
	if both.CyclesPerWindow <= det.CyclesPerWindow {
		t.Error("co-residency must cost more cycles than the detector alone")
	}
	if ped.CyclesPerWindow >= det.CyclesPerWindow {
		t.Error("the pedometer should be far cheaper than the detector")
	}
	if both.LifetimeDays >= det.LifetimeDays {
		t.Error("adding an app must reduce battery life")
	}
	for _, r := range rows {
		if !r.DeadlineOK {
			t.Errorf("%s misses its window deadline", r.Apps)
		}
		if r.MCUUtilization <= 0 || r.MCUUtilization >= 1 {
			t.Errorf("%s utilization %.3f implausible", r.Apps, r.MCUUtilization)
		}
	}
	if out := FormatCoResidency(rows); !strings.Contains(out, "pedometer") {
		t.Error("co-residency formatting broken")
	}
}

func TestPipelineStudyQuick(t *testing.T) {
	env := quickEnv(t)
	rows, err := PipelineStudy(env)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(rows))
	}
	pre, rt := rows[0], rows[1]
	if rt.CyclesPerWindow <= pre.CyclesPerWindow {
		t.Error("runtime peak detection must cost extra cycles")
	}
	if rt.LifetimeDays >= pre.LifetimeDays {
		t.Error("runtime peak detection must cost battery life")
	}
	// ...but not implausibly much: the extension should stay cheap
	// relative to the detector itself.
	if rt.CyclesPerWindow > 2.5*pre.CyclesPerWindow {
		t.Errorf("runtime pipeline %.0f cycles vs %.0f implausible", rt.CyclesPerWindow, pre.CyclesPerWindow)
	}
	if out := FormatPipeline(rows); !strings.Contains(out, "runtime") {
		t.Error("pipeline formatting broken")
	}
}
