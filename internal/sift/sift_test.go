package sift

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"github.com/wiot-security/sift/internal/dataset"
	"github.com/wiot-security/sift/internal/features"
	"github.com/wiot-security/sift/internal/physio"
	"github.com/wiot-security/sift/internal/svm"
)

// fixture builds a small train/test environment: a subject plus two donors,
// short spans to keep the test fast but long enough to learn from.
type fixture struct {
	subjectTrain *physio.Record
	subjectTest  *physio.Record
	donorsTrain  []*physio.Record
	donorsTest   []*physio.Record
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	subjects, err := physio.Cohort(3, 42)
	if err != nil {
		t.Fatal(err)
	}
	gen := func(s physio.Subject, dur float64, seed int64) *physio.Record {
		rec, err := physio.Generate(s, dur, physio.DefaultSampleRate, seed)
		if err != nil {
			t.Fatal(err)
		}
		return rec
	}
	const trainDur, testDur = 90, 60
	return &fixture{
		subjectTrain: gen(subjects[0], trainDur, 1),
		subjectTest:  gen(subjects[0], testDur, 100), // unseen noise realization
		donorsTrain:  []*physio.Record{gen(subjects[1], trainDur, 2), gen(subjects[2], trainDur, 3)},
		donorsTest:   []*physio.Record{gen(subjects[1], testDur, 101), gen(subjects[2], testDur, 102)},
	}
}

func trainDetector(t *testing.T, fx *fixture, v features.Version) *Detector {
	t.Helper()
	d, err := TrainForSubject(fx.subjectTrain, fx.donorsTrain, Config{
		Version: v,
		SVM:     svm.Config{Seed: 7},
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestTrainForSubjectAllVersions(t *testing.T) {
	fx := newFixture(t)
	for _, v := range features.Versions {
		v := v
		t.Run(v.String(), func(t *testing.T) {
			d := trainDetector(t, fx, v)
			if d.SubjectID != fx.subjectTrain.SubjectID {
				t.Errorf("SubjectID = %q", d.SubjectID)
			}
			if d.Version != v || d.GridN != 50 || !d.PeakSanity {
				t.Errorf("config = %v/%d, PeakSanity %v", d.Version, d.GridN, d.PeakSanity)
			}
			if d.Model == nil {
				t.Fatal("no model trained")
			}
		})
	}
}

func TestDetectorDetectsSubstitution(t *testing.T) {
	fx := newFixture(t)
	d := trainDetector(t, fx, features.Original)
	set, err := dataset.BuildTest(fx.subjectTest, fx.donorsTest, dataset.WindowSec, 0.5, 9)
	if err != nil {
		t.Fatal(err)
	}
	c, err := d.Evaluate(set)
	if err != nil {
		t.Fatal(err)
	}
	if acc := c.Accuracy(); acc < 0.75 {
		t.Errorf("accuracy = %.3f (%s), want >= 0.75", acc, c)
	}
}

func TestClassifyMarginSignConsistent(t *testing.T) {
	fx := newFixture(t)
	d := trainDetector(t, fx, features.Simplified)
	wins, err := dataset.FromRecord(fx.subjectTest, dataset.WindowSec)
	if err != nil {
		t.Fatal(err)
	}
	r, err := d.Classify(wins[0])
	if err != nil {
		t.Fatal(err)
	}
	if r.Altered != (r.Margin >= 0) {
		t.Errorf("verdict %v inconsistent with margin %v", r.Altered, r.Margin)
	}
}

func TestClassifyWithoutModel(t *testing.T) {
	d := &Detector{Version: features.Original, GridN: 50}
	if _, err := d.Classify(dataset.Window{ECG: []float64{1}, ABP: []float64{1}}); err == nil {
		t.Error("classify without model should error")
	}
}

// TestClassifyRejectsMalformedWindow feeds a trained detector windows no
// station should cut: each is an error, never a verdict, whether or not
// it carries the R peaks the sanity rule looks for.
func TestClassifyRejectsMalformedWindow(t *testing.T) {
	fx := newFixture(t)
	d := trainDetector(t, fx, features.Reduced)
	wins, err := dataset.FromRecord(fx.subjectTest, dataset.WindowSec)
	if err != nil {
		t.Fatal(err)
	}
	w := wins[0]
	peakless := w
	peakless.RPeaks, peakless.Pairs = nil, nil
	rOutside := w
	rOutside.RPeaks = []int{w.Len()}
	sysOutside := peakless
	sysOutside.SysPeaks = []int{-1}
	for _, tc := range []struct {
		name string
		w    dataset.Window
	}{
		{"empty", dataset.Window{}},
		{"channels_differ", dataset.Window{ECG: []float64{1, 2}, ABP: []float64{1}}},
		{"R_peak_outside", rOutside},
		{"peakless_systolic_peak_outside", sysOutside},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r, err := d.Classify(tc.w)
			if err == nil {
				t.Fatalf("Classify = %+v, want an error", r)
			}
			if r != (Result{}) {
				t.Errorf("failed Classify returned %+v, want the zero Result", r)
			}
			if altered, err := (HostDetector{D: d}).Classify(tc.w); err == nil || altered {
				t.Errorf("HostDetector.Classify = %v, %v; want false and an error", altered, err)
			}
		})
	}
}

// TestPeakSanityRule strips a well-formed window's R peaks: with
// PeakSanity on, Classify answers SanityMargin before any features; with
// it off, the window goes through the classifier like any other.
func TestPeakSanityRule(t *testing.T) {
	fx := newFixture(t)
	d := trainDetector(t, fx, features.Reduced)
	wins, err := dataset.FromRecord(fx.subjectTest, dataset.WindowSec)
	if err != nil {
		t.Fatal(err)
	}
	w := wins[0]
	if d.FailsPeakCheck(w) {
		t.Fatal("a window with R peaks fails the peak check")
	}
	w.RPeaks, w.Pairs = nil, nil
	if !d.FailsPeakCheck(w) {
		t.Fatal("a peakless window passes the peak check")
	}
	r, err := d.Classify(w)
	if err != nil {
		t.Fatal(err)
	}
	if want := (Result{Altered: true, Margin: SanityMargin}); r != want {
		t.Errorf("peakless Classify = %+v, want %+v", r, want)
	}

	off := *d
	off.PeakSanity = false
	if off.FailsPeakCheck(w) {
		t.Fatal("the peak check fires with PeakSanity off")
	}
	r, err = off.Classify(w)
	if err != nil {
		t.Fatal(err)
	}
	f, err := off.FeaturesOf(w)
	if err != nil {
		t.Fatal(err)
	}
	if want := off.Model.Decision(f); math.Float64bits(r.Margin) != math.Float64bits(want) || r.Altered != (want >= 0) {
		t.Errorf("Classify without PeakSanity = %+v, want margin %v", r, want)
	}
}

// TestHostDetectorReportsClassify checks that the station's adapter
// reports exactly the verdict Classify returns, window by window.
func TestHostDetectorReportsClassify(t *testing.T) {
	fx := newFixture(t)
	d := trainDetector(t, fx, features.Simplified)
	set, err := dataset.BuildTest(fx.subjectTest, fx.donorsTest, dataset.WindowSec, 0.5, 9)
	if err != nil {
		t.Fatal(err)
	}
	host := HostDetector{D: d}
	for i, w := range set.Windows {
		r, err := d.Classify(w)
		if err != nil {
			t.Fatal(err)
		}
		altered, err := host.Classify(w)
		if err != nil {
			t.Fatal(err)
		}
		if altered != r.Altered {
			t.Errorf("window %d: HostDetector says altered=%v, Classify %+v", i, altered, r)
		}
	}
}

func TestEvaluateEmptySet(t *testing.T) {
	d := &Detector{Version: features.Original, GridN: 50, Model: &svm.Model{Weights: []float64{1}}}
	if _, err := d.Evaluate(nil); err == nil {
		t.Error("nil set should error")
	}
	if _, err := d.Evaluate(&dataset.LabeledSet{}); err == nil {
		t.Error("empty set should error")
	}
}

// TestEvaluateReportsMalformedWindow puts a peakless window with
// mismatched channels into an evaluation set: Evaluate stops there with
// the window's position, rather than counting it as a detected attack.
func TestEvaluateReportsMalformedWindow(t *testing.T) {
	fx := newFixture(t)
	d := trainDetector(t, fx, features.Reduced)
	set, err := dataset.BuildTest(fx.subjectTest, fx.donorsTest, dataset.WindowSec, 0.5, 9)
	if err != nil {
		t.Fatal(err)
	}
	bad := set.Windows[1]
	bad.RPeaks, bad.Pairs = nil, nil
	bad.ABP = bad.ABP[:len(bad.ABP)/2]
	bad.Altered = true
	set.Windows = []dataset.Window{set.Windows[0], bad, set.Windows[2]}
	if c, err := d.Evaluate(set); err == nil || !strings.Contains(err.Error(), "classify window 1") {
		t.Errorf("Evaluate = %s, %v; want an error at window 1", c, err)
	}
}

func TestTrainEmptySet(t *testing.T) {
	if _, err := Train("x", nil, Config{}); err == nil {
		t.Error("nil training set should error")
	}
	if _, err := Train("x", &dataset.LabeledSet{}, Config{}); err == nil {
		t.Error("empty training set should error")
	}
}

func TestDetectorSerializationRoundTrip(t *testing.T) {
	fx := newFixture(t)
	d := trainDetector(t, fx, features.Reduced)
	data, err := d.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	d2, err := Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	wins, err := dataset.FromRecord(fx.subjectTest, dataset.WindowSec)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range wins[:5] {
		r1, err := d.Classify(w)
		if err != nil {
			t.Fatal(err)
		}
		r2, err := d2.Classify(w)
		if err != nil {
			t.Fatal(err)
		}
		if r1.Altered != r2.Altered || r1.Margin != r2.Margin {
			t.Fatal("round-tripped detector disagrees")
		}
	}
}

func TestUnmarshalBadData(t *testing.T) {
	if _, err := Unmarshal([]byte("nope")); err == nil {
		t.Error("bad JSON should error")
	}
}

func TestQuantizeDetector(t *testing.T) {
	fx := newFixture(t)
	d := trainDetector(t, fx, features.Simplified)
	q, err := d.Quantize()
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Weights) != d.Version.Dim() {
		t.Errorf("quantized weights dim = %d, want %d", len(q.Weights), d.Version.Dim())
	}
	bare := &Detector{}
	if _, err := bare.Quantize(); err == nil {
		t.Error("quantize without model should error")
	}
}

func TestFeaturesOfDimension(t *testing.T) {
	fx := newFixture(t)
	wins, err := dataset.FromRecord(fx.subjectTest, dataset.WindowSec)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range features.Versions {
		d := &Detector{Version: v, GridN: 50}
		f, err := d.FeaturesOf(wins[0])
		if err != nil {
			t.Fatalf("%s: %v", v, err)
		}
		if len(f) != v.Dim() {
			t.Errorf("%s: dim = %d, want %d", v, len(f), v.Dim())
		}
	}
}

// TestFeaturesOfRejectsMalformedWindow checks that every version's
// FeatureExtraction refuses a window whose channels are empty or differ
// in length.
func TestFeaturesOfRejectsMalformedWindow(t *testing.T) {
	for _, v := range features.Versions {
		d := &Detector{Version: v, GridN: 50}
		for _, w := range []dataset.Window{
			{},
			{ECG: []float64{1, 2}, ABP: []float64{1}},
		} {
			if f, err := d.FeaturesOf(w); err == nil {
				t.Errorf("%s: FeaturesOf(%d ECG, %d ABP samples) = %v, want an error", v, len(w.ECG), len(w.ABP), f)
			}
		}
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.fillDefaults()
	if c.Version != features.Original || c.GridN != 50 {
		t.Errorf("defaults = %v/%d", c.Version, c.GridN)
	}
}

// referenceMargin is the classify path before the one-pass core: a fresh
// portrait, features.Extract on it, and standardization into a fresh
// slice before the dot product.
func referenceMargin(t *testing.T, d *Detector, w dataset.Window) float64 {
	t.Helper()
	p, err := w.Portrait()
	if err != nil {
		t.Fatal(err)
	}
	f, err := features.Extract(d.Version, p, d.GridN)
	if err != nil {
		t.Fatal(err)
	}
	z := d.Model.Scaler.Apply(f)
	var s float64
	for j := range d.Model.Weights {
		s += d.Model.Weights[j] * z[j]
	}
	return s + d.Model.Bias
}

func TestClassifyMatchesPortraitPath(t *testing.T) {
	fx := newFixture(t)
	set, err := dataset.BuildTest(fx.subjectTest, fx.donorsTest, dataset.WindowSec, 0.5, 9)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range features.Versions {
		d := trainDetector(t, fx, v)
		for i, w := range set.Windows {
			if len(w.RPeaks) == 0 {
				continue // PeaksDataCheck answers before any features
			}
			r, err := d.Classify(w)
			if err != nil {
				t.Fatal(err)
			}
			if want := referenceMargin(t, d, w); math.Float64bits(r.Margin) != math.Float64bits(want) {
				t.Fatalf("%s window %d: margin %v, portrait path %v", v, i, r.Margin, want)
			}
		}
	}
}

func TestClassifySteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop items on purpose")
	}
	fx := newFixture(t)
	wins, err := dataset.FromRecord(fx.subjectTest, dataset.WindowSec)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range features.Versions {
		d := trainDetector(t, fx, v)
		w := wins[1]
		allocs := testing.AllocsPerRun(100, func() {
			if _, err := d.Classify(w); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: Classify allocates %.1f times per window, want 0", v, allocs)
		}
	}
}

// TestConcurrentClassifySharedDetector runs one Detector from several
// goroutines at once, as wiotsim -stream and the parallel experiments
// do, and requires every margin to match the serial one bit for bit.
func TestConcurrentClassifySharedDetector(t *testing.T) {
	fx := newFixture(t)
	d := trainDetector(t, fx, features.Original)
	set, err := dataset.BuildTest(fx.subjectTest, fx.donorsTest, dataset.WindowSec, 0.5, 3)
	if err != nil {
		t.Fatal(err)
	}
	serial := make([]float64, len(set.Windows))
	for i, w := range set.Windows {
		r, err := d.Classify(w)
		if err != nil {
			t.Fatal(err)
		}
		serial[i] = r.Margin
	}
	const workers = 4
	errs := make(chan error, workers)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := range set.Windows {
				i := (k + g*len(set.Windows)/workers) % len(set.Windows)
				r, err := d.Classify(set.Windows[i])
				if err != nil {
					errs <- err
					return
				}
				if math.Float64bits(r.Margin) != math.Float64bits(serial[i]) {
					errs <- fmt.Errorf("worker %d window %d: margin %v, serial %v", g, i, r.Margin, serial[i])
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// BenchmarkTrainForSubject trains one wearer as the cohort benchmark
// does: 300 s of the wearer's own record against the same span of its
// two cohort neighbours, the Original version, at most 150 SMO passes.
func BenchmarkTrainForSubject(b *testing.B) {
	subjects, err := physio.Cohort(8, 1)
	if err != nil {
		b.Fatal(err)
	}
	var recs []*physio.Record
	for k := 0; k < 3; k++ {
		rec, err := physio.Generate(subjects[k], 300, physio.DefaultSampleRate, 2+int64(k))
		if err != nil {
			b.Fatal(err)
		}
		recs = append(recs, rec)
	}
	cfg := Config{Version: features.Original, SVM: svm.Config{Seed: 1, MaxIter: 150}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := TrainForSubject(recs[0], recs[1:], cfg); err != nil {
			b.Fatal(err)
		}
	}
}
