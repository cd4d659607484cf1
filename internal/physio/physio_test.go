package physio

import (
	"math"
	"testing"
	"testing/quick"
)

func genRecord(t *testing.T, dur float64) *Record {
	t.Helper()
	rec, err := Generate(DefaultSubject(), dur, DefaultSampleRate, 1)
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

func TestGenerateLength(t *testing.T) {
	rec := genRecord(t, 10)
	want := int(10 * DefaultSampleRate)
	if len(rec.ECG) != want || len(rec.ABP) != want {
		t.Errorf("lengths = %d, %d; want %d", len(rec.ECG), len(rec.ABP), want)
	}
	if got := rec.Duration(); math.Abs(got-10) > 0.01 {
		t.Errorf("Duration = %v, want 10", got)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := genRecord(t, 5)
	b := genRecord(t, 5)
	for i := range a.ECG {
		if a.ECG[i] != b.ECG[i] || a.ABP[i] != b.ABP[i] {
			t.Fatalf("sample %d differs between identical generations", i)
		}
	}
}

func TestGenerateSeedChangesNoise(t *testing.T) {
	a, err := Generate(DefaultSubject(), 5, DefaultSampleRate, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(DefaultSubject(), 5, DefaultSampleRate, 2)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a.ECG {
		if a.ECG[i] != b.ECG[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds should produce different noise realizations")
	}
}

func TestGenerateInvalidArgs(t *testing.T) {
	s := DefaultSubject()
	if _, err := Generate(s, 0, DefaultSampleRate, 1); err == nil {
		t.Error("zero duration should error")
	}
	if _, err := Generate(s, 10, 0, 1); err == nil {
		t.Error("zero sample rate should error")
	}
	for _, x := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := Generate(s, x, DefaultSampleRate, 1); err == nil {
			t.Errorf("duration %g should error", x)
		}
		if _, err := Generate(s, 10, x, 1); err == nil {
			t.Errorf("sample rate %g should error", x)
		}
	}
	bad := s
	bad.Systolic = 50 // below diastolic
	if _, err := Generate(bad, 10, DefaultSampleRate, 1); err == nil {
		t.Error("invalid subject should error")
	}
}

// TestGenerateSpanCap checks that a finite span too long to synthesize
// is an error rather than a makeslice panic. Only rejections are tested:
// a span at the cap would allocate about 500 MB.
func TestGenerateSpanCap(t *testing.T) {
	s := DefaultSubject()
	cases := []struct {
		name        string
		durationSec float64
		fs          float64
	}{
		{"huge duration", 1e300, DefaultSampleRate},
		{"one second past a day", MaxSpanSec + 1, DefaultSampleRate},
		{"huge rate", 10, 1e300},
		{"a day at twice the rate", MaxSpanSec, 2 * DefaultSampleRate},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Generate(s, tc.durationSec, tc.fs, 1); err == nil {
				t.Errorf("Generate(%g s, %g Hz) accepted a span past the cap", tc.durationSec, tc.fs)
			}
		})
	}
}

func TestValidate(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Subject)
	}{
		{"low heart rate", func(s *Subject) { s.HeartRate = 5 }},
		{"high heart rate", func(s *Subject) { s.HeartRate = 500 }},
		{"no waves", func(s *Subject) { s.Waves = nil }},
		{"inverted pressure", func(s *Subject) { s.Systolic, s.Diastolic = 60, 100 }},
		{"bad peak frac", func(s *Subject) { s.PeakFrac = 1.5 }},
		{"negative lag", func(s *Subject) { s.TransitLag = -1 }},
		{"NaN heart rate", func(s *Subject) { s.HeartRate = math.NaN() }},
		{"NaN peak frac", func(s *Subject) { s.PeakFrac = math.NaN() }},
		{"NaN systolic", func(s *Subject) { s.Systolic = math.NaN() }},
		{"infinite systolic", func(s *Subject) { s.Systolic = math.Inf(1) }},
		{"NaN diastolic", func(s *Subject) { s.Diastolic = math.NaN() }},
		{"NaN lag", func(s *Subject) { s.TransitLag = math.NaN() }},
		{"infinite lag", func(s *Subject) { s.TransitLag = math.Inf(1) }},
		{"infinite R amp", func(s *Subject) { s.Waves[2].Amp = math.Inf(1) }},
		{"NaN wave theta", func(s *Subject) { s.Waves[0].Theta = math.NaN() }},
		{"zero wave width", func(s *Subject) { s.Waves[1].B = 0 }},
		{"negative wave width", func(s *Subject) { s.Waves[1].B = -0.1 }},
		{"NaN wave width", func(s *Subject) { s.Waves[4].B = math.NaN() }},
		{"infinite wave width", func(s *Subject) { s.Waves[4].B = math.Inf(1) }},
		{"NaN HRV", func(s *Subject) { s.HRVLowFreq = math.NaN() }},
		{"infinite HRV noise", func(s *Subject) { s.HRVNoise = math.Inf(-1) }},
		{"NaN decay", func(s *Subject) { s.DecayRate = math.NaN() }},
		{"infinite notch depth", func(s *Subject) { s.NotchDepth = math.Inf(1) }},
		{"NaN notch frac", func(s *Subject) { s.NotchFrac = math.NaN() }},
		{"NaN ECG noise", func(s *Subject) { s.ECGNoise = math.NaN() }},
		{"infinite ABP noise", func(s *Subject) { s.ABPNoise = math.Inf(1) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := DefaultSubject()
			tc.mutate(&s)
			if err := s.Validate(); err == nil {
				t.Error("expected validation error")
			}
		})
	}
	good := DefaultSubject()
	if err := good.Validate(); err != nil {
		t.Errorf("default subject should validate: %v", err)
	}
}

// TestGenerateRejectsNaNHeartRate: a NaN heart rate would leave the beat
// train empty, so Generate must refuse it before indexing any beat.
func TestGenerateRejectsNaNHeartRate(t *testing.T) {
	s := DefaultSubject()
	s.HeartRate = math.NaN()
	if _, err := Generate(s, 3, DefaultSampleRate, 1); err == nil {
		t.Fatal("Generate accepted a NaN heart rate")
	}
}

func TestRPeakCount(t *testing.T) {
	rec := genRecord(t, 60)
	// 70 bpm for 60 s: expect roughly 70 R peaks.
	if n := len(rec.RPeaks); n < 60 || n > 80 {
		t.Errorf("R peak count = %d, want ~70", n)
	}
	if n := len(rec.SystolicPeaks); n < 55 || n > 80 {
		t.Errorf("systolic peak count = %d, want ~70", n)
	}
}

func TestRPeaksAreLocalMaxima(t *testing.T) {
	rec := genRecord(t, 30)
	for _, p := range rec.RPeaks {
		if p < 5 || p >= len(rec.ECG)-5 {
			continue
		}
		// The R peak should dominate its ±5-sample neighborhood's edges.
		if rec.ECG[p] < rec.ECG[p-5] || rec.ECG[p] < rec.ECG[p+5] {
			t.Errorf("R peak at %d (%.3f) not above neighborhood (%.3f, %.3f)",
				p, rec.ECG[p], rec.ECG[p-5], rec.ECG[p+5])
		}
	}
}

func TestSystolicFollowsR(t *testing.T) {
	rec := genRecord(t, 30)
	s := DefaultSubject()
	// Every R peak (except possibly the last, whose pulse may fall past
	// the record end) must be followed by a systolic peak within roughly
	// TransitLag + PeakFrac·RR (~0.4 s at 70 bpm).
	for i, r := range rec.RPeaks {
		if i == len(rec.RPeaks)-1 {
			break
		}
		found := false
		for _, sp := range rec.SystolicPeaks {
			if sp <= r {
				continue
			}
			dt := float64(sp-r) / rec.SampleRate
			if dt >= s.TransitLag*0.5 && dt <= 1.0 {
				found = true
			}
			break
		}
		if !found {
			t.Errorf("R peak %d at %d has no systolic peak within 1 s", i, r)
		}
	}
}

func TestABPWithinPhysiologicalRange(t *testing.T) {
	rec := genRecord(t, 30)
	s := DefaultSubject()
	for i, v := range rec.ABP {
		if v < s.Diastolic-6 || v > s.Systolic+6 {
			t.Fatalf("ABP[%d] = %.1f outside [%.1f, %.1f]±6", i, v, s.Diastolic, s.Systolic)
		}
	}
}

func TestECGAmplitudeSane(t *testing.T) {
	rec := genRecord(t, 30)
	var maxAbs float64
	for _, v := range rec.ECG {
		if a := math.Abs(v); a > maxAbs {
			maxAbs = a
		}
	}
	if maxAbs < 0.5 || maxAbs > 3 {
		t.Errorf("ECG max amplitude %.3f mV implausible", maxAbs)
	}
}

func TestSlice(t *testing.T) {
	rec := genRecord(t, 30)
	sub, err := rec.Slice(3600, 7200) // seconds 10–20
	if err != nil {
		t.Fatal(err)
	}
	if len(sub.ECG) != 3600 {
		t.Errorf("slice length = %d, want 3600", len(sub.ECG))
	}
	for _, p := range sub.RPeaks {
		if p < 0 || p >= 3600 {
			t.Errorf("re-based R peak %d out of range", p)
		}
	}
	if len(sub.RPeaks) < 8 {
		t.Errorf("slice should retain ~11 R peaks, got %d", len(sub.RPeaks))
	}
}

func TestSliceBounds(t *testing.T) {
	rec := genRecord(t, 5)
	for _, c := range []struct{ lo, hi int }{{-1, 100}, {0, 1 << 30}, {100, 100}, {200, 100}} {
		if _, err := rec.Slice(c.lo, c.hi); err == nil {
			t.Errorf("Slice(%d,%d) should error", c.lo, c.hi)
		}
	}
}

func TestCohortDeterministic(t *testing.T) {
	a, err := Cohort(CohortSize, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Cohort(CohortSize, 42)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i].HeartRate != b[i].HeartRate || a[i].Systolic != b[i].Systolic {
			t.Fatalf("cohort subject %d differs between identical seeds", i)
		}
	}
}

func TestCohortSubjectsDiffer(t *testing.T) {
	subjects, err := Cohort(CohortSize, 42)
	if err != nil {
		t.Fatal(err)
	}
	if len(subjects) != CohortSize {
		t.Fatalf("cohort size = %d", len(subjects))
	}
	ids := map[string]bool{}
	for _, s := range subjects {
		if ids[s.ID] {
			t.Errorf("duplicate subject ID %s", s.ID)
		}
		ids[s.ID] = true
		if err := s.Validate(); err != nil {
			t.Errorf("subject %s invalid: %v", s.ID, err)
		}
	}
	// Morphologies must differ pairwise (heart rate or systolic pressure).
	for i := 0; i < len(subjects); i++ {
		for j := i + 1; j < len(subjects); j++ {
			if subjects[i].HeartRate == subjects[j].HeartRate &&
				subjects[i].Systolic == subjects[j].Systolic {
				t.Errorf("subjects %d and %d have identical parameters", i, j)
			}
		}
	}
}

func TestCohortAgeMix(t *testing.T) {
	subjects, err := Cohort(CohortSize, 42)
	if err != nil {
		t.Fatal(err)
	}
	mean := MeanAge(subjects)
	// Paper: mean 46.5, σ 25.5 — a bimodal young/old mix. Accept a broad
	// band around that.
	if mean < 35 || mean > 60 {
		t.Errorf("cohort mean age = %.1f, want bimodal mix near 46.5", mean)
	}
	var young, old int
	for _, s := range subjects {
		switch {
		case s.Age <= 40:
			young++
		case s.Age >= 60:
			old++
		}
	}
	if young == 0 || old == 0 {
		t.Errorf("cohort should mix young (%d) and old (%d) subjects", young, old)
	}
}

func TestCohortInvalidSize(t *testing.T) {
	if _, err := Cohort(0, 1); err == nil {
		t.Error("zero cohort should error")
	}
	if _, err := Cohort(-3, 1); err == nil {
		t.Error("negative cohort should error")
	}
}

func TestMeanAgeEmpty(t *testing.T) {
	if MeanAge(nil) != 0 {
		t.Error("MeanAge(nil) should be 0")
	}
}

func TestQuickGenerateAlwaysBounded(t *testing.T) {
	subjects, err := Cohort(6, 7)
	if err != nil {
		t.Fatal(err)
	}
	f := func(pick uint8, seed int64) bool {
		s := subjects[int(pick)%len(subjects)]
		rec, err := Generate(s, 5, DefaultSampleRate, seed)
		if err != nil {
			return false
		}
		for _, v := range rec.ECG {
			if math.IsNaN(v) || math.Abs(v) > 10 {
				return false
			}
		}
		for _, v := range rec.ABP {
			if math.IsNaN(v) || v < 0 || v > 300 {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 20}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// BenchmarkGenerate synthesizes one 300 s record of a cohort subject.
func BenchmarkGenerate(b *testing.B) {
	subjects, err := Cohort(8, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Generate(subjects[0], 300, DefaultSampleRate, 1); err != nil {
			b.Fatal(err)
		}
	}
}
