package features

import (
	"math"
	"strings"
	"testing"

	"github.com/wiot-security/sift/internal/peaks"
	"github.com/wiot-security/sift/internal/physio"
	"github.com/wiot-security/sift/internal/portrait"
)

// windowPortrait builds a 3-second portrait from a generated record.
func windowPortrait(t *testing.T, seed int64) *portrait.Portrait {
	t.Helper()
	rec, err := physio.Generate(physio.DefaultSubject(), 3, physio.DefaultSampleRate, seed)
	if err != nil {
		t.Fatal(err)
	}
	pairs := peaks.Pair(rec.RPeaks, rec.SystolicPeaks, int(rec.SampleRate))
	p, err := portrait.New(rec.ECG, rec.ABP, rec.RPeaks, rec.SystolicPeaks, pairs)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestVersionMetadata(t *testing.T) {
	cases := []struct {
		v    Version
		name string
		dim  int
	}{
		{Original, "Original", 8},
		{Simplified, "Simplified", 8},
		{Reduced, "Reduced", 5},
	}
	for _, tc := range cases {
		if tc.v.String() != tc.name {
			t.Errorf("String() = %q, want %q", tc.v.String(), tc.name)
		}
		if tc.v.Dim() != tc.dim {
			t.Errorf("%s Dim() = %d, want %d", tc.name, tc.v.Dim(), tc.dim)
		}
		if got := len(tc.v.Names()); got != tc.dim {
			t.Errorf("%s Names() length = %d, want %d", tc.name, got, tc.dim)
		}
	}
	if Version(99).Dim() != 0 || Version(99).Names() != nil {
		t.Error("unknown version should have zero dim and nil names")
	}
	if Version(99).String() != "Version(99)" {
		t.Errorf("unknown String() = %q", Version(99).String())
	}
}

func TestExtractDimensions(t *testing.T) {
	p := windowPortrait(t, 1)
	for _, v := range Versions {
		f, err := Extract(v, p, portrait.DefaultGridSize)
		if err != nil {
			t.Fatalf("%s: %v", v, err)
		}
		if len(f) != v.Dim() {
			t.Errorf("%s: got %d features, want %d", v, len(f), v.Dim())
		}
		for i, val := range f {
			if math.IsNaN(val) || math.IsInf(val, 0) {
				t.Errorf("%s feature %d is %v", v, i, val)
			}
		}
	}
}

func TestParseVersion(t *testing.T) {
	for _, name := range []string{"Original", "Simplified", "Reduced"} {
		v, err := ParseVersion(name)
		if err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if v.String() != name {
			t.Errorf("ParseVersion(%q) = %v", name, v)
		}
	}
	for _, name := range []string{"nope", "", "original"} {
		if _, err := ParseVersion(name); err == nil || !strings.Contains(err.Error(), "unknown detector version") {
			t.Errorf("ParseVersion(%q) = %v, want an unknown-version error", name, err)
		}
	}
}

func TestExtractUnknownVersion(t *testing.T) {
	p := windowPortrait(t, 1)
	if _, err := Extract(Version(42), p, 50); err == nil {
		t.Error("unknown version should error")
	}
}

func TestExtractBadGrid(t *testing.T) {
	p := windowPortrait(t, 1)
	if _, err := Extract(Original, p, 0); err == nil {
		t.Error("zero grid should error")
	}
	if _, err := Extract(Simplified, p, -1); err == nil {
		t.Error("negative grid should error")
	}
}

func TestReducedIsGeometricTailOfSimplified(t *testing.T) {
	p := windowPortrait(t, 2)
	simp, err := Extract(Simplified, p, 50)
	if err != nil {
		t.Fatal(err)
	}
	red, err := Extract(Reduced, p, 50)
	if err != nil {
		t.Fatal(err)
	}
	for i := range red {
		if red[i] != simp[3+i] {
			t.Errorf("reduced[%d] = %v != simplified[%d] = %v", i, red[i], 3+i, simp[3+i])
		}
	}
}

func TestSimplifiedApproximatesOriginal(t *testing.T) {
	p := windowPortrait(t, 3)
	orig, err := Extract(Original, p, 50)
	if err != nil {
		t.Fatal(err)
	}
	simp, err := Extract(Simplified, p, 50)
	if err != nil {
		t.Fatal(err)
	}
	// Feature 0 (SFI) is identical by construction.
	if orig[0] != simp[0] {
		t.Errorf("SFI differs: %v vs %v", orig[0], simp[0])
	}
	// Variance = std², AUC forms agree on unit spacing.
	if math.Abs(simp[1]-orig[1]*orig[1]) > 1e-9 {
		t.Errorf("variance %v != std² %v", simp[1], orig[1]*orig[1])
	}
	if math.Abs(simp[2]-orig[2]) > 1e-9 {
		t.Errorf("simplified AUC %v != trapezoid %v", simp[2], orig[2])
	}
	// Squared distances must square the distances' ordering: both positive.
	for i := 5; i < 8; i++ {
		if orig[i] < 0 || simp[i] < 0 {
			t.Errorf("distance feature %d negative: %v / %v", i, orig[i], simp[i])
		}
	}
}

func TestFeaturesSeparateSubjects(t *testing.T) {
	// Feature vectors for the same subject across two windows should be
	// closer than vectors for different subjects — the core SIFT premise.
	subjects, err := physio.Cohort(2, 123)
	if err != nil {
		t.Fatal(err)
	}
	vec := func(s physio.Subject, seed int64) []float64 {
		rec, err := physio.Generate(s, 3, physio.DefaultSampleRate, seed)
		if err != nil {
			t.Fatal(err)
		}
		pairs := peaks.Pair(rec.RPeaks, rec.SystolicPeaks, int(rec.SampleRate))
		p, err := portrait.New(rec.ECG, rec.ABP, rec.RPeaks, rec.SystolicPeaks, pairs)
		if err != nil {
			t.Fatal(err)
		}
		f, err := Extract(Original, p, 50)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	a1 := vec(subjects[0], 1)
	a2 := vec(subjects[0], 2)
	b := vec(subjects[1], 1)
	dSame := l2(a1, a2)
	dDiff := l2(a1, b)
	if dSame >= dDiff {
		t.Errorf("same-subject distance %.4f >= cross-subject distance %.4f", dSame, dDiff)
	}
}

func l2(a, b []float64) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return math.Sqrt(s)
}

func TestEmptyPeaksYieldZeroGeometricFeatures(t *testing.T) {
	p, err := portrait.New([]float64{0, 1, 0.5}, []float64{1, 0, 0.5}, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	f, err := Extract(Original, p, 10)
	if err != nil {
		t.Fatal(err)
	}
	for i := 3; i < 8; i++ {
		if f[i] != 0 {
			t.Errorf("geometric feature %d = %v with no peaks, want 0", i, f[i])
		}
	}
}

func TestSlopeCapAtOrigin(t *testing.T) {
	// A peak point with x = 0 must produce the capped slope, not Inf.
	p, err := portrait.New([]float64{0, 1}, []float64{0, 1}, []int{1}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Peak index 1 is point (1,1) → slope 1; index 0 is (0,0) → x = 0.
	p2, err := portrait.New([]float64{1, 0}, []float64{0, 1}, []int{0}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	f, err := Extract(Reduced, p, 10)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(f[0]-1) > 1e-9 {
		t.Errorf("slope of (1,1) = %v, want 1", f[0])
	}
	f2, err := Extract(Reduced, p2, 10)
	if err != nil {
		t.Fatal(err)
	}
	if f2[0] != slopeCap {
		t.Errorf("slope at x=0 = %v, want cap %v", f2[0], slopeCap)
	}
}

// pointTrajectory is a trajectory whose points are pts as given.
func pointTrajectory(pts []portrait.Point) *trajectory {
	t := &trajectory{x: identity, y: identity}
	for _, p := range pts {
		t.abp = append(t.abp, p.X)
		t.ecg = append(t.ecg, p.Y)
	}
	return t
}

func TestMeanAngleKnownValues(t *testing.T) {
	tr := pointTrajectory([]portrait.Point{{X: 1, Y: 1}, {X: 0, Y: 1}})
	got := tr.mean([]int{0, 1}, angle)
	want := (math.Pi/4 + math.Pi/2) / 2
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("mean angle = %v, want %v", got, want)
	}
	if tr.mean(nil, angle) != 0 {
		t.Error("mean angle over no peaks should be 0")
	}
}

func TestMeanDistKnownValues(t *testing.T) {
	tr := pointTrajectory([]portrait.Point{{X: 3, Y: 4}, {X: 0, Y: 0}})
	if got := tr.mean([]int{0}, distOrigin); got != 5 {
		t.Errorf("mean distance to origin = %v, want 5", got)
	}
	if got := tr.mean([]int{0}, squaredDistOrigin); got != 25 {
		t.Errorf("mean squared distance to origin = %v, want 25", got)
	}
	pairs := [][2]int{{1, 0}}
	if got := tr.pairMean(pairs, pairDist); got != 5 {
		t.Errorf("mean pair distance = %v, want 5", got)
	}
	if got := tr.pairMean(pairs, squaredPairDist); got != 25 {
		t.Errorf("mean squared pair distance = %v, want 25", got)
	}
}

func TestExtractDeterministic(t *testing.T) {
	p := windowPortrait(t, 7)
	for _, v := range Versions {
		a, err := Extract(v, p, 50)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Extract(v, p, 50)
		if err != nil {
			t.Fatal(err)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Errorf("%s feature %d not deterministic", v, i)
			}
		}
	}
}
