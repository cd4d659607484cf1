package dsp

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMinMax(t *testing.T) {
	minV, maxV, err := MinMax([]float64{3, -1, 7, 0})
	if err != nil {
		t.Fatal(err)
	}
	if minV != -1 || maxV != 7 {
		t.Errorf("MinMax = (%v, %v), want (-1, 7)", minV, maxV)
	}
}

func TestMinMaxEmpty(t *testing.T) {
	if _, _, err := MinMax(nil); !errors.Is(err, ErrEmptySignal) {
		t.Errorf("MinMax(nil) err = %v, want ErrEmptySignal", err)
	}
}

func TestNormalizeRange(t *testing.T) {
	out, err := Normalize([]float64{2, 4, 6, 10})
	if err != nil {
		t.Fatal(err)
	}
	if out[0] != 0 || out[len(out)-1] != 1 {
		t.Errorf("Normalize endpoints = %v, %v", out[0], out[len(out)-1])
	}
	if !almostEqual(out[1], 0.25, 1e-12) {
		t.Errorf("Normalize[1] = %v, want 0.25", out[1])
	}
}

func TestNormalizeConstant(t *testing.T) {
	out, err := Normalize([]float64{5, 5, 5})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != 0 {
			t.Errorf("constant normalize[%d] = %v, want 0", i, v)
		}
	}
}

func TestNormalizeEmpty(t *testing.T) {
	if _, err := Normalize(nil); !errors.Is(err, ErrEmptySignal) {
		t.Errorf("err = %v, want ErrEmptySignal", err)
	}
}

func TestMeanVarianceStd(t *testing.T) {
	x := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(x); got != 5 {
		t.Errorf("Mean = %v, want 5", got)
	}
	if got := Variance(x); got != 4 {
		t.Errorf("Variance = %v, want 4", got)
	}
	if got := Std(x); got != 2 {
		t.Errorf("Std = %v, want 2", got)
	}
	if Mean(nil) != 0 || Variance(nil) != 0 {
		t.Error("empty stats should be 0")
	}
}

func TestRMS(t *testing.T) {
	if got := RMS([]float64{3, -3, 3, -3}); got != 3 {
		t.Errorf("RMS = %v, want 3", got)
	}
	if RMS(nil) != 0 {
		t.Error("RMS(nil) should be 0")
	}
}

func TestMovingAverage(t *testing.T) {
	out, err := MovingAverage([]float64{1, 2, 3, 4, 5}, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1.5, 2, 3, 4, 4.5}
	for i := range want {
		if !almostEqual(out[i], want[i], 1e-12) {
			t.Errorf("MovingAverage[%d] = %v, want %v", i, out[i], want[i])
		}
	}
}

// movingAverageNaive is the O(n·w) oracle for MovingAverage: every
// output re-sums its whole edge-clipped window from scratch.
func movingAverageNaive(x []float64, window int) []float64 {
	half := window / 2
	out := make([]float64, len(x))
	for i := range x {
		lo, hi := max(i-half, 0), min(i+half+1, len(x))
		var s float64
		for _, v := range x[lo:hi] {
			s += v
		}
		out[i] = s / float64(hi-lo)
	}
	return out
}

// movingAverageBranchy is the running sum with its edges tested per
// sample, as one loop: the form MovingAverageInto's three edge-free loops
// must reproduce bit for bit.
func movingAverageBranchy(x []float64, window int) []float64 {
	dst := make([]float64, len(x))
	half := window / 2
	var s float64
	for _, v := range x[:min(half, len(x))] {
		s += v
	}
	for i := range x {
		var in, out float64
		if j := i + half; j < len(x) {
			in = x[j]
		}
		if j := i - half - 1; j >= 0 {
			out = x[j]
		}
		s += in - out
		dst[i] = s / float64(min(i+half+1, len(x))-max(i-half, 0))
	}
	return dst
}

// TestMovingAverageMatchesNaive property-tests the running sum against the
// naive oracle: random lengths (0 and 1 included), windows wider than,
// equal to and one short of the signal, signed and non-negative inputs
// over many magnitudes, and a destination buffer reused across calls of
// different lengths. It also holds the output bit-exact to the per-sample
// branching form of the same running sum.
func TestMovingAverageMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var dst []float64
	check := func(x []float64, window int) {
		t.Helper()
		want := movingAverageNaive(x, window)
		got, err := MovingAverageInto(dst, x, window)
		if err != nil {
			t.Fatal(err)
		}
		dst = got
		alloc, err := MovingAverage(x, window)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(x) || len(alloc) != len(x) {
			t.Fatalf("len(x)=%d window=%d: lengths %d/%d", len(x), window, len(got), len(alloc))
		}
		var scale float64
		for _, v := range x {
			scale = max(scale, math.Abs(v))
		}
		branchy := movingAverageBranchy(x, window)
		for i := range want {
			if !almostEqual(got[i], want[i], 1e-12*scale) || alloc[i] != got[i] {
				t.Fatalf("len(x)=%d window=%d: [%d] = %v (alloc %v), oracle %v",
					len(x), window, i, got[i], alloc[i], want[i])
			}
			if math.Float64bits(got[i]) != math.Float64bits(branchy[i]) {
				t.Fatalf("len(x)=%d window=%d: [%d] = %v, branching form %v", len(x), window, i, got[i], branchy[i])
			}
		}
	}
	for _, n := range []int{0, 1, 2, 3, 5, 6, 54, 55, 56, 57} {
		for _, w := range []int{1, 3, 5, 55} {
			x := make([]float64, n)
			for i := range x {
				x[i] = rng.NormFloat64()
			}
			check(x, w)
		}
	}
	for trial := 0; trial < 3000; trial++ {
		x := make([]float64, rng.Intn(400))
		scale := math.Pow(10, float64(rng.Intn(13)-6))
		squared := rng.Intn(2) == 0
		for i := range x {
			v := scale * rng.NormFloat64()
			if squared {
				v *= v
			}
			x[i] = v
		}
		check(x, 2*rng.Intn(120)+1)
	}
}

func TestMovingAverageBadWindow(t *testing.T) {
	for _, w := range []int{0, -1, 2, 4} {
		if _, err := MovingAverage([]float64{1}, w); err == nil {
			t.Errorf("window %d should error", w)
		}
	}
}

func TestDiff(t *testing.T) {
	out := Diff([]float64{1, 4, 9, 16})
	want := []float64{3, 5, 7}
	if len(out) != len(want) {
		t.Fatalf("Diff length = %d, want %d", len(out), len(want))
	}
	for i := range want {
		if out[i] != want[i] {
			t.Errorf("Diff[%d] = %v, want %v", i, out[i], want[i])
		}
	}
	if Diff([]float64{1}) != nil {
		t.Error("Diff of single sample should be nil")
	}
}

func TestSquareClipDetrend(t *testing.T) {
	sq := Square([]float64{-2, 3})
	if sq[0] != 4 || sq[1] != 9 {
		t.Errorf("Square = %v", sq)
	}
	cl := Clip([]float64{-5, 0.5, 5}, 0, 1)
	if cl[0] != 0 || cl[1] != 0.5 || cl[2] != 1 {
		t.Errorf("Clip = %v", cl)
	}
	dt := DetrendMean([]float64{1, 2, 3})
	if Mean(dt) != 0 {
		t.Errorf("DetrendMean mean = %v, want 0", Mean(dt))
	}
}

func TestTrapezoid(t *testing.T) {
	// y = x over [0,3]: area 4.5.
	if got := Trapezoid([]float64{0, 1, 2, 3}); got != 4.5 {
		t.Errorf("Trapezoid = %v, want 4.5", got)
	}
	if Trapezoid([]float64{1}) != 0 {
		t.Error("Trapezoid of one sample should be 0")
	}
}

func TestSimplifiedAUCEqualsTrapezoid(t *testing.T) {
	y := []float64{0, 2, 1, 3, 2, 5}
	if got, want := SimplifiedAUC(y), Trapezoid(y); !almostEqual(got, want, 1e-12) {
		t.Errorf("SimplifiedAUC = %v, Trapezoid = %v; should agree on unit spacing", got, want)
	}
}

func TestQuickNormalizeBounds(t *testing.T) {
	f := func(x []float64) bool {
		clean := make([]float64, 0, len(x))
		for _, v := range x {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				clean = append(clean, v)
			}
		}
		if len(clean) == 0 {
			return true
		}
		out, err := Normalize(clean)
		if err != nil {
			return false
		}
		for _, v := range out {
			if v < 0 || v > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickVarianceNonNegative(t *testing.T) {
	f := func(x []float64) bool {
		for _, v := range x {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e100 {
				return true
			}
		}
		return Variance(x) >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLowPassAttenuatesHighFreq(t *testing.T) {
	const fs = 360.0
	lp, err := LowPass(10, fs)
	if err != nil {
		t.Fatal(err)
	}
	// A 100 Hz tone should be strongly attenuated; a 1 Hz tone passed.
	n := 2000
	hi := make([]float64, n)
	lo := make([]float64, n)
	for i := 0; i < n; i++ {
		tm := float64(i) / fs
		hi[i] = math.Sin(2 * math.Pi * 100 * tm)
		lo[i] = math.Sin(2 * math.Pi * 1 * tm)
	}
	hiOut := lp.Apply(hi)
	loOut := lp.Apply(lo)
	// Skip the transient.
	if r := RMS(hiOut[500:]) / RMS(hi[500:]); r > 0.1 {
		t.Errorf("100 Hz attenuation ratio = %v, want < 0.1", r)
	}
	if r := RMS(loOut[500:]) / RMS(lo[500:]); r < 0.9 {
		t.Errorf("1 Hz pass ratio = %v, want > 0.9", r)
	}
}

func TestHighPassRemovesDC(t *testing.T) {
	const fs = 360.0
	hp, err := HighPass(0.5, fs)
	if err != nil {
		t.Fatal(err)
	}
	n := 4000
	x := make([]float64, n)
	for i := range x {
		x[i] = 10 // pure DC
	}
	out := hp.Apply(x)
	if math.Abs(out[n-1]) > 0.1 {
		t.Errorf("DC residue = %v, want ~0", out[n-1])
	}
}

func TestBandPassValidation(t *testing.T) {
	if _, err := BandPass(20, 5, 360); err == nil {
		t.Error("inverted band edges should error")
	}
	if _, err := BandPass(5, 20, 360); err != nil {
		t.Errorf("valid band errored: %v", err)
	}
	if _, err := LowPass(500, 360); err == nil {
		t.Error("cutoff above Nyquist should error")
	}
	if _, err := LowPass(10, 0); err == nil {
		t.Error("zero sample rate should error")
	}
}

func TestCascadeApplyResets(t *testing.T) {
	c, err := BandPass(5, 15, 360)
	if err != nil {
		t.Fatal(err)
	}
	x := []float64{1, 0, 0, 0, 0}
	a := c.Apply(x)
	b := c.Apply(x)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("Apply not deterministic after reset: %v vs %v", a, b)
		}
	}
}

// TestCascadeApplyIntoMatchesStep holds ApplyInto bit-exact to repeated
// Step for one, two and three sections, in place
// and across calls that must each start from reset state.
func TestCascadeApplyIntoMatchesStep(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	design := func() []*Biquad {
		hp, err := HighPass(5, 360)
		if err != nil {
			t.Fatal(err)
		}
		lp, err := LowPass(15, 360)
		if err != nil {
			t.Fatal(err)
		}
		lp2, err := LowPass(40, 360)
		if err != nil {
			t.Fatal(err)
		}
		return []*Biquad{hp, lp, lp2}
	}
	for sections := 1; sections <= 3; sections++ {
		c := &Cascade{sections: design()[:sections]}
		ref := &Cascade{sections: design()[:sections]}
		var dst []float64
		for trial := 0; trial < 20; trial++ {
			x := make([]float64, rng.Intn(1200))
			for i := range x {
				x[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(7)-3))
			}
			ref.Reset()
			want := make([]float64, len(x))
			for i, v := range x {
				want[i] = ref.Step(v)
			}
			if trial%2 == 0 {
				dst = c.ApplyInto(dst, x)
			} else {
				dst = c.ApplyInto(x, x)
			}
			for i := range want {
				if math.Float64bits(dst[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%d sections, trial %d: [%d] = %v, Step gives %v", sections, trial, i, dst[i], want[i])
				}
			}
			for k, s := range c.sections {
				if *s != *ref.sections[k] {
					t.Fatalf("%d sections, trial %d: section %d state %+v, Step leaves %+v", sections, trial, k, *s, *ref.sections[k])
				}
			}
		}
	}
}

func TestResample(t *testing.T) {
	// Linear ramp resamples exactly under linear interpolation.
	x := []float64{0, 1, 2, 3, 4}
	out, err := Resample(x, 4, 8)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		want := float64(i) * 0.5
		if !almostEqual(v, want, 1e-9) {
			t.Errorf("Resample[%d] = %v, want %v", i, v, want)
		}
	}
}

func TestResampleEdgeCases(t *testing.T) {
	if _, err := Resample(nil, 100, 100); !errors.Is(err, ErrEmptySignal) {
		t.Error("empty resample should error")
	}
	if _, err := Resample([]float64{1}, 0, 100); err == nil {
		t.Error("zero input rate should error")
	}
	out, err := Resample([]float64{7}, 100, 50)
	if err != nil || len(out) != 1 || out[0] != 7 {
		t.Errorf("single-sample resample = %v, %v", out, err)
	}
}

func TestResampleDownThenLengthMatches(t *testing.T) {
	x := make([]float64, 361) // 1 s at 360 Hz (inclusive endpoints)
	out, err := Resample(x, 360, 250)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 251 {
		t.Errorf("downsampled length = %d, want 251", len(out))
	}
}

func BenchmarkMovingAverage(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := make([]float64, 1079) // one 3 s window's squared derivative at 360 Hz
	for i := range x {
		x[i] = rng.Float64()
	}
	dst := make([]float64, len(x))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst, _ = MovingAverageInto(dst, x, 55)
	}
}
