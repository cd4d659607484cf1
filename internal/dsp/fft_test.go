package dsp

import (
	"math"
	"math/cmplx"
	"testing"
	"testing/quick"
)

func TestFFTKnownValues(t *testing.T) {
	// FFT of a constant: all energy in DC.
	x := []complex128{1, 1, 1, 1}
	got, err := FFT(x)
	if err != nil {
		t.Fatal(err)
	}
	if cmplx.Abs(got[0]-4) > 1e-12 {
		t.Errorf("DC bin = %v, want 4", got[0])
	}
	for i := 1; i < 4; i++ {
		if cmplx.Abs(got[i]) > 1e-12 {
			t.Errorf("bin %d = %v, want 0", i, got[i])
		}
	}
}

func TestFFTSingleTone(t *testing.T) {
	const n = 64
	x := make([]complex128, n)
	k := 5
	for i := 0; i < n; i++ {
		x[i] = complex(math.Cos(2*math.Pi*float64(k*i)/n), 0)
	}
	spec, err := FFT(x)
	if err != nil {
		t.Fatal(err)
	}
	// Energy concentrated in bins k and n-k.
	for i := 0; i < n; i++ {
		mag := cmplx.Abs(spec[i])
		if i == k || i == n-k {
			if math.Abs(mag-float64(n)/2) > 1e-9 {
				t.Errorf("bin %d magnitude = %v, want %v", i, mag, float64(n)/2)
			}
		} else if mag > 1e-9 {
			t.Errorf("bin %d magnitude = %v, want 0", i, mag)
		}
	}
}

func TestFFTInvalidLength(t *testing.T) {
	for _, n := range []int{0, 3, 5, 6, 7, 100} {
		if _, err := FFT(make([]complex128, n)); err == nil {
			t.Errorf("length %d should error", n)
		}
	}
}

func TestQuickFFTParseval(t *testing.T) {
	f := func(raw []float64) bool {
		clean := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) && math.Abs(v) < 1e6 {
				clean = append(clean, v)
			}
		}
		if len(clean) < 2 {
			return true
		}
		x := ZeroPad(clean)
		spec, err := FFT(x)
		if err != nil {
			return false
		}
		var timeE, freqE float64
		for _, v := range x {
			timeE += real(v)*real(v) + imag(v)*imag(v)
		}
		for _, v := range spec {
			freqE += cmplx.Abs(v) * cmplx.Abs(v)
		}
		freqE /= float64(len(x))
		return math.Abs(timeE-freqE) <= 1e-6*(1+timeE)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNextPow2(t *testing.T) {
	cases := map[int]int{0: 1, 1: 1, 2: 2, 3: 4, 4: 4, 5: 8, 1000: 1024, 1080: 2048}
	for in, want := range cases {
		if got := NextPow2(in); got != want {
			t.Errorf("NextPow2(%d) = %d, want %d", in, got, want)
		}
	}
}

func TestPowerSpectrumTone(t *testing.T) {
	const fs = 360.0
	n := 2048
	x := make([]float64, n)
	freq := 2.0
	for i := range x {
		x[i] = math.Sin(2 * math.Pi * freq * float64(i) / fs)
	}
	power, df, err := PowerSpectrum(x, fs)
	if err != nil {
		t.Fatal(err)
	}
	best := 1
	for i := 2; i < len(power); i++ {
		if power[i] > power[best] {
			best = i
		}
	}
	if got := float64(best) * df; math.Abs(got-freq) > 2*df {
		t.Errorf("spectral peak at %.3f Hz, want %.3f", got, freq)
	}
}

func TestPowerSpectrumValidation(t *testing.T) {
	if _, _, err := PowerSpectrum(nil, 360); err == nil {
		t.Error("empty input should error")
	}
	if _, _, err := PowerSpectrum([]float64{1, 2}, 0); err == nil {
		t.Error("zero rate should error")
	}
}

func TestSpectralHeartRateTone(t *testing.T) {
	// A pure 1.2 Hz "cardiac" oscillation = 72 bpm.
	const fs = 360.0
	n := int(30 * fs)
	x := make([]float64, n)
	for i := range x {
		x[i] = math.Sin(2 * math.Pi * 1.2 * float64(i) / fs)
	}
	bpm, err := SpectralHeartRate(x, fs)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(bpm-72) > 3 {
		t.Errorf("spectral HR = %.1f bpm, want ≈72", bpm)
	}
}

func TestSpectralHeartRateTooShort(t *testing.T) {
	if _, err := SpectralHeartRate(make([]float64, 16), 360); err == nil {
		t.Error("unresolvable band should error")
	}
}
