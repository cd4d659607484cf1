package dsp

import (
	"fmt"
	"math"
	"math/cmplx"
)

// This file provides the spectral toolkit the paper's Insight #2 asks
// constrained platforms to offer ("built-in support for FFT or audio
// processing API, mathematical operations"): a radix-2 FFT, a power
// spectrum, and a spectral heart-rate estimator used as an independent
// cross-check on the time-domain peak detectors.

// FFT computes the in-order discrete Fourier transform of x using an
// iterative radix-2 Cooley–Tukey algorithm. The length must be a power of
// two (see NextPow2 / ZeroPad).
func FFT(x []complex128) ([]complex128, error) {
	n := len(x)
	if n == 0 || n&(n-1) != 0 {
		return nil, fmt.Errorf("dsp: FFT length %d is not a power of two", n)
	}
	out := make([]complex128, n)
	copy(out, x)

	// Bit-reversal permutation.
	for i, j := 1, 0; i < n; i++ {
		bit := n >> 1
		for ; j&bit != 0; bit >>= 1 {
			j ^= bit
		}
		j |= bit
		if i < j {
			out[i], out[j] = out[j], out[i]
		}
	}

	for length := 2; length <= n; length <<= 1 {
		ang := -2 * math.Pi / float64(length)
		wl := cmplx.Exp(complex(0, ang))
		for start := 0; start < n; start += length {
			w := complex(1, 0)
			half := length / 2
			for k := 0; k < half; k++ {
				u := out[start+k]
				v := out[start+k+half] * w
				out[start+k] = u + v
				out[start+k+half] = u - v
				w *= wl
			}
		}
	}
	return out, nil
}

// NextPow2 returns the smallest power of two >= n (minimum 1).
func NextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// ZeroPad copies x into a power-of-two-length complex slice.
func ZeroPad(x []float64) []complex128 {
	out := make([]complex128, NextPow2(len(x)))
	for i, v := range x {
		out[i] = complex(v, 0)
	}
	return out
}

// PowerSpectrum returns the one-sided power spectrum of x (DC through
// Nyquist) and the frequency step between bins.
func PowerSpectrum(x []float64, fs float64) (power []float64, df float64, err error) {
	if len(x) == 0 {
		return nil, 0, ErrEmptySignal
	}
	if fs <= 0 {
		return nil, 0, fmt.Errorf("dsp: sample rate %.3g must be positive", fs)
	}
	spec, err := FFT(ZeroPad(DetrendMean(x)))
	if err != nil {
		return nil, 0, err
	}
	n := len(spec)
	half := n/2 + 1
	power = make([]float64, half)
	for i := 0; i < half; i++ {
		power[i] = cmplx.Abs(spec[i]) * cmplx.Abs(spec[i]) / float64(n)
	}
	return power, fs / float64(n), nil
}

// SpectralHeartRate estimates the heart rate (bpm) of a cardiac signal
// from the dominant spectral peak in the physiological band (0.6–4 Hz,
// i.e. 36–240 bpm) — the frequency-domain cross-check on the
// time-domain peak detectors.
func SpectralHeartRate(x []float64, fs float64) (float64, error) {
	power, df, err := PowerSpectrum(x, fs)
	if err != nil {
		return 0, err
	}
	loBin := int(math.Ceil(0.6 / df))
	hiBin := int(math.Floor(4.0 / df))
	if hiBin >= len(power) {
		hiBin = len(power) - 1
	}
	if loBin >= hiBin {
		return 0, fmt.Errorf("dsp: record too short to resolve the cardiac band (df = %.3f Hz)", df)
	}
	best := loBin
	for i := loBin + 1; i <= hiBin; i++ {
		if power[i] > power[best] {
			best = i
		}
	}
	return float64(best) * df * 60, nil
}
