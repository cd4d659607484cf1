// Package dsp provides the signal-processing substrate for the SIFT
// pipeline: normalization, moving statistics, simple IIR/FIR filters,
// differentiation, and resampling over float64 sample streams.
//
// These are host-side (training and gold-standard) routines; the emulated
// device consumes already-windowed, normalized snippets, as the Amulet app
// in the paper did.
package dsp

import (
	"errors"
	"fmt"
	"math"
	"slices"
)

// ErrEmptySignal is returned by operations that require at least one sample.
var ErrEmptySignal = errors.New("dsp: empty signal")

// MinMax returns the smallest and largest values in x.
// It returns ErrEmptySignal when x is empty.
func MinMax(x []float64) (minV, maxV float64, err error) {
	if len(x) == 0 {
		return 0, 0, ErrEmptySignal
	}
	minV, maxV = x[0], x[0]
	for _, v := range x[1:] {
		if v < minV {
			minV = v
		}
		if v > maxV {
			maxV = v
		}
	}
	return minV, maxV, nil
}

// Normalize rescales x into [0, 1] using min-max normalization, writing
// into a new slice. A constant signal normalizes to all zeros rather than
// dividing by zero.
func Normalize(x []float64) ([]float64, error) {
	minV, maxV, err := MinMax(x)
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(x))
	span := maxV - minV
	if span == 0 {
		return out, nil
	}
	for i, v := range x {
		out[i] = (v - minV) / span
	}
	return out, nil
}

// Mean returns the arithmetic mean of x, or 0 for an empty slice.
func Mean(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	var s float64
	for _, v := range x {
		s += v
	}
	return s / float64(len(x))
}

// Variance returns the population variance of x.
func Variance(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	m := Mean(x)
	var s float64
	for _, v := range x {
		d := v - m
		s += d * d
	}
	return s / float64(len(x))
}

// Std returns the population standard deviation of x.
func Std(x []float64) float64 { return math.Sqrt(Variance(x)) }

// RMS returns the root-mean-square of x.
func RMS(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	var s float64
	for _, v := range x {
		s += v * v
	}
	return math.Sqrt(s / float64(len(x)))
}

// MovingAverage returns the centered moving average of x with the given
// odd window size. Edges use the available (shorter) window. An even or
// non-positive window is an error.
func MovingAverage(x []float64, window int) ([]float64, error) {
	return MovingAverageInto(nil, x, window)
}

// MovingAverageInto is MovingAverage writing into dst, which is grown
// when its capacity is short, and returns dst[:len(x)]. It keeps one
// running sum, so the cost is O(len(x)) whatever the window.
func MovingAverageInto(dst, x []float64, window int) ([]float64, error) {
	if window <= 0 || window%2 == 0 {
		return nil, fmt.Errorf("dsp: moving average window must be positive and odd, got %d", window)
	}
	dst = slices.Grow(dst[:0], len(x))[:len(x)]
	n, half := len(x), window/2
	// s is the sum of the edge-clipped window x[i-half : i+half+1]. Each
	// step adds the sample entering on the right and drops the one
	// leaving on the left as one difference, with 0 standing in for the
	// side where none crosses. For i < enter a sample enters, for
	// i ≥ leave one leaves; the three loops split x at those bounds so no
	// step tests an edge.
	var s float64
	for _, v := range x[:min(half, n)] {
		s += v
	}
	enter, leave := max(n-half, 0), min(half+1, n)
	lo, hi := min(enter, leave), max(enter, leave)
	for i := 0; i < lo; i++ {
		s += x[i+half] - 0
		dst[i] = s / float64(i+half+1)
	}
	if enter > leave {
		for i := lo; i < hi; i++ {
			s += x[i+half] - x[i-half-1]
			dst[i] = s / float64(window)
		}
	} else {
		// The window covers all of x, so nothing enters or leaves. s
		// starts at +0 and so is never −0, which makes s + (0 − 0) = s.
		for i := lo; i < hi; i++ {
			dst[i] = s / float64(n)
		}
	}
	for i := hi; i < n; i++ {
		s += 0 - x[i-half-1]
		dst[i] = s / float64(n-(i-half))
	}
	return dst, nil
}

// Diff returns the first difference of x (length len(x)-1); an empty or
// single-sample input yields an empty slice.
func Diff(x []float64) []float64 {
	if len(x) < 2 {
		return nil
	}
	out := make([]float64, len(x)-1)
	for i := 1; i < len(x); i++ {
		out[i-1] = x[i] - x[i-1]
	}
	return out
}

// Square returns a new slice with every element squared.
func Square(x []float64) []float64 {
	out := make([]float64, len(x))
	for i, v := range x {
		out[i] = v * v
	}
	return out
}

// DetrendMean subtracts the mean from x in a new slice.
func DetrendMean(x []float64) []float64 {
	m := Mean(x)
	out := make([]float64, len(x))
	for i, v := range x {
		out[i] = v - m
	}
	return out
}

// Clip bounds every element of x to [lo, hi] in a new slice.
func Clip(x []float64, lo, hi float64) []float64 {
	out := make([]float64, len(x))
	for i, v := range x {
		switch {
		case v < lo:
			out[i] = lo
		case v > hi:
			out[i] = hi
		default:
			out[i] = v
		}
	}
	return out
}

// Trapezoid integrates y over unit-spaced samples with the trapezoidal
// rule, the Original feature set's AUC method.
func Trapezoid(y []float64) float64 {
	if len(y) < 2 {
		return 0
	}
	var area float64
	for i := 1; i < len(y); i++ {
		area += (y[i] + y[i-1]) / 2
	}
	return area
}

// SimplifiedAUC integrates y with the paper's simplified formula
// (b-a)/(2N) * Σ (f(x_n) + f(x_{n+1})), with [a,b] spanning the N
// unit-spaced intervals — algebraically the trapezoid rule with the
// interval width folded into one multiply, avoiding per-step division.
func SimplifiedAUC(y []float64) float64 {
	n := len(y) - 1
	if n < 1 {
		return 0
	}
	var s float64
	for i := 0; i < n; i++ {
		s += y[i] + y[i+1]
	}
	return float64(n) / (2 * float64(n)) * s
}
