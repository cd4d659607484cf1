package dsp

import (
	"fmt"
	"math"
	"slices"
)

// Biquad is a direct-form-I second-order IIR section with normalized a0=1.
type Biquad struct {
	B0, B1, B2 float64 // feedforward
	A1, A2     float64 // feedback (sign convention: y += b·x − a·y)

	x1, x2, y1, y2 float64
}

// Step filters one sample and returns the output, advancing filter state.
func (f *Biquad) Step(x float64) float64 {
	y := f.B0*x + f.B1*f.x1 + f.B2*f.x2 - f.A1*f.y1 - f.A2*f.y2
	f.x2, f.x1 = f.x1, x
	f.y2, f.y1 = f.y1, y
	return y
}

// Reset clears the filter state.
func (f *Biquad) Reset() { f.x1, f.x2, f.y1, f.y2 = 0, 0, 0, 0 }

// Apply filters a whole signal into a new slice, resetting state first.
func (f *Biquad) Apply(x []float64) []float64 {
	f.Reset()
	out := make([]float64, len(x))
	for i, v := range x {
		out[i] = f.Step(v)
	}
	return out
}

// LowPass designs a Butterworth-style low-pass biquad with cutoff fc (Hz)
// at sample rate fs via the bilinear transform (RBJ cookbook, Q = 1/√2).
func LowPass(fc, fs float64) (*Biquad, error) {
	if err := checkFreq(fc, fs); err != nil {
		return nil, err
	}
	w0 := 2 * math.Pi * fc / fs
	cosW, sinW := math.Cos(w0), math.Sin(w0)
	alpha := sinW / math.Sqrt2
	a0 := 1 + alpha
	return &Biquad{
		B0: (1 - cosW) / 2 / a0,
		B1: (1 - cosW) / a0,
		B2: (1 - cosW) / 2 / a0,
		A1: -2 * cosW / a0,
		A2: (1 - alpha) / a0,
	}, nil
}

// HighPass designs a Butterworth-style high-pass biquad with cutoff fc (Hz)
// at sample rate fs.
func HighPass(fc, fs float64) (*Biquad, error) {
	if err := checkFreq(fc, fs); err != nil {
		return nil, err
	}
	w0 := 2 * math.Pi * fc / fs
	cosW, sinW := math.Cos(w0), math.Sin(w0)
	alpha := sinW / math.Sqrt2
	a0 := 1 + alpha
	return &Biquad{
		B0: (1 + cosW) / 2 / a0,
		B1: -(1 + cosW) / a0,
		B2: (1 + cosW) / 2 / a0,
		A1: -2 * cosW / a0,
		A2: (1 - alpha) / a0,
	}, nil
}

// BandPass composes a high-pass at lo and a low-pass at hi into a cascade.
func BandPass(lo, hi, fs float64) (*Cascade, error) {
	hp, lp, err := BandPassSections(lo, hi, fs)
	if err != nil {
		return nil, err
	}
	return &Cascade{sections: []*Biquad{hp, lp}}, nil
}

// BandPassSections designs BandPass's two sections, the high-pass at lo
// and the low-pass at hi, for a caller that runs them itself.
func BandPassSections(lo, hi, fs float64) (hp, lp *Biquad, err error) {
	if lo >= hi {
		return nil, nil, fmt.Errorf("dsp: band edges inverted: lo %.3g >= hi %.3g", lo, hi)
	}
	if hp, err = HighPass(lo, fs); err != nil {
		return nil, nil, err
	}
	if lp, err = LowPass(hi, fs); err != nil {
		return nil, nil, err
	}
	return hp, lp, nil
}

func checkFreq(fc, fs float64) error {
	if fs <= 0 {
		return fmt.Errorf("dsp: sample rate must be positive, got %.3g", fs)
	}
	if fc <= 0 || fc >= fs/2 {
		return fmt.Errorf("dsp: cutoff %.3g Hz outside (0, %.3g)", fc, fs/2)
	}
	return nil
}

// Cascade chains biquad sections in series.
type Cascade struct {
	sections []*Biquad
}

// Step filters one sample through every section in order.
func (c *Cascade) Step(x float64) float64 {
	for _, s := range c.sections {
		x = s.Step(x)
	}
	return x
}

// Reset clears all section states.
func (c *Cascade) Reset() {
	for _, s := range c.sections {
		s.Reset()
	}
}

// Apply filters a whole signal into a new slice, resetting state first.
func (c *Cascade) Apply(x []float64) []float64 { return c.ApplyInto(nil, x) }

// ApplyInto is Apply writing into dst, which is grown when its capacity
// is short, and returns dst[:len(x)]. x and dst may be the same slice.
func (c *Cascade) ApplyInto(dst, x []float64) []float64 {
	c.Reset()
	dst = slices.Grow(dst[:0], len(x))[:len(x)]
	for i, v := range x {
		dst[i] = c.Step(v)
	}
	return dst
}
