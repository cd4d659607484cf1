// Package physio synthesizes coupled electrocardiogram (ECG) and arterial
// blood pressure (ABP) signals.
//
// The paper evaluates SIFT on 12 subjects from the MIT PhysioBank Fantasia
// database, chosen because both ECG and ABP are available. That data is
// not redistributable here, so this package implements the closest
// synthetic equivalent: a per-subject cardiac process (a beat train with
// heart-rate variability) that drives BOTH an ECGSYN-style Gaussian-wave
// ECG model and a Windkessel-style ABP pulse model. This preserves the two
// properties SIFT depends on:
//
//  1. ECG and ABP from one subject are manifestations of the same
//     underlying cardiac process (beat-locked, with a realistic pulse
//     transit delay), so their joint "portrait" has a stable shape; and
//  2. morphology differs across subjects (wave amplitudes, widths, heart
//     rate, pressure dynamics are per-subject parameters), so replacing a
//     subject's ECG with another's perturbs that shape.
package physio

import (
	"fmt"
	"math"
	"math/rand"
)

// DefaultSampleRate is the sampling rate used throughout the reproduction:
// 360 Hz makes the paper's 3-second window exactly the 1080-sample arrays
// described in Insight #1.
const DefaultSampleRate = 360.0

// MaxSpanSec is the longest recording Generate synthesizes: one day.
// At DefaultSampleRate that is 31.1 M samples per channel, about 500 MB
// for ECG and ABP together; Generate caps the sample count at that
// figure, since a longer span would exhaust memory or overflow the
// sample count before any signal is made.
const MaxSpanSec = 24 * 60 * 60

// Wave is one Gaussian component of the ECG morphology (one of P, Q, R, S,
// T), positioned at phase Theta (radians, R peak at 0) with amplitude
// Amp (mV) and width B (radians).
type Wave struct {
	Theta float64
	Amp   float64
	B     float64
}

// Subject holds the per-person physiological parameters. Two subjects with
// different parameters produce visibly different ECG and ABP morphology,
// which is what makes the substitution attack detectable.
type Subject struct {
	ID  string
	Age int

	// Cardiac rhythm.
	HeartRate  float64 // mean beats per minute
	HRVLowFreq float64 // fractional RR modulation at ~0.1 Hz (Mayer waves)
	HRVNoise   float64 // fractional white RR jitter per beat

	// ECG morphology: P, Q, R, S, T waves.
	Waves []Wave

	// ABP dynamics.
	Systolic   float64 // peak pressure, mmHg
	Diastolic  float64 // trough pressure, mmHg
	TransitLag float64 // pulse transit delay from R peak to ABP foot, seconds
	PeakFrac   float64 // fraction of the beat at which the systolic peak occurs
	DecayRate  float64 // diastolic exponential decay constant (per beat fraction)
	NotchDepth float64 // dicrotic notch bump amplitude (fraction of pulse pressure)
	NotchFrac  float64 // fraction of the beat at which the dicrotic notch occurs

	// Measurement noise (standard deviation, in signal units).
	ECGNoise float64
	ABPNoise float64
}

// Validate reports whether the subject parameters are physiologically and
// numerically sane for the generator. Every comparison is written so that
// NaN fails it, and every field must be finite; the bound that lets the
// generator skip a wave term (termBound) holds only for a finite
// amplitude.
func (s *Subject) Validate() error {
	switch {
	case !(s.HeartRate >= 20 && s.HeartRate <= 250):
		return fmt.Errorf("physio: subject %s: heart rate %.1f bpm out of range", s.ID, s.HeartRate)
	case len(s.Waves) == 0:
		return fmt.Errorf("physio: subject %s: no ECG waves", s.ID)
	case !(s.Systolic > s.Diastolic):
		return fmt.Errorf("physio: subject %s: systolic %.1f <= diastolic %.1f", s.ID, s.Systolic, s.Diastolic)
	case !(s.PeakFrac > 0 && s.PeakFrac < 1):
		return fmt.Errorf("physio: subject %s: peak fraction %.3f outside (0,1)", s.ID, s.PeakFrac)
	case !(s.TransitLag >= 0):
		return fmt.Errorf("physio: subject %s: transit lag %.3g s must not be negative", s.ID, s.TransitLag)
	}
	for i, w := range s.Waves {
		if !(w.B > 0) {
			return fmt.Errorf("physio: subject %s: wave %d width %.3g must be positive", s.ID, i, w.B)
		}
		if !finite(w.Theta, w.Amp, w.B) {
			return fmt.Errorf("physio: subject %s: wave %d has a non-finite parameter", s.ID, i)
		}
	}
	if !finite(s.HeartRate, s.HRVLowFreq, s.HRVNoise, s.Systolic, s.Diastolic, s.TransitLag,
		s.PeakFrac, s.DecayRate, s.NotchDepth, s.NotchFrac, s.ECGNoise, s.ABPNoise) {
		return fmt.Errorf("physio: subject %s: non-finite parameter", s.ID)
	}
	return nil
}

// finite reports whether every value is neither infinite nor NaN.
func finite(vs ...float64) bool {
	for _, v := range vs {
		if math.IsInf(v, 0) || math.IsNaN(v) {
			return false
		}
	}
	return true
}

// DefaultWaves returns a textbook PQRST morphology (amplitudes in mV,
// positions per the ECGSYN defaults).
func DefaultWaves() []Wave {
	return []Wave{
		{Theta: -math.Pi / 3, Amp: 0.12, B: 0.25},  // P
		{Theta: -math.Pi / 12, Amp: -0.15, B: 0.1}, // Q
		{Theta: 0, Amp: 1.0, B: 0.1},               // R
		{Theta: math.Pi / 12, Amp: -0.25, B: 0.1},  // S
		{Theta: math.Pi / 2, Amp: 0.3, B: 0.4},     // T
	}
}

// DefaultSubject returns a nominal healthy adult, useful for examples.
func DefaultSubject() Subject {
	return Subject{
		ID:         "default",
		Age:        45,
		HeartRate:  70,
		HRVLowFreq: 0.03,
		HRVNoise:   0.02,
		Waves:      DefaultWaves(),
		Systolic:   120,
		Diastolic:  78,
		TransitLag: 0.20,
		PeakFrac:   0.22,
		DecayRate:  2.2,
		NotchDepth: 0.12,
		NotchFrac:  0.45,
		ECGNoise:   0.01,
		ABPNoise:   0.4,
	}
}

// Record is a synchronously sampled ECG+ABP recording with generator
// ground truth for the characteristic points.
type Record struct {
	SubjectID  string
	SampleRate float64
	ECG        []float64 // millivolts
	ABP        []float64 // mmHg

	// Ground-truth characteristic point sample indices, in order. The
	// paper pre-stores exactly these ("peak indexes") on the Amulet.
	RPeaks        []int
	SystolicPeaks []int
}

// Duration returns the record length in seconds.
func (r *Record) Duration() float64 {
	if r.SampleRate == 0 {
		return 0
	}
	return float64(len(r.ECG)) / r.SampleRate
}

// Slice returns the sub-record covering sample indices [lo, hi), with peak
// indices re-based; peaks outside the range are dropped.
func (r *Record) Slice(lo, hi int) (*Record, error) {
	if lo < 0 || hi > len(r.ECG) || lo >= hi {
		return nil, fmt.Errorf("physio: slice [%d,%d) out of bounds for %d samples", lo, hi, len(r.ECG))
	}
	out := &Record{
		SubjectID:  r.SubjectID,
		SampleRate: r.SampleRate,
		ECG:        r.ECG[lo:hi],
		ABP:        r.ABP[lo:hi],
	}
	for _, p := range r.RPeaks {
		if p >= lo && p < hi {
			out.RPeaks = append(out.RPeaks, p-lo)
		}
	}
	for _, p := range r.SystolicPeaks {
		if p >= lo && p < hi {
			out.SystolicPeaks = append(out.SystolicPeaks, p-lo)
		}
	}
	return out, nil
}

// Generate synthesizes a record of the given duration for the subject.
// The same (subject, duration, fs, seed) always produces the same record.
func Generate(s Subject, durationSec, fs float64, seed int64) (*Record, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	// Written so that NaN fails; a huge or infinite product would size
	// the sample arrays out of range.
	if !(durationSec > 0 && durationSec <= MaxSpanSec && fs > 0 && durationSec*fs <= MaxSpanSec*DefaultSampleRate) {
		return nil, fmt.Errorf("physio: duration %.3g s and rate %.3g Hz must be positive, with at most %d s and %d samples",
			durationSec, fs, MaxSpanSec, int(MaxSpanSec*DefaultSampleRate))
	}
	rng := rand.New(rand.NewSource(seed))
	n := int(durationSec * fs)
	rec := &Record{
		SubjectID:  s.ID,
		SampleRate: fs,
		ECG:        make([]float64, n),
		ABP:        make([]float64, n),
	}

	beats := beatTrain(s, durationSec, rng)
	synthesizeECG(rec, s, beats, rng)
	synthesizeABP(rec, s, beats, rng)
	return rec, nil
}

// beatTrain produces R-peak times (seconds) covering [−1 beat, duration+1
// beat] so edge samples have neighbors on both sides.
func beatTrain(s Subject, durationSec float64, rng *rand.Rand) []float64 {
	meanRR := 60.0 / s.HeartRate
	var times []float64
	t := -meanRR // one beat of lead-in
	for t < durationSec+meanRR {
		times = append(times, t)
		// Low-frequency (Mayer wave, ~0.1 Hz) modulation plus white jitter.
		mod := 1 + s.HRVLowFreq*math.Sin(2*math.Pi*0.1*t) + s.HRVNoise*rng.NormFloat64()
		rr := meanRR * clampF(mod, 0.6, 1.6)
		t += rr
	}
	return times
}

func clampF(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// synthesizeECG fills rec.ECG and rec.RPeaks from the beat train.
func synthesizeECG(rec *Record, s Subject, beats []float64, rng *rand.Rand) {
	fs := rec.SampleRate
	n := len(rec.ECG)
	waves := newWaveSum(s.Waves)
	next := 0 // first beat at or after t, or the last beat; t only grows
	for i := 0; i < n; i++ {
		t := float64(i) / fs
		for next < len(beats)-1 && beats[next] < t {
			next++
		}
		// The nearest beat is next or the one before it.
		k := next
		if k > 0 && t-beats[k-1] < beats[k]-t {
			k--
		}
		// Local RR: distance between surrounding beats.
		rr := localRR(beats, k)
		theta := 2 * math.Pi * (t - beats[k]) / rr
		v := waves.at(theta)
		// Baseline wander (respiratory, ~0.25 Hz) and measurement noise.
		v += 0.03 * math.Sin(2*math.Pi*0.25*t)
		v += s.ECGNoise * rng.NormFloat64()
		rec.ECG[i] = v
	}
	for _, bt := range beats {
		idx := int(math.Round(bt * fs))
		if idx >= 0 && idx < n {
			rec.RPeaks = append(rec.RPeaks, idx)
		}
	}
}

// waveSum evaluates the ECG's Gaussian wave sum at a phase θ: the left
// fold 0 + t₀ + t₁ + … over the waves, tₖ = Ampₖ·exp(−d²/2Bₖ²) with
// d = θ − Thetaₖ, bit for bit, without calling exp for a term that
// cannot change the sum. A term whose bound (termBound) lies below a
// quarter ulp of the running sum rounds away to nearest, so it is
// skipped. The term with the largest bound is evaluated first; when the
// bound on the fold of the terms before it lies below a quarter ulp of
// it, that fold would round away too and is not computed.
type waveSum struct {
	waves []Wave
	amp   []float64 // per wave, e with |Amp| < 2^e
	x     []float64 // per wave, exp's argument at the current phase
	bound []float64 // per wave, termBound at the current phase
	// fold is the extra exponent on the fold of up to n terms: the n
	// bounds add up to at most 2^⌈log2 n⌉ times the largest, and the
	// rounding of up to n additions to less than another factor of 2.
	fold float64
}

func newWaveSum(waves []Wave) *waveSum {
	n := len(waves)
	w := &waveSum{
		waves: waves,
		amp:   make([]float64, n),
		x:     make([]float64, n),
		bound: make([]float64, n),
		fold:  math.Ceil(math.Log2(float64(n))) + 1,
	}
	for k, wv := range waves {
		w.amp[k] = ampExp(wv.Amp)
	}
	return w
}

// at returns the wave sum at phase theta.
func (w *waveSum) at(theta float64) float64 {
	top := 0
	for k, wv := range w.waves {
		d := theta - wv.Theta
		x := -d * d / (2 * wv.B * wv.B)
		w.x[k] = x
		w.bound[k] = termBound(x, w.amp[k])
		if w.bound[k] > w.bound[top] {
			top = k
		}
	}
	t := w.term(top)
	var v float64
	if !w.foldAbsorbed(t, top) {
		for k := 0; k < top; k++ {
			v = w.add(v, k)
		}
	}
	v += t
	for k := top + 1; k < len(w.waves); k++ {
		v = w.add(v, k)
	}
	return v
}

// foldAbsorbed reports whether the fold of the first top terms is below
// a quarter ulp of t, so that adding t to it returns t: it is when each
// of their bounds is, less the fold's margin.
func (w *waveSum) foldAbsorbed(t float64, top int) bool {
	limit := absorbLimit(t) - w.fold
	for k := 0; k < top; k++ {
		if !(w.bound[k] < limit) {
			return false
		}
	}
	return true
}

// add returns v + tₖ, evaluating tₖ only when it can change v.
func (w *waveSum) add(v float64, k int) float64 {
	if w.bound[k] < absorbLimit(v) {
		return v
	}
	return v + w.term(k)
}

// term evaluates tₖ. The conversion rounds the product, so no platform
// fuses it into the sum it joins.
func (w *waveSum) term(k int) float64 {
	return float64(w.waves[k].Amp * math.Exp(w.x[k]))
}

// ampExp returns e with |a| < 2^e for a finite amplitude a, as Validate
// guarantees.
func ampExp(a float64) float64 {
	_, e := math.Frexp(a)
	return float64(e)
}

// termBound returns b with |float64(a·exp(x))| ≤ 2^b, for x ≤ 0 and
// |a| < 2^e, without calling exp; b is NaN when x is. It holds for any
// exp within 8 ulp of e^x. Below 2^−1070 the bound stays at 2^−1070, so
// that a subnormal result with an error of a few of its ulp is covered;
// one bit of margin covers exp's relative error and the error of
// x·log2(e), and two more the rounding of the product, subnormal
// included.
func termBound(x, e float64) float64 {
	y := float64(x * math.Log2E)
	if y < -1070 {
		y = -1070
	}
	return e + y + 3
}

// absorbLimit returns L such that adding any t with |t| < 2^L to v
// returns v under round-to-nearest: a quarter ulp of v, 2^(E−1077) for
// v's biased exponent E. It is −Inf when v is zero, subnormal or not
// finite, so that nothing is absorbed.
func absorbLimit(v float64) float64 {
	e := int(math.Float64bits(v) >> 52 & 0x7ff)
	if e == 0 || e == 0x7ff {
		return math.Inf(-1)
	}
	return float64(e) - 1077
}

func localRR(beats []float64, k int) float64 {
	switch {
	case k+1 < len(beats):
		return beats[k+1] - beats[k]
	case k > 0:
		return beats[k] - beats[k-1]
	default:
		return 0.8
	}
}

// synthesizeABP fills rec.ABP and rec.SystolicPeaks. Each cardiac cycle
// produces one pressure pulse whose foot follows the R peak by the
// subject's pulse transit lag; the pulse rises to the systolic peak, then
// decays exponentially toward the diastolic pressure with a dicrotic notch
// bump — the standard two-element-Windkessel-plus-reflection shape.
func synthesizeABP(rec *Record, s Subject, beats []float64, rng *rand.Rand) {
	fs := rec.SampleRate
	n := len(rec.ABP)
	pp := s.Systolic - s.Diastolic
	notch := ampExp(s.NotchDepth)

	// Pulse feet: one per beat, delayed by the transit lag.
	feet := make([]float64, len(beats))
	for i, bt := range beats {
		feet[i] = bt + s.TransitLag
	}

	next := 0 // first foot after t; t only grows
	for i := 0; i < n; i++ {
		t := float64(i) / fs
		for next < len(feet) && feet[next] <= t {
			next++
		}
		k := next - 1
		if k < 0 {
			rec.ABP[i] = s.Diastolic
			continue
		}
		span := localRR(feet, k)
		u := (t - feet[k]) / span // fraction of the current cycle
		rec.ABP[i] = s.Diastolic + pp*pulseShape(u, &s, notch) + s.ABPNoise*rng.NormFloat64()
	}

	for k := range feet {
		span := localRR(feet, k)
		peakT := feet[k] + s.PeakFrac*span
		idx := int(math.Round(peakT * fs))
		if idx >= 0 && idx < n {
			rec.SystolicPeaks = append(rec.SystolicPeaks, idx)
		}
	}
}

// pulseShape maps cycle fraction u in [0, ~1) to a normalized pressure in
// [0, 1]: raised-cosine upstroke to the systolic peak, exponential decay
// with a Gaussian dicrotic bump after it. notch is ampExp(s.NotchDepth);
// the bump is not evaluated where it cannot change the decay's bits.
func pulseShape(u float64, s *Subject, notch float64) float64 {
	if u < 0 {
		return 0
	}
	if u < s.PeakFrac {
		return 0.5 * (1 - math.Cos(math.Pi*u/s.PeakFrac))
	}
	v := math.Exp(-s.DecayRate * (u - s.PeakFrac))
	d := u - s.NotchFrac
	x := -d * d / (2 * 0.03 * 0.03)
	if !(termBound(x, notch) < absorbLimit(v)) {
		v += float64(s.NotchDepth * math.Exp(x))
	}
	if v > 1 {
		v = 1
	}
	return v
}
