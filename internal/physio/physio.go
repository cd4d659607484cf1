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
// numerically sane for the generator.
func (s *Subject) Validate() error {
	switch {
	case s.HeartRate < 20 || s.HeartRate > 250:
		return fmt.Errorf("physio: subject %s: heart rate %.1f bpm out of range", s.ID, s.HeartRate)
	case len(s.Waves) == 0:
		return fmt.Errorf("physio: subject %s: no ECG waves", s.ID)
	case s.Systolic <= s.Diastolic:
		return fmt.Errorf("physio: subject %s: systolic %.1f <= diastolic %.1f", s.ID, s.Systolic, s.Diastolic)
	case s.PeakFrac <= 0 || s.PeakFrac >= 1:
		return fmt.Errorf("physio: subject %s: peak fraction %.3f outside (0,1)", s.ID, s.PeakFrac)
	case s.TransitLag < 0:
		return fmt.Errorf("physio: subject %s: negative transit lag", s.ID)
	}
	return nil
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
	for i := 0; i < n; i++ {
		t := float64(i) / fs
		k := nearestBeat(beats, t)
		// Local RR: distance between surrounding beats.
		rr := localRR(beats, k)
		theta := 2 * math.Pi * (t - beats[k]) / rr
		var v float64
		for _, w := range s.Waves {
			d := theta - w.Theta
			v += w.Amp * math.Exp(-d*d/(2*w.B*w.B))
		}
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

// nearestBeat returns the index of the beat time closest to t.
func nearestBeat(beats []float64, t float64) int {
	lo, hi := 0, len(beats)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if beats[mid] < t {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	// lo is the first beat >= t; the nearest is lo or lo-1.
	if lo > 0 && t-beats[lo-1] < beats[lo]-t {
		return lo - 1
	}
	return lo
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

	// Pulse feet: one per beat, delayed by the transit lag.
	feet := make([]float64, len(beats))
	for i, bt := range beats {
		feet[i] = bt + s.TransitLag
	}

	for i := 0; i < n; i++ {
		t := float64(i) / fs
		k := precedingFoot(feet, t)
		if k < 0 {
			rec.ABP[i] = s.Diastolic
			continue
		}
		span := localRR(feet, k)
		u := (t - feet[k]) / span // fraction of the current cycle
		rec.ABP[i] = s.Diastolic + pp*pulseShape(u, s) + s.ABPNoise*rng.NormFloat64()
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

// precedingFoot returns the index of the last foot time <= t, or -1.
func precedingFoot(feet []float64, t float64) int {
	lo, hi := 0, len(feet)
	for lo < hi {
		mid := (lo + hi) / 2
		if feet[mid] <= t {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo - 1
}

// pulseShape maps cycle fraction u in [0, ~1) to a normalized pressure in
// [0, 1]: raised-cosine upstroke to the systolic peak, exponential decay
// with a Gaussian dicrotic bump after it.
func pulseShape(u float64, s Subject) float64 {
	if u < 0 {
		return 0
	}
	if u < s.PeakFrac {
		return 0.5 * (1 - math.Cos(math.Pi*u/s.PeakFrac))
	}
	decay := math.Exp(-s.DecayRate * (u - s.PeakFrac))
	d := u - s.NotchFrac
	notch := s.NotchDepth * math.Exp(-d*d/(2*0.03*0.03))
	v := decay + notch
	if v > 1 {
		v = 1
	}
	return v
}
