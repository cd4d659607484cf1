package physio

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// The plain per-sample loops below are the reference the generator is
// held to: every wave term and the dicrotic notch evaluated, and each
// sample's beat found by binary search. Each term's product is rounded
// before the sum, as the generator rounds it, so that no platform fuses
// it into the addition.

// generatePlain is Generate over the plain loops, without its checks.
func generatePlain(s Subject, durationSec, fs float64, seed int64) *Record {
	rng := rand.New(rand.NewSource(seed))
	n := int(durationSec * fs)
	rec := &Record{
		SubjectID:  s.ID,
		SampleRate: fs,
		ECG:        make([]float64, n),
		ABP:        make([]float64, n),
	}
	beats := beatTrain(s, durationSec, rng)
	plainECG(rec, s, beats, rng)
	plainABP(rec, s, beats, rng)
	return rec
}

func plainECG(rec *Record, s Subject, beats []float64, rng *rand.Rand) {
	fs := rec.SampleRate
	n := len(rec.ECG)
	for i := 0; i < n; i++ {
		t := float64(i) / fs
		k := nearestBeat(beats, t)
		rr := localRR(beats, k)
		theta := 2 * math.Pi * (t - beats[k]) / rr
		v := waveFold(theta, s.Waves)
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

// waveFold is the plain left fold of every wave term.
func waveFold(theta float64, waves []Wave) float64 {
	var v float64
	for _, w := range waves {
		d := theta - w.Theta
		v += float64(w.Amp * math.Exp(-d*d/(2*w.B*w.B)))
	}
	return v
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

func plainABP(rec *Record, s Subject, beats []float64, rng *rand.Rand) {
	fs := rec.SampleRate
	n := len(rec.ABP)
	pp := s.Systolic - s.Diastolic
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
		u := (t - feet[k]) / span
		rec.ABP[i] = s.Diastolic + pp*plainPulseShape(u, s) + s.ABPNoise*rng.NormFloat64()
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

func plainPulseShape(u float64, s Subject) float64 {
	if u < 0 {
		return 0
	}
	if u < s.PeakFrac {
		return 0.5 * (1 - math.Cos(math.Pi*u/s.PeakFrac))
	}
	decay := math.Exp(-s.DecayRate * (u - s.PeakFrac))
	d := u - s.NotchFrac
	notch := float64(s.NotchDepth * math.Exp(-d*d/(2*0.03*0.03)))
	v := decay + notch
	if v > 1 {
		v = 1
	}
	return v
}

func sameBits(a, b []float64) (int, bool) {
	if len(a) != len(b) {
		return -1, false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i, false
		}
	}
	return 0, true
}

// TestGenerateMatchesPlainLoops holds Generate to the plain loops bit for
// bit on every cohort subject, over several seeds and spans.
func TestGenerateMatchesPlainLoops(t *testing.T) {
	for _, seed := range []int64{1, 2, 7} {
		subjects, err := Cohort(12, seed)
		if err != nil {
			t.Fatal(err)
		}
		for _, dur := range []float64{3, 120, 300} {
			t.Run(fmt.Sprintf("seed%d/%gs", seed, dur), func(t *testing.T) {
				for i, s := range subjects {
					recSeed := seed*100 + int64(i)
					got, err := Generate(s, dur, DefaultSampleRate, recSeed)
					if err != nil {
						t.Fatal(err)
					}
					want := generatePlain(s, dur, DefaultSampleRate, recSeed)
					if at, ok := sameBits(got.ECG, want.ECG); !ok {
						t.Errorf("%s: ECG differs at sample %d", s.ID, at)
					}
					if at, ok := sameBits(got.ABP, want.ABP); !ok {
						t.Errorf("%s: ABP differs at sample %d", s.ID, at)
					}
					if !slices.Equal(got.RPeaks, want.RPeaks) {
						t.Errorf("%s: R peaks differ", s.ID)
					}
					if !slices.Equal(got.SystolicPeaks, want.SystolicPeaks) {
						t.Errorf("%s: systolic peaks differ", s.ID)
					}
				}
			})
		}
	}
}

// TestPulseShapeMatchesPlain covers notch depths the cohort never draws:
// zero, negative, subnormal and huge, at cycle fractions on both sides
// of the notch.
func TestPulseShapeMatchesPlain(t *testing.T) {
	s := DefaultSubject()
	for _, depth := range []float64{0, math.Copysign(0, -1), -0.3, 5e-324, 1e-300, 0.12, 1e300} {
		s.NotchDepth = depth
		notch := ampExp(depth)
		for i := 0; i <= 1200; i++ {
			u := float64(i)/1000 - 0.1
			got, want := pulseShape(u, &s, notch), plainPulseShape(u, s)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("depth %g, u %g: got %v, want %v", depth, u, got, want)
			}
		}
	}
}

// fuzzWaves decodes up to 8 waves from spec, 11 bytes each: an amplitude
// class byte, 8 amplitude bytes, a width byte and a centre byte. The
// class picks the amplitude's range: any finite bit pattern, zero of
// either sign, a subnormal, or a typical one in (−2, 2). Widths run
// from 1e-3 to 10 on a log scale, centres over (−π, π].
func fuzzWaves(spec []byte) []Wave {
	var waves []Wave
	for len(spec) >= 11 && len(waves) < 8 {
		bits := binary.LittleEndian.Uint64(spec[1:9])
		var amp float64
		switch spec[0] % 4 {
		case 0:
			amp = math.Float64frombits(bits)
			if math.IsInf(amp, 0) || math.IsNaN(amp) {
				amp = math.Float64frombits(bits &^ (1 << 62)) // clear the exponent's top bit
			}
		case 1:
			amp = math.Float64frombits(bits & (1 << 63))
		case 2:
			amp = math.Float64frombits(bits &^ (0x7ff << 52))
		default:
			amp = 4 * (float64(bits>>11)/(1<<53) - 0.5)
		}
		waves = append(waves, Wave{
			Theta: math.Pi * (float64(spec[10])/128 - 1),
			Amp:   amp,
			B:     1e-3 * math.Pow(1e4, float64(spec[9])/255),
		})
		spec = spec[11:]
	}
	return waves
}

// waveSpec encodes waves with typical amplitudes for the fuzz seed corpus.
func waveSpec(waves []Wave) []byte {
	var spec []byte
	for _, w := range waves {
		var amp [8]byte
		binary.LittleEndian.PutUint64(amp[:], math.Float64bits(w.Amp))
		spec = append(spec, 0)
		spec = append(spec, amp[:]...)
		spec = append(spec, byte(255*math.Log10(w.B/1e-3)/4), byte(128*(w.Theta/math.Pi+1)))
	}
	return spec
}

// FuzzWaveSumMatchesFold holds the skipping wave sum to the plain left
// fold bit for bit, over fuzzed phases and waves.
func FuzzWaveSumMatchesFold(f *testing.F) {
	def := waveSpec(DefaultWaves())
	for _, theta := range []float64{0, 0.05, -0.3, -math.Pi / 3, math.Pi / 2, 2.5, math.Pi, -math.Pi, 40} {
		f.Add(theta, def)
	}
	// A negative zero first term, subnormal and huge amplitudes, and a
	// single wave.
	f.Add(3.0, append([]byte{1, 0, 0, 0, 0, 0, 0, 0, 0x80, 100, 200}, def...))
	f.Add(0.5, append([]byte{2, 1, 0, 0, 0, 0, 0, 0, 0, 0, 128}, def...))
	f.Add(-1.0, append([]byte{0, 0, 0, 0, 0, 0, 0, 0xe0, 0x7f, 255, 0}, def...))
	f.Add(0.2, def[:11])
	f.Fuzz(func(t *testing.T, theta float64, spec []byte) {
		if math.IsInf(theta, 0) || math.IsNaN(theta) {
			return
		}
		waves := fuzzWaves(spec)
		if len(waves) == 0 {
			return
		}
		got, want := newWaveSum(waves).at(theta), waveFold(theta, waves)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("θ %v, waves %+v: sum %v (%#x), fold %v (%#x)",
				theta, waves, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	})
}
