// Package peaks detects the characteristic points SIFT's geometric
// features are built from: R peaks in ECG and systolic peaks in ABP.
//
// The paper's Amulet app pre-stores peak indexes alongside the signal
// snippets ("for ease of testing ... a simple extension to perform these
// tasks at run-time"); this package is that run-time extension. The R-peak
// detector follows the Pan–Tompkins structure (band-pass → derivative →
// square → moving-window integration → adaptive threshold); the systolic
// detector is a refractory local-maximum search, which suffices for the
// much smoother ABP waveform.
package peaks

import (
	"fmt"
	"math"
	"slices"

	"github.com/wiot-security/sift/internal/dsp"
)

// DetectorConfig parameterizes the R-peak detector.
type DetectorConfig struct {
	SampleRate float64 // Hz; must be positive
	BandLow    float64 // Hz, band-pass low edge (default 5)
	BandHigh   float64 // Hz, band-pass high edge (default 15)
	WindowSec  float64 // moving integration window (default 0.15 s)
	Refractory float64 // minimum peak separation in seconds (default 0.25)
	ThreshFrac float64 // threshold as a fraction of the running max (default 0.35)
}

// fillDefaults returns cfg with zero fields replaced by defaults.
func (c DetectorConfig) fillDefaults() DetectorConfig {
	if c.BandLow == 0 {
		c.BandLow = 5
	}
	if c.BandHigh == 0 {
		c.BandHigh = 15
	}
	if c.WindowSec == 0 {
		c.WindowSec = 0.15
	}
	if c.Refractory == 0 {
		c.Refractory = 0.25
	}
	if c.ThreshFrac == 0 {
		c.ThreshFrac = 0.35
	}
	return c
}

// DetectR locates R-peak sample indices in ecg. It is NewRDetector
// followed by one Detect; callers that detect window after window should
// keep an RDetector instead.
func DetectR(ecg []float64, cfg DetectorConfig) ([]int, error) {
	d, err := NewRDetector(cfg)
	if err != nil {
		return nil, err
	}
	return d.Detect(ecg)
}

// RDetector is a reusable R-peak detector. The band-pass is designed
// once and the intermediate signals live in buffers kept across calls,
// so Detect allocates only the index slice it returns. An RDetector is
// not safe for concurrent use.
type RDetector struct {
	hp, lp     dsp.Biquad // the band-pass: high-pass then low-pass, as dsp.BandPass composes it
	win        int        // moving-integration window, odd
	refractory int
	threshFrac float64

	// Scratch reused across Detect calls.
	energy     []float64 // squared first difference of the band-passed signal
	integrated []float64
	candidates []int
}

// NewRDetector validates cfg and designs its band-pass filter.
func NewRDetector(cfg DetectorConfig) (*RDetector, error) {
	cfg = cfg.fillDefaults()
	if cfg.SampleRate <= 0 {
		return nil, fmt.Errorf("peaks: sample rate must be positive, got %.3g", cfg.SampleRate)
	}
	hp, lp, err := dsp.BandPassSections(cfg.BandLow, cfg.BandHigh, cfg.SampleRate)
	if err != nil {
		return nil, fmt.Errorf("peaks: band-pass design: %w", err)
	}
	win := int(cfg.WindowSec * cfg.SampleRate)
	if win%2 == 0 {
		win++
	}
	if win <= 0 {
		return nil, fmt.Errorf("peaks: integration window must be positive, got %d samples", win)
	}
	return &RDetector{
		hp:         *hp,
		lp:         *lp,
		win:        win,
		refractory: int(cfg.Refractory * cfg.SampleRate),
		threshFrac: cfg.ThreshFrac,
	}, nil
}

// Detect locates R-peak sample indices in ecg. The returned slice is
// freshly allocated and owned by the caller.
//
// One pass per sample runs the band-pass, the squared first difference,
// the moving-window integrator and the running maximum the threshold is
// a fraction of; only the band-pass recurrence is serial. Each step is
// the expression its stage alone would evaluate (Biquad.Step,
// dsp.MovingAverageInto, dsp.MinMax), so every value is bit-identical
// to running the stages one after another, up to which NaN a NaN
// result carries.
func (d *RDetector) Detect(ecg []float64) ([]int, error) {
	if len(ecg) == 0 {
		return nil, dsp.ErrEmptySignal
	}
	// energy[m] = (f[m+1] − f[m])², f the band-passed ecg, and
	// integrated[j] averages energy over the edge-clipped window
	// [j−half, j+half]. Sample m+1 makes energy[m], which completes
	// integrated[m−half]; the sum s runs as in dsp.MovingAverageInto,
	// which names the phases: for m < a it only accumulates, for
	// m in [a, b) a sample enters and none leaves, and from b on one
	// enters and one leaves. The outputs past the last sample, where
	// samples only leave (or, when the window covers all, stay), run
	// after the recurrence.
	n, w := len(ecg)-1, d.win
	half := w / 2
	d.energy = slices.Grow(d.energy[:0], n)[:n]
	d.integrated = slices.Grow(d.integrated[:0], n)[:n]
	energy, integrated := d.energy, d.integrated
	a, b := min(half, n), min(w, n)

	// Both band-pass sections' coefficients and state live in locals, and
	// step, inlined at each call, runs Biquad.Step for each: no state
	// round-trips through memory inside the recurrence. It returns the
	// low-pass output's first difference, ly1 being the previous output.
	hb0, hb1, hb2, ha1, ha2 := d.hp.B0, d.hp.B1, d.hp.B2, d.hp.A1, d.hp.A2
	lb0, lb1, lb2, la1, la2 := d.lp.B0, d.lp.B1, d.lp.B2, d.lp.A1, d.lp.A2
	var hx1, hx2, hy1, hy2, lx1, lx2, ly1, ly2 float64
	step := func(v float64) float64 {
		y := hb0*v + hb1*hx1 + hb2*hx2 - ha1*hy1 - ha2*hy2
		hx2, hx1 = hx1, v
		hy2, hy1 = hy1, y
		z := lb0*y + lb1*lx1 + lb2*lx2 - la1*ly1 - la2*ly2
		lx2, lx1 = lx1, y
		dz := z - ly1
		ly2, ly1 = ly1, z
		return dz
	}
	step(ecg[0])
	// Each e is converted to float64: the conversion forbids fusing the
	// square into an FMA with the sum, which would round once where
	// MovingAverageInto, adding energy from memory, rounds twice.
	var s float64
	for m, v := range ecg[1 : a+1] {
		dz := step(v)
		e := float64(dz * dz)
		energy[m] = e
		s += e
	}
	// maxV is dsp.MinMax's running maximum of integrated, except that it
	// starts below every value instead of at integrated[0]; the two
	// differ only when integrated[0] is NaN, which is set right below.
	maxV := math.Inf(-1)
	for m := a; m < b; m++ {
		dz := step(ecg[m+1])
		e := float64(dz * dz)
		energy[m] = e
		s += e - 0
		q := s / float64(m+1)
		integrated[m-half] = q
		if q > maxV {
			maxV = q
		}
	}
	for m := b; m < n; m++ {
		dz := step(ecg[m+1])
		e := float64(dz * dz)
		energy[m] = e
		s += e - energy[m-w]
		q := s / float64(w)
		integrated[m-half] = q
		if q > maxV {
			maxV = q
		}
	}
	// Past the last sample. When the window covers all of energy,
	// outputs in [enter, leave) average everything; s starts at +0 and so
	// is never −0, which makes s + (0 − 0) = s.
	enter, leave := max(n-half, 0), min(half+1, n)
	for j := enter; j < leave; j++ {
		q := s / float64(n)
		integrated[j] = q
		if q > maxV {
			maxV = q
		}
	}
	for j := max(enter, leave); j < n; j++ {
		s += 0 - energy[j-half-1]
		q := s / float64(n-(j-half))
		integrated[j] = q
		if q > maxV {
			maxV = q
		}
	}
	if n > 0 && integrated[0] != integrated[0] {
		maxV = integrated[0]
	}

	d.candidates = d.candidates[:0]
	if !(maxV <= 0) { // a NaN maximum scans too, with a NaN floor
		d.candidates = localMaxima(d.candidates, integrated, d.threshFrac*maxV, d.refractory)
	}
	// Refine each candidate to the true ECG maximum in a neighborhood —
	// the integrator peak lags the R wave by roughly half the window.
	out := make([]int, 0, len(d.candidates))
	for _, c := range d.candidates {
		out = append(out, argmaxAround(ecg, c, d.win))
	}
	return dedupeSorted(out, d.refractory), nil
}

// DetectSystolic locates systolic-peak sample indices in abp: local maxima
// above the running mean, separated by the refractory interval. It takes
// abp's sum and maximum in one pre-pass and calls ScanSystolic.
func DetectSystolic(abp []float64, sampleRate float64) ([]int, error) {
	if len(abp) == 0 {
		return ScanSystolic(abp, sampleRate, 0, 0) // the rate's error, else the empty signal's
	}
	// The sum adds in index order from +0, the order ScanSystolic asks for.
	var sum float64
	maxV := abp[0]
	for _, v := range abp {
		sum += v
		if v > maxV {
			maxV = v
		}
	}
	return ScanSystolic(abp, sampleRate, sum, maxV)
}

// ScanSystolic is DetectSystolic given abp's sum, added in index order
// from +0, and its maximum, for a caller that folded both while it
// filled abp.
func ScanSystolic(abp []float64, sampleRate, sum, maxV float64) ([]int, error) {
	if sampleRate <= 0 {
		return nil, fmt.Errorf("peaks: sample rate must be positive, got %.3g", sampleRate)
	}
	if len(abp) == 0 {
		return nil, dsp.ErrEmptySignal
	}
	mean := sum / float64(len(abp))
	// Peaks must rise at least 40 % of the way from the mean to the max —
	// this rejects dicrotic bumps, which sit below the systolic crest.
	floor := mean + 0.4*(maxV-mean)
	return localMaxima(nil, abp, floor, int(0.3*sampleRate)), nil
}

// localMaxima appends to out the local maxima of x at or above floor,
// enforcing the refractory separation: of two closer than that, the
// taller stays.
func localMaxima(out []int, x []float64, floor float64, refractory int) []int {
	last := -refractory
	for i := 1; i < len(x)-1; i++ {
		if x[i] < floor || x[i] < x[i-1] || x[i] <= x[i+1] {
			continue
		}
		if i-last < refractory {
			if len(out) > 0 && x[i] > x[out[len(out)-1]] {
				out[len(out)-1] = i
				last = i
			}
			continue
		}
		out = append(out, i)
		last = i
	}
	return out
}

// argmaxAround returns the index of the maximum of x within ±half of c.
func argmaxAround(x []float64, c, half int) int {
	lo, hi := c-half, c+half+1
	if lo < 0 {
		lo = 0
	}
	if hi > len(x) {
		hi = len(x)
	}
	best := lo
	for i := lo + 1; i < hi; i++ {
		if x[i] > x[best] {
			best = i
		}
	}
	return best
}

// dedupeSorted removes indices closer than minGap from an ascending list,
// keeping the first of each cluster.
func dedupeSorted(idx []int, minGap int) []int {
	if len(idx) == 0 {
		return idx
	}
	out := idx[:1]
	for _, v := range idx[1:] {
		if v-out[len(out)-1] >= minGap {
			out = append(out, v)
		}
	}
	return out
}

// Pair matches each R peak with the first systolic peak that follows it
// within maxLag samples. R peaks with no such systolic peak are skipped.
// Both inputs must be ascending.
func Pair(rPeaks, sysPeaks []int, maxLag int) [][2]int {
	var out [][2]int
	j := 0
	for _, r := range rPeaks {
		for j < len(sysPeaks) && sysPeaks[j] <= r {
			j++
		}
		if j < len(sysPeaks) && sysPeaks[j]-r <= maxLag {
			out = append(out, [2]int{r, sysPeaks[j]})
		}
	}
	return out
}

// MatchStats compares detected peak indices against ground truth with the
// given tolerance (samples) and returns hits, misses (truth without a
// detection) and extras (detections without truth).
func MatchStats(detected, truth []int, tol int) (hits, misses, extras int) {
	used := make([]bool, len(detected))
	for _, tr := range truth {
		found := false
		for i, d := range detected {
			if used[i] {
				continue
			}
			if abs(d-tr) <= tol {
				used[i] = true
				found = true
				break
			}
		}
		if found {
			hits++
		} else {
			misses++
		}
	}
	for _, u := range used {
		if !u {
			extras++
		}
	}
	return hits, misses, extras
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
