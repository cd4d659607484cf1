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
	band       *dsp.Cascade
	win        int // moving-integration window, odd
	refractory int
	threshFrac float64

	// Scratch reused across Detect calls.
	filtered   []float64
	energy     []float64 // squared first difference of filtered
	integrated []float64
	candidates []int
}

// NewRDetector validates cfg and designs its band-pass filter.
func NewRDetector(cfg DetectorConfig) (*RDetector, error) {
	cfg = cfg.fillDefaults()
	if cfg.SampleRate <= 0 {
		return nil, fmt.Errorf("peaks: sample rate must be positive, got %.3g", cfg.SampleRate)
	}
	band, err := dsp.BandPass(cfg.BandLow, cfg.BandHigh, cfg.SampleRate)
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
		band:       band,
		win:        win,
		refractory: int(cfg.Refractory * cfg.SampleRate),
		threshFrac: cfg.ThreshFrac,
	}, nil
}

// Detect locates R-peak sample indices in ecg. The returned slice is
// freshly allocated and owned by the caller.
func (d *RDetector) Detect(ecg []float64) ([]int, error) {
	if len(ecg) == 0 {
		return nil, dsp.ErrEmptySignal
	}
	d.filtered = d.band.ApplyInto(d.filtered, ecg)
	// Derivative and squaring fused: energy[i-1] = (f[i] - f[i-1])².
	n := len(ecg) - 1
	d.energy = slices.Grow(d.energy[:0], n)[:n]
	for i := range d.energy {
		v := d.filtered[i+1] - d.filtered[i]
		d.energy[i] = v * v
	}
	integrated, err := dsp.MovingAverageInto(d.integrated, d.energy, d.win)
	if err != nil {
		return nil, fmt.Errorf("peaks: integration window: %w", err)
	}
	d.integrated = integrated
	d.candidates = thresholdPeaks(d.candidates[:0], integrated, d.threshFrac, d.refractory)

	// Refine each candidate to the true ECG maximum in a neighborhood —
	// the integrator peak lags the R wave by roughly half the window.
	out := make([]int, 0, len(d.candidates))
	for _, c := range d.candidates {
		out = append(out, argmaxAround(ecg, c, d.win))
	}
	return dedupeSorted(out, d.refractory), nil
}

// DetectSystolic locates systolic-peak sample indices in abp: local maxima
// above the running mean, separated by the refractory interval.
func DetectSystolic(abp []float64, sampleRate float64) ([]int, error) {
	if sampleRate <= 0 {
		return nil, fmt.Errorf("peaks: sample rate must be positive, got %.3g", sampleRate)
	}
	if len(abp) == 0 {
		return nil, dsp.ErrEmptySignal
	}
	// One pre-pass for the mean and the max; the sum runs in dsp.Mean's
	// order, so the mean is bit-identical to it.
	var sum float64
	maxV := abp[0]
	for _, v := range abp {
		sum += v
		if v > maxV {
			maxV = v
		}
	}
	mean := sum / float64(len(abp))
	// Peaks must rise at least 40 % of the way from the mean to the max —
	// this rejects dicrotic bumps, which sit below the systolic crest.
	floor := mean + 0.4*(maxV-mean)
	refractory := int(0.3 * sampleRate)

	var out []int
	last := -refractory
	for i := 1; i < len(abp)-1; i++ {
		if abp[i] < floor || abp[i] < abp[i-1] || abp[i] <= abp[i+1] {
			continue
		}
		if i-last < refractory {
			// Keep the taller of the two competing peaks.
			if len(out) > 0 && abp[i] > abp[out[len(out)-1]] {
				out[len(out)-1] = i
				last = i
			}
			continue
		}
		out = append(out, i)
		last = i
	}
	return out, nil
}

// thresholdPeaks appends to out the local maxima of x above
// frac·max(x), enforcing the refractory separation.
func thresholdPeaks(out []int, x []float64, frac float64, refractory int) []int {
	_, maxV, err := dsp.MinMax(x)
	if err != nil || maxV <= 0 {
		return out
	}
	floor := frac * maxV
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
