// Package features implements SIFT's three feature extractors.
//
// The paper deploys three detector versions that differ only in feature
// extraction:
//
//   - Original — the full 8-feature set of Table I: three matrix features
//     computed from the n×n occupancy grid (spatial filling index, standard
//     deviation of column averages, trapezoidal AUC of column averages)
//     plus five geometric features using angles and Euclidean distances of
//     the characteristic points (requires sqrt/atan — the C math library).
//   - Simplified — same 8 features but reformulated to avoid the math
//     library: variance instead of standard deviation, the folded
//     (b−a)/(2N)·Σ form of the AUC, slopes y/x instead of angles, and
//     squared distances instead of distances.
//   - Reduced — only the five Simplified geometric features.
//
// All three extractors here are float64 reference implementations: they
// are the "MATLAB" gold standard of Table II. The device-side (Amulet)
// counterparts run as fixed-point bytecode in internal/amulet/program and
// are tested against these references.
package features

import (
	"fmt"
	"math"
	"math/bits"
	"sync"

	"github.com/wiot-security/sift/internal/dataset"
	"github.com/wiot-security/sift/internal/dsp"
	"github.com/wiot-security/sift/internal/obs"
	"github.com/wiot-security/sift/internal/portrait"
)

// Observability handles for the extraction hot path (one span + one
// counter add per window; free when collection is disabled).
var (
	obsExtract   = obs.NewTimer("sift.features.extract")
	obsExtracted = obs.NewCounter("sift.features.extracted")
)

// Version selects a feature extractor variant.
type Version int

const (
	// Original is the full implementation (8 features, math library).
	Original Version = iota + 1
	// Simplified avoids sqrt/trig (8 features).
	Simplified
	// Reduced keeps only the 5 simplified geometric features.
	Reduced
)

// Versions lists all variants in paper order.
var Versions = []Version{Original, Simplified, Reduced}

// String returns the paper's name for the version.
func (v Version) String() string {
	switch v {
	case Original:
		return "Original"
	case Simplified:
		return "Simplified"
	case Reduced:
		return "Reduced"
	default:
		return fmt.Sprintf("Version(%d)", int(v))
	}
}

// ParseVersion resolves a version's paper name, as String prints it.
func ParseVersion(name string) (Version, error) {
	for _, v := range Versions {
		if v.String() == name {
			return v, nil
		}
	}
	return 0, fmt.Errorf("features: unknown detector version %q (want Original, Simplified, or Reduced)", name)
}

// Dim returns the feature dimensionality of the version.
func (v Version) Dim() int {
	switch v {
	case Original, Simplified:
		return 8
	case Reduced:
		return 5
	default:
		return 0
	}
}

// Names returns human-readable feature names in extraction order.
func (v Version) Names() []string {
	matrix := []string{
		"spatial filling index",
		"std of column averages",
		"AUC of column averages",
	}
	geomOriginal := []string{
		"mean R-peak angle",
		"mean systolic-peak angle",
		"mean R-peak distance to origin",
		"mean systolic-peak distance to origin",
		"mean R-systolic pair distance",
	}
	geomSimplified := []string{
		"mean R-peak slope",
		"mean systolic-peak slope",
		"mean squared R-peak distance to origin",
		"mean squared systolic-peak distance to origin",
		"mean squared R-systolic pair distance",
	}
	switch v {
	case Original:
		return append(matrix, geomOriginal...)
	case Simplified:
		matrix[1] = "variance of column averages"
		matrix[2] = "simplified AUC of column averages"
		return append(matrix, geomSimplified...)
	case Reduced:
		return geomSimplified
	default:
		return nil
	}
}

// Extract computes the version's feature vector from a portrait using the
// given grid size (the paper fixes gridN = 50; see portrait.DefaultGridSize).
// The portrait's points are already normalized, so it runs the same core
// as FromWindow with the identity normalization, which is bit-exact.
func Extract(v Version, p *portrait.Portrait, gridN int) ([]float64, error) {
	span := obsExtract.Start()
	defer span.End()
	obsExtracted.Add(1)
	t := trajectory{abp: p.A, ecg: p.E, x: identity, y: identity}
	return t.extract(make([]float64, 0, v.Dim()), v, gridN, p.RPeaks, p.SysPeaks, p.Pairs)
}

// FromWindow appends the version's feature vector for one raw window to
// dst and returns it. It is portrait.New followed by Extract in one pass
// per signal: each sample is normalized with dsp.Normalize's expression
// and binned on the spot, so no normalized copy or fresh grid exists and,
// when dst has room, nothing is allocated. A signal whose range the
// window carries (ECGRange, ABPRange) is not rescanned for its min and
// max. The result is bit-identical to the two-step path. FromWindow is
// safe for concurrent use.
func FromWindow(dst []float64, v Version, w *dataset.Window, gridN int) ([]float64, error) {
	span := obsExtract.Start()
	defer span.End()
	obsExtracted.Add(1)
	if err := portrait.Validate(w.ECG, w.ABP, w.RPeaks, w.SysPeaks, w.Pairs); err != nil {
		return nil, err
	}
	t := trajectory{abp: w.ABP, ecg: w.ECG, x: unitOf(w.ABP, w.ABPRange), y: unitOf(w.ECG, w.ECGRange)}
	return t.extract(dst, v, gridN, w.RPeaks, w.SysPeaks, w.Pairs)
}

// unit is a min-max normalization onto [0,1]: v ↦ (v−lo)/span, and 0
// for every v when the signal is constant (span 0), as dsp.Normalize.
type unit struct{ lo, span float64 }

// identity leaves a value's bits unchanged: v−0 is v and v/1 is v.
var identity = unit{lo: 0, span: 1}

// unitOf normalizes x by the range r carries for it, or by a dsp.MinMax
// pass when r was bound to another array or to none.
func unitOf(x []float64, r dataset.Range) unit {
	lo, hi, ok := r.Of(x)
	if !ok {
		lo, hi, _ = dsp.MinMax(x)
	}
	return unit{lo: lo, span: hi - lo}
}

func (u unit) at(v float64) float64 {
	if u.span == 0 {
		return 0
	}
	return (v - u.lo) / u.span
}

// trajectory reads portrait points straight off the signals: point i is
// (x.at(abp[i]), y.at(ecg[i])).
type trajectory struct {
	abp, ecg []float64
	x, y     unit
}

func (t *trajectory) at(i int) portrait.Point {
	return portrait.Point{X: t.x.at(t.abp[i]), Y: t.y.at(t.ecg[i])}
}

// extract appends version v's features of the trajectory, with the
// characteristic points at the given indices, to dst.
func (t *trajectory) extract(dst []float64, v Version, gridN int, rPeaks, sysPeaks []int, pairs [][2]int) ([]float64, error) {
	switch v {
	case Original, Simplified:
		if gridN <= 0 {
			return nil, fmt.Errorf("features: grid size %d must be positive", gridN)
		}
		if len(t.abp) > math.MaxInt32 {
			return nil, fmt.Errorf("features: %d samples overflow a grid cell's count", len(t.abp))
		}
		g := gridPool.Get().(*gridScratch)
		sfi, col := t.matrix(g, gridN)
		if v == Original {
			dst = append(dst, sfi, std(col), trapezoid(col))
		} else {
			dst = append(dst, sfi, variance(col), simplifiedAUC(col))
		}
		gridPool.Put(g)
	case Reduced:
	default:
		return nil, fmt.Errorf("features: unknown version %d", int(v))
	}
	if v == Original {
		return append(dst,
			t.mean(rPeaks, angle),
			t.mean(sysPeaks, angle),
			t.mean(rPeaks, distOrigin),
			t.mean(sysPeaks, distOrigin),
			t.pairMean(pairs, pairDist),
		), nil
	}
	return append(dst,
		t.mean(rPeaks, slope),
		t.mean(sysPeaks, slope),
		t.mean(rPeaks, squaredDistOrigin),
		t.mean(sysPeaks, squaredDistOrigin),
		t.pairMean(pairs, squaredPairDist),
	), nil
}

// gridScratch is one extraction's n×n occupancy grid (row-major), a
// bitmap of its occupied cells, and per-column tallies, as int32 to
// halve what each pooled grid holds. Every cell, bit and tally up to
// capacity is zero while it sits in gridPool; matrix clears what it
// touched.
type gridScratch struct {
	cells []int32
	occ   []uint64 // bit k set: cells[k] != 0
	cols  []int32
	avg   []float64
}

// gridPool hands each concurrent extraction its own grid: one Detector
// serves many goroutines at once.
var gridPool = sync.Pool{New: func() any { return new(gridScratch) }}

// matrix bins the trajectory into g's n×n grid the way portrait.Grid
// does and returns the spatial filling index and the column averages
// (which alias g). It is bit-identical to Grid → SpatialFillingIndex,
// ColumnAverages:
//   - a column's tally counts its points as binning goes, an integer sum
//     that is exact in any order;
//   - SFI sums p·p over occupied cells only, since an empty cell adds +0
//     and the sum is never −0. It visits them by walking the occupancy
//     bitmap's set bits in ascending order, which is row-major, and
//     clears each cell as it reads it.
func (t *trajectory) matrix(g *gridScratch, n int) (float64, []float64) {
	words := (n*n + 63) / 64
	if cap(g.cells) < n*n {
		g.cells = make([]int32, n*n)
	}
	if cap(g.occ) < words {
		g.occ = make([]uint64, words)
	}
	if cap(g.cols) < n {
		g.cols, g.avg = make([]int32, n), make([]float64, n)
	}
	cells, occ, cols, avg := g.cells[:n*n], g.occ[:words], g.cols[:n], g.avg[:n]
	ecg := t.ecg[:len(t.abp)]
	for k, a := range t.abp {
		col := portrait.BinIndex(t.x.at(a), n)
		row := portrait.BinIndex(t.y.at(ecg[k]), n)
		c := row*n + col
		cells[c]++
		occ[c>>6] |= 1 << (c & 63)
		cols[col]++
	}
	var s float64
	tot := float64(len(t.abp))
	for w, set := range occ {
		for ; set != 0; set &= set - 1 {
			k := w<<6 + bits.TrailingZeros64(set)
			p := float64(cells[k]) / tot
			s += p * p
			cells[k] = 0
		}
		occ[w] = 0
	}
	for j, c := range cols {
		avg[j] = float64(c) / float64(n)
		cols[j] = 0
	}
	return float64(n) * float64(n) * s, avg
}

// mean averages f over the points at idx; no points average to 0.
func (t *trajectory) mean(idx []int, f func(portrait.Point) float64) float64 {
	if len(idx) == 0 {
		return 0
	}
	var s float64
	for _, i := range idx {
		s += f(t.at(i))
	}
	return s / float64(len(idx))
}

// pairMean averages f over the (R, systolic) point pairs.
func (t *trajectory) pairMean(pairs [][2]int, f func(r, s portrait.Point) float64) float64 {
	if len(pairs) == 0 {
		return 0
	}
	var s float64
	for _, pr := range pairs {
		s += f(t.at(pr[0]), t.at(pr[1]))
	}
	return s / float64(len(pairs))
}

// slopeCap bounds the slope y/x when x approaches zero, mirroring the
// saturation the fixed-point device implementation exhibits rather than
// letting the reference blow up to ±Inf.
const slopeCap = 128.0

func capSlope(s float64) float64 {
	if s > slopeCap {
		return slopeCap
	}
	if s < -slopeCap {
		return -slopeCap
	}
	return s
}

func angle(p portrait.Point) float64 { return math.Atan2(p.Y, p.X) }

func slope(p portrait.Point) float64 {
	if p.X == 0 {
		// Mirror the device's saturating divide: sign follows y.
		if p.Y >= 0 {
			return slopeCap
		}
		return -slopeCap
	}
	return capSlope(p.Y / p.X)
}

func distOrigin(p portrait.Point) float64 { return math.Hypot(p.X, p.Y) }

func squaredDistOrigin(p portrait.Point) float64 { return p.X*p.X + p.Y*p.Y }

func pairDist(r, s portrait.Point) float64 { return math.Hypot(r.X-s.X, r.Y-s.Y) }

func squaredPairDist(r, s portrait.Point) float64 {
	dx := r.X - s.X
	dy := r.Y - s.Y
	return dx*dx + dy*dy
}

func mean(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	var s float64
	for _, v := range x {
		s += v
	}
	return s / float64(len(x))
}

func variance(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	m := mean(x)
	var s float64
	for _, v := range x {
		d := v - m
		s += d * d
	}
	return s / float64(len(x))
}

func std(x []float64) float64 { return math.Sqrt(variance(x)) }

func trapezoid(y []float64) float64 {
	if len(y) < 2 {
		return 0
	}
	var area float64
	for i := 1; i < len(y); i++ {
		area += (y[i] + y[i-1]) / 2
	}
	return area
}

// simplifiedAUC is the paper's (b−a)/(2N)·Σ(f(x_n)+f(x_{n+1})) formulation,
// which on unit spacing equals the trapezoid rule but needs one multiply
// instead of a division per step — the property that made it MCU-friendly.
func simplifiedAUC(y []float64) float64 {
	n := len(y) - 1
	if n < 1 {
		return 0
	}
	var s float64
	for i := 0; i < n; i++ {
		s += y[i] + y[i+1]
	}
	return s / 2
}
