// Package portrait builds SIFT's two-dimensional signal portrait.
//
// A portrait is the normalized joint trajectory f(t) = (a(t), e(t)) of w
// time-units of synchronously measured ABP and ECG: each sample becomes a
// point in the unit square whose x coordinate is the normalized ABP value
// and whose y coordinate is the normalized ECG value. Because both signals
// are driven by the same cardiac process, a subject's portrait has a
// characteristic shape; SIFT's features summarize that shape.
package portrait

import (
	"fmt"

	"github.com/wiot-security/sift/internal/dsp"
)

// DefaultGridSize is the paper's portrait grid resolution (n = 50).
const DefaultGridSize = 50

// Point is one portrait point in the unit square.
type Point struct {
	X float64 // normalized ABP
	Y float64 // normalized ECG
}

// Portrait holds the normalized trajectory plus the characteristic points
// (R peaks, systolic peaks, and their pairing) expressed as sample indices
// into the trajectory.
type Portrait struct {
	A []float64 // normalized ABP, in [0,1]
	E []float64 // normalized ECG, in [0,1]

	RPeaks   []int    // sample indices of R peaks
	SysPeaks []int    // sample indices of systolic peaks
	Pairs    [][2]int // (R index, corresponding systolic index)
}

// New normalizes the two signals and assembles a portrait. The peak index
// slices must be ascending and within range; pairs associates each R peak
// with its corresponding systolic peak (as the paper's feature 8 needs).
func New(ecg, abp []float64, rPeaks, sysPeaks []int, pairs [][2]int) (*Portrait, error) {
	if err := Validate(ecg, abp, rPeaks, sysPeaks, pairs); err != nil {
		return nil, err
	}
	e, err := dsp.Normalize(ecg)
	if err != nil {
		return nil, fmt.Errorf("portrait: normalize ECG: %w", err)
	}
	a, err := dsp.Normalize(abp)
	if err != nil {
		return nil, fmt.Errorf("portrait: normalize ABP: %w", err)
	}
	return &Portrait{A: a, E: e, RPeaks: rPeaks, SysPeaks: sysPeaks, Pairs: pairs}, nil
}

// Validate checks what New needs of its inputs: equal-length, non-empty
// signals and every peak and pair index within them.
func Validate(ecg, abp []float64, rPeaks, sysPeaks []int, pairs [][2]int) error {
	if len(ecg) != len(abp) {
		return fmt.Errorf("portrait: ECG (%d) and ABP (%d) lengths differ", len(ecg), len(abp))
	}
	if len(ecg) == 0 {
		return dsp.ErrEmptySignal
	}
	for _, p := range rPeaks {
		if p < 0 || p >= len(ecg) {
			return fmt.Errorf("portrait: R peak index %d out of range [0,%d)", p, len(ecg))
		}
	}
	for _, p := range sysPeaks {
		if p < 0 || p >= len(ecg) {
			return fmt.Errorf("portrait: systolic peak index %d out of range [0,%d)", p, len(ecg))
		}
	}
	for _, pr := range pairs {
		if pr[0] < 0 || pr[0] >= len(ecg) || pr[1] < 0 || pr[1] >= len(ecg) {
			return fmt.Errorf("portrait: pair %v out of range [0,%d)", pr, len(ecg))
		}
	}
	return nil
}

// Len returns the number of trajectory points.
func (p *Portrait) Len() int { return len(p.A) }

// At returns the i-th trajectory point.
func (p *Portrait) At(i int) Point { return Point{X: p.A[i], Y: p.E[i]} }

// RPoints returns the portrait points at the R peaks.
func (p *Portrait) RPoints() []Point {
	out := make([]Point, len(p.RPeaks))
	for i, idx := range p.RPeaks {
		out[i] = p.At(idx)
	}
	return out
}

// SysPoints returns the portrait points at the systolic peaks.
func (p *Portrait) SysPoints() []Point {
	out := make([]Point, len(p.SysPeaks))
	for i, idx := range p.SysPeaks {
		out[i] = p.At(idx)
	}
	return out
}

// PairPoints returns (R point, systolic point) tuples for each pairing.
func (p *Portrait) PairPoints() [][2]Point {
	out := make([][2]Point, len(p.Pairs))
	for i, pr := range p.Pairs {
		out[i] = [2]Point{p.At(pr[0]), p.At(pr[1])}
	}
	return out
}

// Matrix is the n×n occupancy grid C over the unit square: C[i][j] counts
// trajectory points whose x falls in column j and y in row i.
type Matrix struct {
	N      int
	Counts []int // row-major, length N*N
	Total  int   // total points binned
}

// Grid bins the portrait's trajectory into an n×n occupancy matrix.
// Points at the upper boundary (value exactly 1) land in the last bin.
func (p *Portrait) Grid(n int) (*Matrix, error) {
	if n <= 0 {
		return nil, fmt.Errorf("portrait: grid size %d must be positive", n)
	}
	m := &Matrix{N: n, Counts: make([]int, n*n)}
	for k := 0; k < p.Len(); k++ {
		col := BinIndex(p.A[k], n)
		row := BinIndex(p.E[k], n)
		m.Counts[row*n+col]++
		m.Total++
	}
	return m, nil
}

// BinIndex is the bin of n equal bins over [0,1] that the normalized
// value v falls in; values at or past either edge land in the edge bin.
func BinIndex(v float64, n int) int {
	i := int(v * float64(n))
	if i < 0 {
		return 0
	}
	if i >= n {
		return n - 1
	}
	return i
}

// At returns C[row][col].
func (m *Matrix) At(row, col int) int { return m.Counts[row*m.N+col] }

// ColumnAverages returns, for each column j, the mean count over the
// column's n cells — the series the matrix features are computed from.
func (m *Matrix) ColumnAverages() []float64 {
	out := make([]float64, m.N)
	for j := 0; j < m.N; j++ {
		var s int
		for i := 0; i < m.N; i++ {
			s += m.At(i, j)
		}
		out[j] = float64(s) / float64(m.N)
	}
	return out
}

// SpatialFillingIndex measures how concentrated the trajectory is on the
// grid: with p_ij = C[i][j]/Total, SFI = n² · Σ p_ij². A trajectory spread
// uniformly over all cells scores 1; one collapsed into a single cell
// scores n². An empty matrix scores 0.
func (m *Matrix) SpatialFillingIndex() float64 {
	if m.Total == 0 {
		return 0
	}
	var s float64
	tot := float64(m.Total)
	for _, c := range m.Counts {
		p := float64(c) / tot
		s += p * p
	}
	return float64(m.N) * float64(m.N) * s
}
