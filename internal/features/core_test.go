package features

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/wiot-security/sift/internal/dataset"
	"github.com/wiot-security/sift/internal/fixedpoint"
	"github.com/wiot-security/sift/internal/peaks"
	"github.com/wiot-security/sift/internal/physio"
	"github.com/wiot-security/sift/internal/portrait"
)

// referenceExtract is the two-step path FromWindow replaces, kept as its
// oracle: portrait.New normalizes into fresh slices, portrait.Grid bins
// them, and the matrix and point-slice helpers below compute the
// features exactly as the per-version extractors did.
func referenceExtract(v Version, w *dataset.Window, gridN int) ([]float64, error) {
	p, err := portrait.New(w.ECG, w.ABP, w.RPeaks, w.SysPeaks, w.Pairs)
	if err != nil {
		return nil, err
	}
	reduced := func() []float64 {
		return []float64{
			refMeanSlope(p.RPoints()),
			refMeanSlope(p.SysPoints()),
			refMeanSquaredDistOrigin(p.RPoints()),
			refMeanSquaredDistOrigin(p.SysPoints()),
			refMeanSquaredPairDist(p.PairPoints()),
		}
	}
	switch v {
	case Original:
		m, err := p.Grid(gridN)
		if err != nil {
			return nil, err
		}
		col := m.ColumnAverages()
		return []float64{
			m.SpatialFillingIndex(),
			std(col),
			trapezoid(col),
			refMeanAngle(p.RPoints()),
			refMeanAngle(p.SysPoints()),
			refMeanDistOrigin(p.RPoints()),
			refMeanDistOrigin(p.SysPoints()),
			refMeanPairDist(p.PairPoints()),
		}, nil
	case Simplified:
		m, err := p.Grid(gridN)
		if err != nil {
			return nil, err
		}
		col := m.ColumnAverages()
		return append([]float64{m.SpatialFillingIndex(), variance(col), simplifiedAUC(col)}, reduced()...), nil
	case Reduced:
		return reduced(), nil
	}
	return nil, fmt.Errorf("unknown version %d", int(v))
}

func refMeanAngle(pts []portrait.Point) float64 {
	if len(pts) == 0 {
		return 0
	}
	var s float64
	for _, p := range pts {
		s += math.Atan2(p.Y, p.X)
	}
	return s / float64(len(pts))
}

func refMeanSlope(pts []portrait.Point) float64 {
	if len(pts) == 0 {
		return 0
	}
	var s float64
	for _, p := range pts {
		if p.X == 0 {
			if p.Y >= 0 {
				s += slopeCap
			} else {
				s -= slopeCap
			}
			continue
		}
		s += capSlope(p.Y / p.X)
	}
	return s / float64(len(pts))
}

func refMeanDistOrigin(pts []portrait.Point) float64 {
	if len(pts) == 0 {
		return 0
	}
	var s float64
	for _, p := range pts {
		s += math.Hypot(p.X, p.Y)
	}
	return s / float64(len(pts))
}

func refMeanSquaredDistOrigin(pts []portrait.Point) float64 {
	if len(pts) == 0 {
		return 0
	}
	var s float64
	for _, p := range pts {
		s += p.X*p.X + p.Y*p.Y
	}
	return s / float64(len(pts))
}

func refMeanPairDist(pairs [][2]portrait.Point) float64 {
	if len(pairs) == 0 {
		return 0
	}
	var s float64
	for _, pr := range pairs {
		s += math.Hypot(pr[0].X-pr[1].X, pr[0].Y-pr[1].Y)
	}
	return s / float64(len(pairs))
}

func refMeanSquaredPairDist(pairs [][2]portrait.Point) float64 {
	if len(pairs) == 0 {
		return 0
	}
	var s float64
	for _, pr := range pairs {
		dx := pr[0].X - pr[1].X
		dy := pr[0].Y - pr[1].Y
		s += dx*dx + dy*dy
	}
	return s / float64(len(pairs))
}

// checkCore asserts that FromWindow, and Extract on the window's
// portrait, reproduce referenceExtract bit for bit for every version.
func checkCore(t *testing.T, name string, w *dataset.Window, gridN int) {
	t.Helper()
	p, err := portrait.New(w.ECG, w.ABP, w.RPeaks, w.SysPeaks, w.Pairs)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	for _, v := range Versions {
		want, err := referenceExtract(v, w, gridN)
		if err != nil {
			t.Fatalf("%s %s: reference: %v", name, v, err)
		}
		got, err := FromWindow(nil, v, w, gridN)
		if err != nil {
			t.Fatalf("%s %s: FromWindow: %v", name, v, err)
		}
		viaPortrait, err := Extract(v, p, gridN)
		if err != nil {
			t.Fatalf("%s %s: Extract: %v", name, v, err)
		}
		for _, pair := range []struct {
			path string
			f    []float64
		}{{"FromWindow", got}, {"Extract", viaPortrait}} {
			if len(pair.f) != len(want) {
				t.Fatalf("%s %s gridN=%d: %s has %d features, reference %d", name, v, gridN, pair.path, len(pair.f), len(want))
			}
			for i := range want {
				if math.Float64bits(pair.f[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%s %s gridN=%d: %s feature %d = %v (%#x), reference %v (%#x)",
						name, v, gridN, pair.path, i, pair.f[i], math.Float64bits(pair.f[i]), want[i], math.Float64bits(want[i]))
				}
			}
		}
	}
}

// randomPeaks draws k ascending in-range indices, the ends included
// whenever k allows.
func randomPeaks(rng *rand.Rand, n, k int) []int {
	out := make([]int, 0, k)
	if k > 0 {
		out = append(out, 0)
	}
	if k > 1 {
		out = append(out, n-1)
	}
	for len(out) < k {
		out = append(out, rng.Intn(n))
	}
	slices.Sort(out)
	return out
}

func TestFromWindowMatchesPortraitPath(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	grids := []int{1, 7, 50}

	// Physiological windows with their real peaks and pairs.
	for seed := int64(1); seed <= 4; seed++ {
		rec, err := physio.Generate(physio.DefaultSubject(), 3, physio.DefaultSampleRate, seed)
		if err != nil {
			t.Fatal(err)
		}
		w := &dataset.Window{
			ECG: rec.ECG, ABP: rec.ABP, RPeaks: rec.RPeaks, SysPeaks: rec.SystolicPeaks,
			Pairs: peaks.Pair(rec.RPeaks, rec.SystolicPeaks, int(rec.SampleRate)),
		}
		for _, n := range grids {
			checkCore(t, fmt.Sprintf("physio seed %d", seed), w, n)
		}
	}

	// Random windows over many magnitudes, with and without peaks, and
	// with constant ECG, ABP or both.
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(300)
		scale := math.Pow(10, float64(rng.Intn(9)-4))
		w := &dataset.Window{ECG: make([]float64, n), ABP: make([]float64, n)}
		for i := range w.ECG {
			w.ECG[i] = rng.NormFloat64() * scale
			w.ABP[i] = 80 + rng.Float64()*40*scale
		}
		switch trial % 4 {
		case 1:
			for i := range w.ECG {
				w.ECG[i] = 0.25
			}
		case 2:
			for i := range w.ABP {
				w.ABP[i] = -3
			}
		case 3:
			for i := range w.ECG {
				w.ECG[i], w.ABP[i] = 1, 1
			}
		}
		if trial%5 != 0 {
			w.RPeaks = randomPeaks(rng, n, rng.Intn(6))
			w.SysPeaks = randomPeaks(rng, n, rng.Intn(6))
			for i := 0; i < min(len(w.RPeaks), len(w.SysPeaks)); i++ {
				w.Pairs = append(w.Pairs, [2]int{w.RPeaks[i], w.SysPeaks[i]})
			}
		}
		checkCore(t, fmt.Sprintf("random trial %d", trial), w, grids[trial%len(grids)])
	}

	// Samples normalizing to exactly k/n land on bin edges, and the
	// maximum normalizes to exactly 1.0 (the last bin).
	for _, n := range grids {
		w := &dataset.Window{}
		for k := 0; k <= n; k++ {
			w.ECG = append(w.ECG, float64(k))
			w.ABP = append(w.ABP, float64(n-k))
		}
		w.RPeaks = []int{0, n}
		w.SysPeaks = []int{n}
		w.Pairs = [][2]int{{0, n}}
		checkCore(t, fmt.Sprintf("bin edges n=%d", n), w, n)
	}
}

func TestFromWindowRejectsWhatPortraitRejects(t *testing.T) {
	bad := []dataset.Window{
		{},
		{ECG: []float64{1, 2}, ABP: []float64{1}},
		{ECG: []float64{1, 2}, ABP: []float64{1, 2}, RPeaks: []int{2}},
		{ECG: []float64{1, 2}, ABP: []float64{1, 2}, SysPeaks: []int{-1}},
		{ECG: []float64{1, 2}, ABP: []float64{1, 2}, Pairs: [][2]int{{0, 5}}},
	}
	for i := range bad {
		if _, err := FromWindow(nil, Original, &bad[i], 50); err == nil {
			t.Errorf("window %d: FromWindow accepted what portrait.New rejects", i)
		}
	}
	ok := &dataset.Window{ECG: []float64{1, 2}, ABP: []float64{1, 2}}
	if _, err := FromWindow(nil, Simplified, ok, 0); err == nil {
		t.Error("zero grid should error")
	}
	if _, err := FromWindow(nil, Version(42), ok, 50); err == nil {
		t.Error("unknown version should error")
	}
	if f, err := FromWindow(nil, Reduced, ok, 0); err != nil || len(f) != 5 {
		t.Errorf("Reduced ignores the grid: got %v, %v", f, err)
	}
}

// TestMatrixLeavesGridClean pins the pool invariant: after binning, every
// cell and column tally is zero again, whatever grid size came before.
func TestMatrixLeavesGridClean(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := new(gridScratch)
	for _, n := range []int{50, 7, 1, 50, 64} {
		m := 1 + rng.Intn(500)
		tr := &trajectory{abp: make([]float64, m), ecg: make([]float64, m), x: identity, y: identity}
		for i := range tr.abp {
			tr.abp[i], tr.ecg[i] = rng.Float64(), rng.Float64()
		}
		tr.matrix(g, n)
		for k, c := range g.cells[:cap(g.cells)] {
			if c != 0 {
				t.Fatalf("n=%d: cell %d = %d after matrix", n, k, c)
			}
		}
		for j, c := range g.cols[:cap(g.cols)] {
			if c != 0 {
				t.Fatalf("n=%d: column tally %d = %d after matrix", n, j, c)
			}
		}
	}
}

// FuzzFeatureCoreVsPortrait drives the one-pass core with arbitrary
// Q16.16 sample pairs — what a station decodes from an untrusted sensor
// — and arbitrary in-range peaks, and holds it bit-exact to the
// portrait path for every version.
func FuzzFeatureCoreVsPortrait(f *testing.F) {
	seed := func(raws ...int32) []byte {
		b := make([]byte, 0, 4*len(raws))
		for _, r := range raws {
			b = binary.LittleEndian.AppendUint32(b, uint32(r))
		}
		return b
	}
	f.Add(seed(0, 0), []byte{0}, uint8(49))
	f.Add(seed(1<<16, 2<<16, 3<<16, 1<<16, -1<<16, 5), []byte{0, 2, 1, 2}, uint8(6))
	f.Add(seed(-1<<31, 1<<31-1, 0, 0, 7, -7, 1<<31-1, -1<<31), []byte{3, 0, 1, 2, 3}, uint8(0))
	f.Add(seed(12345, 12345, 12345, 99, 12345, -99), []byte{}, uint8(63))
	f.Fuzz(func(t *testing.T, samples, peakBytes []byte, grid uint8) {
		n := len(samples) / 8
		if n == 0 {
			return
		}
		w := &dataset.Window{ECG: make([]float64, n), ABP: make([]float64, n)}
		for i := range n {
			w.ECG[i] = fixedpoint.FromRaw(int32(binary.LittleEndian.Uint32(samples[8*i:]))).Float()
			w.ABP[i] = fixedpoint.FromRaw(int32(binary.LittleEndian.Uint32(samples[8*i+4:]))).Float()
		}
		for i, b := range peakBytes {
			idx := int(b) % n
			if i%2 == 0 {
				w.RPeaks = append(w.RPeaks, idx)
			} else {
				w.SysPeaks = append(w.SysPeaks, idx)
			}
		}
		for i := 0; i < min(len(w.RPeaks), len(w.SysPeaks)); i++ {
			w.Pairs = append(w.Pairs, [2]int{w.RPeaks[i], w.SysPeaks[i]})
		}
		checkCore(t, "fuzz", w, int(grid)%64+1)
	})
}
