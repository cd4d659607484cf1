package svm

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/wiot-security/sift/internal/fixedpoint"
)

// blob generates n points around center with the given spread.
func blob(rng *rand.Rand, n int, center []float64, spread float64) [][]float64 {
	out := make([][]float64, n)
	for i := range out {
		p := make([]float64, len(center))
		for j, c := range center {
			p[j] = c + spread*rng.NormFloat64()
		}
		out[i] = p
	}
	return out
}

func separableSet(seed int64, n int) (x [][]float64, y []Label) {
	rng := rand.New(rand.NewSource(seed))
	neg := blob(rng, n, []float64{-2, -2}, 0.5)
	pos := blob(rng, n, []float64{2, 2}, 0.5)
	x = append(neg, pos...)
	for range neg {
		y = append(y, Negative)
	}
	for range pos {
		y = append(y, Positive)
	}
	return x, y
}

func TestTrainSeparable(t *testing.T) {
	x, y := separableSet(1, 50)
	m, err := Train(x, y, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	correct := 0
	for i := range x {
		if m.Predict(x[i]) == y[i] {
			correct++
		}
	}
	if acc := float64(correct) / float64(len(x)); acc < 0.99 {
		t.Errorf("training accuracy on separable data = %.3f, want ~1", acc)
	}
	if m.SupportVectors == 0 {
		t.Error("separable fit should report support vectors")
	}
}

func TestTrainGeneralizes(t *testing.T) {
	x, y := separableSet(2, 100)
	m, err := Train(x, y, Config{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	tx, ty := separableSet(99, 50) // fresh draw from the same distributions
	correct := 0
	for i := range tx {
		if m.Predict(tx[i]) == ty[i] {
			correct++
		}
	}
	if acc := float64(correct) / float64(len(tx)); acc < 0.95 {
		t.Errorf("held-out accuracy = %.3f, want >= 0.95", acc)
	}
}

func TestTrainOverlappingClassesStillFits(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	neg := blob(rng, 80, []float64{-0.5, 0}, 1)
	pos := blob(rng, 80, []float64{0.5, 0}, 1)
	x := append(neg, pos...)
	var y []Label
	for range neg {
		y = append(y, Negative)
	}
	for range pos {
		y = append(y, Positive)
	}
	m, err := Train(x, y, Config{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	correct := 0
	for i := range x {
		if m.Predict(x[i]) == y[i] {
			correct++
		}
	}
	// Heavy overlap: anything clearly above chance is a fit.
	if acc := float64(correct) / float64(len(x)); acc < 0.6 {
		t.Errorf("accuracy on overlapping data = %.3f, want > 0.6", acc)
	}
}

func TestTrainErrors(t *testing.T) {
	if _, err := Train([][]float64{{1}}, []Label{Positive, Negative}, Config{}); err == nil {
		t.Error("sample/label count mismatch should error")
	}
	if _, err := Train([][]float64{{1}, {2}}, []Label{Positive, Positive}, Config{}); !errors.Is(err, ErrNoData) {
		t.Errorf("single-class training err = %v, want ErrNoData", err)
	}
	if _, err := Train([][]float64{{1}, {2}}, []Label{Positive, Label(3)}, Config{}); err == nil {
		t.Error("invalid label should error")
	}
	if _, err := Train(nil, nil, Config{}); err == nil {
		t.Error("empty training set should error")
	}
	if _, err := Train([][]float64{{1}, {2, 3}}, []Label{Positive, Negative}, Config{}); err == nil {
		t.Error("ragged matrix should error")
	}
	// A negative cap would skip the SMO loop and return the zero model,
	// which flags every window as altered.
	if _, err := Train([][]float64{{1}, {2}}, []Label{Positive, Negative}, Config{MaxIter: -1}); err == nil {
		t.Error("negative MaxIter should error")
	}
}

func TestStandardizer(t *testing.T) {
	x := [][]float64{{1, 10}, {3, 10}, {5, 10}}
	s, err := FitStandardizer(x)
	if err != nil {
		t.Fatal(err)
	}
	if s.Mean[0] != 3 || s.Mean[1] != 10 {
		t.Errorf("Mean = %v", s.Mean)
	}
	if s.Std[1] != 1 {
		t.Errorf("zero-spread feature should get σ=1, got %v", s.Std[1])
	}
	z := s.Apply([]float64{3, 10})
	if z[0] != 0 || z[1] != 0 {
		t.Errorf("standardized center = %v, want zeros", z)
	}
	all := s.ApplyAll(x)
	var mean0 float64
	for _, row := range all {
		mean0 += row[0]
	}
	if math.Abs(mean0) > 1e-12 {
		t.Errorf("standardized mean = %v, want 0", mean0/3)
	}
}

func TestStandardizerErrors(t *testing.T) {
	if _, err := FitStandardizer(nil); err == nil {
		t.Error("empty matrix should error")
	}
	if _, err := FitStandardizer([][]float64{{}}); err == nil {
		t.Error("zero-dim matrix should error")
	}
}

func TestModelSerializationRoundTrip(t *testing.T) {
	x, y := separableSet(4, 30)
	m, err := Train(x, y, Config{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	data, err := m.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	m2, err := UnmarshalModel(data)
	if err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if m.Predict(x[i]) != m2.Predict(x[i]) {
			t.Fatalf("prediction %d differs after round-trip", i)
		}
	}
}

func TestUnmarshalModelBadData(t *testing.T) {
	if _, err := UnmarshalModel([]byte("{")); err == nil {
		t.Error("bad JSON should error")
	}
}

func TestQuantizedMatchesFloat(t *testing.T) {
	x, y := separableSet(5, 60)
	m, err := Train(x, y, Config{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	q, err := m.Quantize()
	if err != nil {
		t.Fatal(err)
	}
	agree := 0
	for i := range x {
		qx := fixedpoint.VecFromFloats(x[i])
		if q.Predict(qx) == m.Predict(x[i]) {
			agree++
		}
	}
	if frac := float64(agree) / float64(len(x)); frac < 0.97 {
		t.Errorf("fixed-point agreement = %.3f, want >= 0.97", frac)
	}
}

func TestUnitModelDecisionIsFeatureSum(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, dim := range []int{1, 5, 8} {
		q := UnitModel(dim)
		for trial := 0; trial < 50; trial++ {
			x := make([]float64, dim)
			var sum float64
			for j := range x {
				x[j] = math.Round(200*(rng.Float64()-0.5)*256) / 256 // exact in Q16.16
				sum += x[j]
			}
			if got, want := q.Decision(fixedpoint.VecFromFloats(x)), fixedpoint.FromFloat(sum); got != want {
				t.Fatalf("dim %d: Decision(%v) = %v, want the feature sum %v", dim, x, got.Float(), want.Float())
			}
		}
	}
}

func TestQuantizeErrors(t *testing.T) {
	m := &Model{Weights: []float64{1}}
	if _, err := m.Quantize(); err == nil {
		t.Error("quantize without scaler should error")
	}
	m2 := &Model{Weights: []float64{1, 2}, Scaler: &Standardizer{Mean: []float64{0}, Std: []float64{1}}}
	if _, err := m2.Quantize(); err == nil {
		t.Error("dimension mismatch should error")
	}
}

func TestDecisionMarginSign(t *testing.T) {
	m := &Model{Weights: []float64{1, 0}, Bias: -1}
	if m.Predict([]float64{2, 0}) != Positive {
		t.Error("point beyond margin should be positive")
	}
	if m.Predict([]float64{0, 0}) != Negative {
		t.Error("point behind margin should be negative")
	}
}

func TestTrainDeterministicGivenSeed(t *testing.T) {
	x, y := separableSet(6, 40)
	a, err := Train(x, y, Config{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Train(x, y, Config{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for j := range a.Weights {
		if a.Weights[j] != b.Weights[j] {
			t.Fatalf("weights differ across identical training runs")
		}
	}
	if a.Bias != b.Bias {
		t.Error("bias differs across identical training runs")
	}
}

func TestQuickSeparableBlobsAlwaysLearnable(t *testing.T) {
	f := func(seed int64) bool {
		x, y := separableSet(seed, 20)
		m, err := Train(x, y, Config{Seed: seed})
		if err != nil {
			return false
		}
		correct := 0
		for i := range x {
			if m.Predict(x[i]) == y[i] {
				correct++
			}
		}
		return float64(correct)/float64(len(x)) >= 0.95
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}
