package svm

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

// ringSet is a radially-separable (linearly inseparable) dataset: the
// negative class sits inside the ring of positives.
func ringSet(seed int64, n int) (x [][]float64, y []Label) {
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		r := 0.5 * rng.Float64()
		th := 2 * math.Pi * rng.Float64()
		x = append(x, []float64{r * math.Cos(th), r * math.Sin(th)})
		y = append(y, Negative)
	}
	for i := 0; i < n; i++ {
		r := 2 + 0.5*rng.Float64()
		th := 2 * math.Pi * rng.Float64()
		x = append(x, []float64{r * math.Cos(th), r * math.Sin(th)})
		y = append(y, Positive)
	}
	return x, y
}

func TestTrainRBFSolvesRing(t *testing.T) {
	x, y := ringSet(1, 60)
	m, err := TrainRBF(x, y, RBFConfig{Gamma: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	correct := 0
	for i := range x {
		if m.Predict(x[i]) == y[i] {
			correct++
		}
	}
	if acc := float64(correct) / float64(len(x)); acc < 0.95 {
		t.Errorf("RBF accuracy on ring = %.3f, want >= 0.95", acc)
	}
	if len(m.SupportVecs) == 0 || len(m.SupportVecs) != len(m.Coeffs) {
		t.Errorf("support set malformed: %d SVs, %d coeffs", len(m.SupportVecs), len(m.Coeffs))
	}
}

func TestLinearFailsRingButRBFDoesNot(t *testing.T) {
	// The kernel ablation's point: a linear SVM cannot separate the ring.
	x, y := ringSet(2, 60)
	lin, err := Train(x, y, Config{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	linCorrect := 0
	for i := range x {
		if lin.Predict(x[i]) == y[i] {
			linCorrect++
		}
	}
	linAcc := float64(linCorrect) / float64(len(x))
	if linAcc > 0.8 {
		t.Errorf("linear SVM should struggle on the ring, got %.3f", linAcc)
	}
}

func TestTrainRBFErrors(t *testing.T) {
	if _, err := TrainRBF([][]float64{{1}}, []Label{Positive, Negative}, RBFConfig{}); err == nil {
		t.Error("length mismatch should error")
	}
	if _, err := TrainRBF([][]float64{{1}, {2}}, []Label{Positive, Positive}, RBFConfig{}); !errors.Is(err, ErrNoData) {
		t.Errorf("single-class err = %v", err)
	}
	if _, err := TrainRBF([][]float64{{1}, {2}}, []Label{Positive, Label(9)}, RBFConfig{}); err == nil {
		t.Error("bad label should error")
	}
}

func TestRBFKernelValues(t *testing.T) {
	if got := rbf([]float64{0, 0}, []float64{0, 0}, 1); got != 1 {
		t.Errorf("K(x,x) = %v, want 1", got)
	}
	got := rbf([]float64{0}, []float64{2}, 0.5)
	want := math.Exp(-0.5 * 4)
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("K = %v, want %v", got, want)
	}
}
