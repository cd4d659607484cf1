// Package baseline implements the comparison classifiers behind the
// paper's model-selection statement: "We chose SVM as it performed the
// best among the algorithms we tried." The alternatives here — k-nearest
// neighbours, logistic regression, and a nearest-centroid rule — train on
// the same feature points as the SVM, so the classifier-comparison
// experiment can quantify that choice.
//
// All classifiers share the svm package's Label convention (Positive =
// altered window) and standardize features internally.
package baseline

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"github.com/wiot-security/sift/internal/svm"
)

// Classifier is a trainable binary classifier over feature vectors.
type Classifier interface {
	// Name identifies the algorithm in reports.
	Name() string
	// Fit trains on raw feature vectors with ±1 labels.
	Fit(x [][]float64, y []svm.Label) error
	// Predict labels one raw feature vector.
	Predict(x []float64) svm.Label
	// Score returns a decision value (higher = more likely altered).
	Score(x []float64) float64
}

// Verify interface compliance.
var (
	_ Classifier = (*KNN)(nil)
	_ Classifier = (*Logistic)(nil)
	_ Classifier = (*NearestCentroid)(nil)
	_ Classifier = (*SVM)(nil)
)

// errNotFitted is returned by Predict/Score paths that need Fit first.
var errNotFitted = errors.New("baseline: classifier not fitted")

func validate(x [][]float64, y []svm.Label) (dim int, err error) {
	if len(x) == 0 || len(x) != len(y) {
		return 0, fmt.Errorf("baseline: %d samples, %d labels", len(x), len(y))
	}
	dim = len(x[0])
	if dim == 0 {
		return 0, errors.New("baseline: zero-dimensional features")
	}
	var pos, neg int
	for i, row := range x {
		if len(row) != dim {
			return 0, fmt.Errorf("baseline: ragged row %d (%d features, want %d)", i, len(row), dim)
		}
		switch y[i] {
		case svm.Positive:
			pos++
		case svm.Negative:
			neg++
		default:
			return 0, fmt.Errorf("baseline: label %d not ±1", int(y[i]))
		}
	}
	if pos == 0 || neg == 0 {
		return 0, svm.ErrNoData
	}
	return dim, nil
}

// KNN is a k-nearest-neighbours classifier with Euclidean distance on
// standardized features.
type KNN struct {
	K int // neighbourhood size (default 5)

	scaler *svm.Standardizer
	xs     [][]float64
	ys     []svm.Label
}

// Name implements Classifier.
func (k *KNN) Name() string { return fmt.Sprintf("kNN(k=%d)", k.kOrDefault()) }

func (k *KNN) kOrDefault() int {
	if k.K <= 0 {
		return 5
	}
	return k.K
}

// Fit implements Classifier: it memorizes the standardized training set.
func (k *KNN) Fit(x [][]float64, y []svm.Label) error {
	if _, err := validate(x, y); err != nil {
		return err
	}
	scaler, err := svm.FitStandardizer(x)
	if err != nil {
		return err
	}
	k.scaler = scaler
	k.xs = scaler.ApplyAll(x)
	k.ys = append([]svm.Label(nil), y...)
	return nil
}

// Score implements Classifier: the fraction of positive neighbours,
// centered to ±0.5.
func (k *KNN) Score(x []float64) float64 {
	if k.scaler == nil {
		return 0
	}
	z := k.scaler.Apply(x)
	type cand struct {
		d float64
		y svm.Label
	}
	cands := make([]cand, len(k.xs))
	for i, row := range k.xs {
		cands[i] = cand{d: sqDist(z, row), y: k.ys[i]}
	}
	sort.Slice(cands, func(a, b int) bool { return cands[a].d < cands[b].d })
	kk := k.kOrDefault()
	if kk > len(cands) {
		kk = len(cands)
	}
	pos := 0
	for _, c := range cands[:kk] {
		if c.y == svm.Positive {
			pos++
		}
	}
	return float64(pos)/float64(kk) - 0.5
}

// Predict implements Classifier.
func (k *KNN) Predict(x []float64) svm.Label { return sign(k.Score(x)) }

func sqDist(a, b []float64) float64 {
	var s float64
	for i := range a {
		if i >= len(b) {
			break
		}
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

func sign(v float64) svm.Label {
	if v >= 0 {
		return svm.Positive
	}
	return svm.Negative
}

// Logistic is L2-regularized logistic regression trained by full-batch
// gradient descent on standardized features.
type Logistic struct {
	Epochs int     // gradient steps (default 300)
	LR     float64 // learning rate (default 0.1)
	Lambda float64 // L2 strength (default 1e-3)

	scaler *svm.Standardizer
	w      []float64
	b      float64
}

// Name implements Classifier.
func (l *Logistic) Name() string { return "logistic" }

func (l *Logistic) fillDefaults() {
	if l.Epochs <= 0 {
		l.Epochs = 300
	}
	if l.LR <= 0 {
		l.LR = 0.1
	}
	if l.Lambda <= 0 {
		l.Lambda = 1e-3
	}
}

// Fit implements Classifier.
func (l *Logistic) Fit(x [][]float64, y []svm.Label) error {
	dim, err := validate(x, y)
	if err != nil {
		return err
	}
	l.fillDefaults()
	scaler, err := svm.FitStandardizer(x)
	if err != nil {
		return err
	}
	l.scaler = scaler
	z := scaler.ApplyAll(x)
	l.w = make([]float64, dim)
	l.b = 0
	n := float64(len(z))
	grad := make([]float64, dim)
	for epoch := 0; epoch < l.Epochs; epoch++ {
		for j := range grad {
			grad[j] = l.Lambda * l.w[j]
		}
		gb := 0.0
		for i, row := range z {
			t := 0.0 // target in {0,1}
			if y[i] == svm.Positive {
				t = 1
			}
			p := sigmoid(dot(l.w, row) + l.b)
			e := (p - t) / n
			for j := range row {
				grad[j] += e * row[j]
			}
			gb += e
		}
		for j := range l.w {
			l.w[j] -= l.LR * grad[j]
		}
		l.b -= l.LR * gb
	}
	return nil
}

// Score implements Classifier: the log-odds.
func (l *Logistic) Score(x []float64) float64 {
	if l.scaler == nil {
		return 0
	}
	return dot(l.w, l.scaler.Apply(x)) + l.b
}

// Predict implements Classifier.
func (l *Logistic) Predict(x []float64) svm.Label { return sign(l.Score(x)) }

func sigmoid(v float64) float64 { return 1 / (1 + math.Exp(-v)) }

func dot(a, b []float64) float64 {
	var s float64
	for i := range a {
		if i >= len(b) {
			break
		}
		s += a[i] * b[i]
	}
	return s
}

// NearestCentroid classifies by the closer class centroid in standardized
// space — the simplest template matcher, a floor for the comparison.
type NearestCentroid struct {
	scaler   *svm.Standardizer
	centroid map[svm.Label][]float64
}

// Name implements Classifier.
func (c *NearestCentroid) Name() string { return "nearest-centroid" }

// Fit implements Classifier.
func (c *NearestCentroid) Fit(x [][]float64, y []svm.Label) error {
	dim, err := validate(x, y)
	if err != nil {
		return err
	}
	scaler, err := svm.FitStandardizer(x)
	if err != nil {
		return err
	}
	c.scaler = scaler
	z := scaler.ApplyAll(x)
	sums := map[svm.Label][]float64{
		svm.Positive: make([]float64, dim),
		svm.Negative: make([]float64, dim),
	}
	counts := map[svm.Label]int{}
	for i, row := range z {
		for j, v := range row {
			sums[y[i]][j] += v
		}
		counts[y[i]]++
	}
	c.centroid = map[svm.Label][]float64{}
	for lbl, sum := range sums {
		mean := make([]float64, dim)
		for j := range sum {
			mean[j] = sum[j] / float64(counts[lbl])
		}
		c.centroid[lbl] = mean
	}
	return nil
}

// Score implements Classifier: distance-to-negative minus
// distance-to-positive.
func (c *NearestCentroid) Score(x []float64) float64 {
	if c.scaler == nil {
		return 0
	}
	z := c.scaler.Apply(x)
	return sqDist(z, c.centroid[svm.Negative]) - sqDist(z, c.centroid[svm.Positive])
}

// Predict implements Classifier.
func (c *NearestCentroid) Predict(x []float64) svm.Label { return sign(c.Score(x)) }

// SVM adapts the svm package's linear SVM to the Classifier interface so
// the comparison runs all algorithms through one loop.
type SVM struct {
	Config svm.Config

	model *svm.Model
}

// Name implements Classifier.
func (s *SVM) Name() string { return "linear-SVM" }

// Fit implements Classifier.
func (s *SVM) Fit(x [][]float64, y []svm.Label) error {
	m, err := svm.Train(x, y, s.Config)
	if err != nil {
		return err
	}
	s.model = m
	return nil
}

// Score implements Classifier.
func (s *SVM) Score(x []float64) float64 {
	if s.model == nil {
		return 0
	}
	return s.model.Decision(x)
}

// Predict implements Classifier.
func (s *SVM) Predict(x []float64) svm.Label { return sign(s.Score(x)) }

// RBFSVM adapts the RBF-kernel SVM. It is in the comparison to justify
// the paper's linear-kernel choice: any accuracy edge has to be weighed
// against storing every support vector on a 128 KB device and evaluating
// an exponential per vector per window.
type RBFSVM struct {
	Config svm.Config

	model *svm.KernelModel
}

// Name implements Classifier.
func (s *RBFSVM) Name() string { return "RBF-SVM" }

// Fit implements Classifier.
func (s *RBFSVM) Fit(x [][]float64, y []svm.Label) error {
	m, err := svm.TrainRBF(x, y, s.Config)
	if err != nil {
		return err
	}
	s.model = m
	return nil
}

// Score implements Classifier.
func (s *RBFSVM) Score(x []float64) float64 {
	if s.model == nil {
		return 0
	}
	return s.model.Decision(x)
}

// Predict implements Classifier.
func (s *RBFSVM) Predict(x []float64) svm.Label { return sign(s.Score(x)) }

var _ Classifier = (*RBFSVM)(nil)

// All returns one instance of every algorithm for the comparison
// experiment, the SVMs configured with cfg.
func All(cfg svm.Config) []Classifier {
	return []Classifier{
		&SVM{Config: cfg},
		&RBFSVM{Config: cfg},
		&KNN{K: 5},
		&Logistic{},
		&NearestCentroid{},
	}
}
