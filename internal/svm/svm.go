// Package svm implements the machine-learning substrate of SIFT: a linear
// support vector machine trained with sequential minimal optimization
// (SMO), feature standardization, model serialization, and a fixed-point
// export of the prediction function for the emulated device.
//
// The paper trains per-user SVMs offline (libsvm under MATLAB) and then
// "translates the prediction function of the trained model into C code"
// for the Amulet's MLClassifier state. This package mirrors that flow:
// Train runs on the host in float64; Model.Quantize produces the Q16.16
// coefficients that internal/amulet/program compiles into device bytecode.
package svm

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"

	"github.com/wiot-security/sift/internal/fixedpoint"
)

// Label is a binary class label.
type Label int

const (
	// Negative marks an unaltered (genuine) window.
	Negative Label = -1
	// Positive marks an altered (attacked) window.
	Positive Label = 1
)

// ErrNoData is returned when a training set is empty or single-class.
var ErrNoData = errors.New("svm: training set must contain both classes")

// Standardizer holds per-feature affine normalization (z = (x−μ)/σ).
type Standardizer struct {
	Mean []float64 `json:"mean"`
	Std  []float64 `json:"std"`
}

// FitStandardizer estimates per-feature mean and standard deviation.
// Features with zero spread get σ = 1 so they pass through centered.
func FitStandardizer(x [][]float64) (*Standardizer, error) {
	if len(x) == 0 || len(x[0]) == 0 {
		return nil, errors.New("svm: cannot standardize an empty design matrix")
	}
	dim := len(x[0])
	s := &Standardizer{Mean: make([]float64, dim), Std: make([]float64, dim)}
	for _, row := range x {
		if len(row) != dim {
			return nil, fmt.Errorf("svm: ragged design matrix: row has %d features, want %d", len(row), dim)
		}
		for j, v := range row {
			s.Mean[j] += v
		}
	}
	n := float64(len(x))
	for j := range s.Mean {
		s.Mean[j] /= n
	}
	for _, row := range x {
		for j, v := range row {
			d := v - s.Mean[j]
			s.Std[j] += d * d
		}
	}
	for j := range s.Std {
		s.Std[j] = math.Sqrt(s.Std[j] / n)
		if s.Std[j] == 0 {
			s.Std[j] = 1
		}
	}
	return s, nil
}

// Apply standardizes one feature vector into a new slice.
func (s *Standardizer) Apply(x []float64) []float64 {
	out := make([]float64, len(x))
	for j, v := range x {
		out[j] = s.z(j, v)
	}
	return out
}

// z standardizes feature j's value v.
func (s *Standardizer) z(j int, v float64) float64 { return (v - s.Mean[j]) / s.Std[j] }

// ApplyAll standardizes a whole design matrix.
func (s *Standardizer) ApplyAll(x [][]float64) [][]float64 {
	out := make([][]float64, len(x))
	for i, row := range x {
		out[i] = s.Apply(row)
	}
	return out
}

// Model is a trained linear SVM: predicts sign(w·z + b) on standardized
// features z.
type Model struct {
	Weights []float64     `json:"weights"`
	Bias    float64       `json:"bias"`
	Scaler  *Standardizer `json:"scaler"`

	// Training diagnostics.
	SupportVectors int `json:"supportVectors"`
	Iterations     int `json:"iterations"`
}

// Decision returns the signed margin w·z + b for a raw (unstandardized)
// feature vector. It standardizes each element as Standardizer.Apply
// does but without building a slice, so it allocates nothing.
func (m *Model) Decision(x []float64) float64 {
	var s float64
	for j, w := range m.Weights {
		if j < len(x) {
			z := x[j]
			if m.Scaler != nil {
				z = m.Scaler.z(j, z)
			}
			s += w * z
		}
	}
	return s + m.Bias
}

// Predict classifies a raw feature vector.
func (m *Model) Predict(x []float64) Label {
	if m.Decision(x) >= 0 {
		return Positive
	}
	return Negative
}

// MarshalJSON / UnmarshalJSON round-trip the model for storage. (The
// default struct tags already produce a stable schema; these helpers exist
// so callers don't need to know the encoding.)
func (m *Model) Marshal() ([]byte, error) { return json.Marshal(m) }

// UnmarshalModel decodes a model produced by Marshal.
func UnmarshalModel(data []byte) (*Model, error) {
	var m Model
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("svm: decode model: %w", err)
	}
	return &m, nil
}

// Config parameterizes training; SMO's other settings are the constants
// below.
type Config struct {
	MaxIter int   // hard iteration cap (default 10000; negative is an error)
	Seed    int64 // RNG seed for SMO's second-index choice
}

// The fixed SMO settings.
const (
	softMargin     = 1.0   // C
	kktTol         = 1e-3  // KKT violation tolerance
	maxPasses      = 5     // consecutive no-change passes before stopping
	defaultMaxIter = 10000 // iteration cap when Config.MaxIter is 0
)

// Train fits a linear SVM on raw features x with labels y using simplified
// SMO. Standardization is fitted internally and stored with the model.
func Train(x [][]float64, y []Label, cfg Config) (*Model, error) {
	scaler, z, err := prepare(x, y, cfg)
	if err != nil {
		return nil, err
	}
	alpha, b, iter := smo(gramMatrix(z, dot), y, cfg)

	// Collapse to a primal weight vector (linear kernel only).
	dim := len(z[0])
	w := make([]float64, dim)
	sv := 0
	for i := range z {
		if alpha[i] > 0 {
			sv++
			for j := 0; j < dim; j++ {
				w[j] += alpha[i] * float64(y[i]) * z[i][j]
			}
		}
	}

	return &Model{
		Weights:        w,
		Bias:           b,
		Scaler:         scaler,
		SupportVectors: sv,
		Iterations:     iter,
	}, nil
}

// prepare checks the configuration and labels, then fits the
// standardizer and returns it with the standardized design matrix.
func prepare(x [][]float64, y []Label, cfg Config) (*Standardizer, [][]float64, error) {
	if cfg.MaxIter < 0 {
		return nil, nil, fmt.Errorf("svm: iteration cap %d must not be negative", cfg.MaxIter)
	}
	if len(x) != len(y) {
		return nil, nil, fmt.Errorf("svm: %d samples but %d labels", len(x), len(y))
	}
	var pos, neg int
	for _, l := range y {
		switch l {
		case Positive:
			pos++
		case Negative:
			neg++
		default:
			return nil, nil, fmt.Errorf("svm: label must be ±1, got %d", int(l))
		}
	}
	if pos == 0 || neg == 0 {
		return nil, nil, ErrNoData
	}
	scaler, err := FitStandardizer(x)
	if err != nil {
		return nil, nil, err
	}
	return scaler, scaler.ApplyAll(x), nil
}

// gramMatrix precomputes the kernel between every pair of rows. m is a
// few hundred for the paper's protocol, so O(m²) memory is fine on the
// host.
func gramMatrix(z [][]float64, kernel func(a, b []float64) float64) [][]float64 {
	m := len(z)
	gram := make([][]float64, m)
	for i := range gram {
		gram[i] = make([]float64, m)
		for j := 0; j <= i; j++ {
			gram[i][j] = kernel(z[i], z[j])
			gram[j][i] = gram[i][j]
		}
	}
	return gram
}

// smo runs simplified SMO over a precomputed Gram matrix and returns the
// dual coefficients α, the bias and the number of iterations run.
func smo(gram [][]float64, y []Label, cfg Config) (alpha []float64, b float64, iter int) {
	maxIter := cfg.MaxIter
	if maxIter == 0 {
		maxIter = defaultMaxIter
	}
	m := len(gram)
	alpha = make([]float64, m)
	rng := rand.New(rand.NewSource(cfg.Seed))

	// nz lists the indices with a nonzero α in ascending order, so f sums
	// the terms a scan of every index would, in the same order. It reads
	// row i, which mirrors column i bit for bit.
	var nz []int
	f := func(i int) float64 {
		row := gram[i]
		var s float64
		for _, k := range nz {
			s += alpha[k] * float64(y[k]) * row[k]
		}
		return s + b
	}

	passes := 0
	for passes < maxPasses && iter < maxIter {
		iter++
		changed := 0
		for i := 0; i < m; i++ {
			ei := f(i) - float64(y[i])
			yi := float64(y[i])
			if !((yi*ei < -kktTol && alpha[i] < softMargin) || (yi*ei > kktTol && alpha[i] > 0)) {
				continue
			}
			j := rng.Intn(m - 1)
			if j >= i {
				j++
			}
			ej := f(j) - float64(y[j])
			yj := float64(y[j])

			ai, aj := alpha[i], alpha[j]
			var lo, hi float64
			if y[i] != y[j] {
				lo = math.Max(0, aj-ai)
				hi = math.Min(softMargin, softMargin+aj-ai)
			} else {
				lo = math.Max(0, ai+aj-softMargin)
				hi = math.Min(softMargin, ai+aj)
			}
			if lo == hi {
				continue
			}
			eta := 2*gram[i][j] - gram[i][i] - gram[j][j]
			if eta >= 0 {
				continue
			}
			ajNew := math.Min(hi, math.Max(lo, aj-yj*(ei-ej)/eta))
			if math.Abs(ajNew-aj) < 1e-5 {
				continue
			}
			aiNew := ai + yi*yj*(aj-ajNew)

			b1 := b - ei - yi*(aiNew-ai)*gram[i][i] - yj*(ajNew-aj)*gram[i][j]
			b2 := b - ej - yi*(aiNew-ai)*gram[i][j] - yj*(ajNew-aj)*gram[j][j]
			switch {
			case aiNew > 0 && aiNew < softMargin:
				b = b1
			case ajNew > 0 && ajNew < softMargin:
				b = b2
			default:
				b = (b1 + b2) / 2
			}
			alpha[i], alpha[j] = aiNew, ajNew
			nz = track(nz, i, aiNew != 0)
			nz = track(nz, j, ajNew != 0)
			changed++
		}
		if changed == 0 {
			passes++
		} else {
			passes = 0
		}
	}
	return alpha, b, iter
}

// track returns the ascending index list nz with k in it when in is set,
// and without it otherwise.
func track(nz []int, k int, in bool) []int {
	at, found := slices.BinarySearch(nz, k)
	switch {
	case in && !found:
		return slices.Insert(nz, at, k)
	case !in && found:
		return slices.Delete(nz, at, at+1)
	}
	return nz
}

func dot(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// Quantized is the device-ready prediction function: all coefficients in
// Q16.16. The device computes sign(Σ wq·(x−μq)·invσq + bq) without
// floating point.
type Quantized struct {
	Weights fixedpoint.Vec // per-feature weight
	Mean    fixedpoint.Vec // standardizer mean
	InvStd  fixedpoint.Vec // reciprocal of standardizer std (multiply, don't divide)
	Bias    fixedpoint.Q
}

// Quantize exports the model's prediction function to fixed point.
func (m *Model) Quantize() (*Quantized, error) {
	if m.Scaler == nil {
		return nil, errors.New("svm: model has no standardizer to quantize")
	}
	if len(m.Weights) != len(m.Scaler.Mean) {
		return nil, fmt.Errorf("svm: weight dim %d != scaler dim %d", len(m.Weights), len(m.Scaler.Mean))
	}
	q := &Quantized{
		Weights: fixedpoint.VecFromFloats(m.Weights),
		Mean:    fixedpoint.VecFromFloats(m.Scaler.Mean),
		InvStd:  make(fixedpoint.Vec, len(m.Scaler.Std)),
		Bias:    fixedpoint.FromFloat(m.Bias),
	}
	for i, s := range m.Scaler.Std {
		if s == 0 {
			s = 1
		}
		q.InvStd[i] = fixedpoint.FromFloat(1 / s)
	}
	return q, nil
}

// Decision computes the fixed-point signed margin for a raw fixed-point
// feature vector.
func (q *Quantized) Decision(x fixedpoint.Vec) fixedpoint.Q {
	acc := q.Bias
	for j := range q.Weights {
		if j >= len(x) {
			break
		}
		z := fixedpoint.Mul(fixedpoint.Sub(x[j], q.Mean[j]), q.InvStd[j])
		acc = fixedpoint.Add(acc, fixedpoint.Mul(q.Weights[j], z))
	}
	return acc
}

// UnitModel returns the unit quantized model of dimension dim: weights 1,
// mean 0, inverse std 1 and bias 0, so Decision returns the feature sum.
// Resource measurements classify through it, since a detector's cycle
// and memory cost does not depend on the model's values.
func UnitModel(dim int) *Quantized {
	q := &Quantized{
		Weights: make(fixedpoint.Vec, dim),
		Mean:    make(fixedpoint.Vec, dim),
		InvStd:  make(fixedpoint.Vec, dim),
	}
	for i := 0; i < dim; i++ {
		q.Weights[i] = fixedpoint.One
		q.InvStd[i] = fixedpoint.One
	}
	return q
}

// Predict classifies a raw fixed-point feature vector.
func (q *Quantized) Predict(x fixedpoint.Vec) Label {
	if q.Decision(x) >= 0 {
		return Positive
	}
	return Negative
}
