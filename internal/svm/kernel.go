package svm

import "math"

// KernelModel is a nonlinear SVM in dual form: decision(x) =
// Σ αᵢyᵢ·K(svᵢ, x) + b. It exists for the kernel-ablation study — the
// paper fixes the *linear* kernel, and this model quantifies what an RBF
// kernel would buy (and what it would cost: the device would have to
// store every support vector and evaluate an exponential per vector per
// window, which is exactly why the linear choice is right for the
// Amulet).
type KernelModel struct {
	SupportVecs [][]float64 // standardized support vectors
	Coeffs      []float64   // αᵢyᵢ
	Bias        float64
	Gamma       float64
	Scaler      *Standardizer
}

// Decision returns the signed margin for a raw feature vector. It
// standardizes each element as it goes, so it allocates nothing.
func (m *KernelModel) Decision(x []float64) float64 {
	s := m.Bias
	for i, sv := range m.SupportVecs {
		s += m.Coeffs[i] * rbf(sv, x, m.Scaler, m.Gamma)
	}
	return s
}

// Predict classifies a raw feature vector.
func (m *KernelModel) Predict(x []float64) Label {
	if m.Decision(x) >= 0 {
		return Positive
	}
	return Negative
}

// rbf is the kernel exp(−γ‖a − b‖²) over a's length, with each element
// of b standardized by scaler first when scaler is not nil.
func rbf(a, b []float64, scaler *Standardizer, gamma float64) float64 {
	var d float64
	for i := range a {
		if i >= len(b) {
			break
		}
		v := b[i]
		if scaler != nil {
			v = scaler.z(i, v)
		}
		diff := a[i] - v
		d += diff * diff
	}
	return math.Exp(-gamma * d)
}

// TrainRBF fits an RBF-kernel SVM with the linear trainer's SMO solver,
// at kernel width γ = 1/dim.
func TrainRBF(x [][]float64, y []Label, cfg Config) (*KernelModel, error) {
	scaler, z, err := prepare(x, y, cfg)
	if err != nil {
		return nil, err
	}
	gamma := 1 / float64(len(z[0]))
	alpha, b, _ := smo(gramMatrix(z, func(a, b []float64) float64 { return rbf(a, b, nil, gamma) }), y, cfg)

	model := &KernelModel{Gamma: gamma, Bias: b, Scaler: scaler}
	for i := range z {
		if alpha[i] > 0 {
			model.SupportVecs = append(model.SupportVecs, z[i])
			model.Coeffs = append(model.Coeffs, alpha[i]*float64(y[i]))
		}
	}
	return model, nil
}
