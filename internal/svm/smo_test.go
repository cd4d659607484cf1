package svm

import (
	"math"
	"math/rand"
	"testing"
)

// smoFullScan is simplified SMO whose f scans every index and reads
// column i: the reference smo's nonzero-α list is held to.
func smoFullScan(gram [][]float64, y []Label, cfg Config) (alpha []float64, b float64, iter int) {
	maxIter := cfg.MaxIter
	if maxIter == 0 {
		maxIter = defaultMaxIter
	}
	m := len(gram)
	alpha = make([]float64, m)
	rng := rand.New(rand.NewSource(cfg.Seed))

	f := func(i int) float64 {
		var s float64
		for k := 0; k < m; k++ {
			if alpha[k] != 0 {
				s += alpha[k] * float64(y[k]) * gram[k][i]
			}
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

// overlapSet draws two heavily overlapping classes in dim dimensions.
func overlapSet(seed int64, n, dim int) (x [][]float64, y []Label) {
	rng := rand.New(rand.NewSource(seed))
	neg, pos := make([]float64, dim), make([]float64, dim)
	neg[0], pos[0] = -0.3, 0.3
	x = append(blob(rng, n, neg, 1), blob(rng, n, pos, 1)...)
	for i := range x {
		y = append(y, Negative)
		if i >= n {
			y[i] = Positive
		}
	}
	return x, y
}

// TestSMOMatchesFullScan holds smo to the full-scan reference bit for
// bit: every α, the bias and the iteration count, on linear and RBF
// Gram matrices.
func TestSMOMatchesFullScan(t *testing.T) {
	type set struct {
		name string
		x    [][]float64
		y    []Label
		cfg  Config
	}
	var sets []set
	x, y := separableSet(1, 40)
	sets = append(sets, set{"separable", x, y, Config{Seed: 1}})
	x, y = ringSet(1, 60)
	sets = append(sets, set{"ring", x, y, Config{Seed: 7}})
	x, y = overlapSet(3, 80, 2)
	sets = append(sets, set{"overlap", x, y, Config{Seed: 3}})
	x, y = overlapSet(11, 120, 8)
	sets = append(sets, set{"overlap8", x, y, Config{Seed: 11, MaxIter: 150}})

	for _, s := range sets {
		_, z, err := prepare(s.x, s.y, s.cfg)
		if err != nil {
			t.Fatal(err)
		}
		gamma := 1 / float64(len(z[0]))
		grams := []struct {
			kernel string
			gram   [][]float64
		}{
			{"linear", gramMatrix(z, dot)},
			{"rbf", gramMatrix(z, func(a, b []float64) float64 { return rbf(a, b, nil, gamma) })},
		}
		for _, g := range grams {
			gram := g.gram
			t.Run(s.name+"/"+g.kernel, func(t *testing.T) {
				alpha, b, iter := smo(gram, s.y, s.cfg)
				wantAlpha, wantB, wantIter := smoFullScan(gram, s.y, s.cfg)
				if iter != wantIter {
					t.Errorf("iterations %d, want %d", iter, wantIter)
				}
				if math.Float64bits(b) != math.Float64bits(wantB) {
					t.Errorf("bias %v, want %v", b, wantB)
				}
				nonzero := 0
				for k := range alpha {
					if math.Float64bits(alpha[k]) != math.Float64bits(wantAlpha[k]) {
						t.Fatalf("α[%d] = %v, want %v", k, alpha[k], wantAlpha[k])
					}
					if alpha[k] != 0 {
						nonzero++
					}
				}
				if nonzero == 0 {
					t.Error("no support vectors: the check compared nothing")
				}
			})
		}
	}
}
