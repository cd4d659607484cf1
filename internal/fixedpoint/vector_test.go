package fixedpoint

import (
	"math"
	"testing"
)

func TestVecFromFloatsRoundTrip(t *testing.T) {
	in := []float64{0, 1.5, -2.25, 100}
	v := VecFromFloats(in)
	for i := range in {
		if out := v[i].Float(); math.Abs(out-in[i]) > 1e-4 {
			t.Errorf("element %d: %v != %v", i, out, in[i])
		}
	}
}

func TestVecFromFloatsSaturates(t *testing.T) {
	v := VecFromFloats([]float64{1e12, -1e12, math.NaN()})
	if v[0] != Max || v[1] != Min {
		t.Errorf("VecFromFloats(±1e12) = %v, %v; want Max, Min", v[0], v[1])
	}
	if v[2] != 0 {
		t.Errorf("VecFromFloats(NaN) = %v, want 0", v[2])
	}
}
