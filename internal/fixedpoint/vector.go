package fixedpoint

// Vec is a slice of Q values: the quantized model's weight and scaler
// vectors.
type Vec []Q

// VecFromFloats converts a float64 slice to a Vec.
func VecFromFloats(fs []float64) Vec {
	v := make(Vec, len(fs))
	for i, f := range fs {
		v[i] = FromFloat(f)
	}
	return v
}
