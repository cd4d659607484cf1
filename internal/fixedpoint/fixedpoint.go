// Package fixedpoint implements Q16.16 fixed-point arithmetic as used by
// the device-side SIFT detectors.
//
// The Amulet's MSP430FR5989 has no floating-point unit; the paper's
// Simplified and Reduced detector versions were specifically rewritten to
// avoid the C math library. This package is the numeric substrate for the
// emulated device: every operation is integer-only, deterministic, and
// saturating, so results are reproducible across hosts and match what a
// 16/32-bit MCU would compute.
package fixedpoint

import (
	"fmt"
	"math"
)

// Q is a Q16.16 fixed-point number: 1 sign bit, 15 integer bits, 16
// fractional bits. The represented value is int32(q) / 65536.
type Q int32

// One is the Q16.16 representation of 1.0.
const One Q = 1 << Shift

// Shift is the number of fractional bits in a Q value.
const Shift = 16

// Max and Min are the largest and smallest representable Q values
// (approximately ±32768).
const (
	Max Q = math.MaxInt32
	Min Q = math.MinInt32
)

// Eps is the smallest positive Q value (2^-16 ≈ 1.5e-5).
const Eps Q = 1

// FromFloat converts a float64 to Q, rounding to nearest and saturating at
// the representable range.
func FromFloat(f float64) Q {
	scaled := f * float64(One)
	switch {
	case math.IsNaN(scaled):
		return 0
	case scaled >= float64(math.MaxInt32):
		return Max
	case scaled <= float64(math.MinInt32):
		return Min
	}
	// |scaled| < 2^31: adding roundMagic lands it in the binade whose
	// spacing is exactly 1, so the add itself rounds half to even and the
	// integer is the mantissa difference — math.RoundToEven's result at
	// a fraction of its cost. The conversion keeps the add unfused.
	return Q(int64(math.Float64bits(float64(scaled)+roundMagic) - math.Float64bits(roundMagic)))
}

const roundMagic = 1.5 * (1 << 52)

// FromInt converts an int to Q, saturating on overflow.
func FromInt(i int) Q {
	if i > math.MaxInt16 {
		return Max
	}
	if i < math.MinInt16 {
		return Min
	}
	return Q(i) << Shift
}

// Float converts q to float64 exactly (every Q value is representable).
func (q Q) Float() float64 { return float64(q) / float64(One) }

// Int truncates q toward zero and returns the integer part.
func (q Q) Int() int {
	if q < 0 {
		return -int(-q >> Shift)
	}
	return int(q >> Shift)
}

// Raw returns the underlying fixed-point bit pattern.
func (q Q) Raw() int32 { return int32(q) }

// FromRaw builds a Q from a raw bit pattern.
func FromRaw(v int32) Q { return Q(v) }

// String renders q with five fractional digits.
func (q Q) String() string { return fmt.Sprintf("%.5f", q.Float()) }

func saturate64(v int64) Q {
	if v > math.MaxInt32 {
		return Max
	}
	if v < math.MinInt32 {
		return Min
	}
	return Q(v)
}

// Add returns a+b with saturation.
func Add(a, b Q) Q { return saturate64(int64(a) + int64(b)) }

// Sub returns a-b with saturation.
func Sub(a, b Q) Q { return saturate64(int64(a) - int64(b)) }

// Neg returns -a with saturation (Neg(Min) == Max).
func Neg(a Q) Q { return saturate64(-int64(a)) }

// Mul returns a*b with a 64-bit intermediate, rounding to nearest and
// saturating.
func Mul(a, b Q) Q {
	prod := int64(a) * int64(b)
	// Round to nearest (ties toward +inf): add half an LSB before the
	// flooring arithmetic shift.
	prod += 1 << (Shift - 1)
	return saturate64(prod >> Shift)
}

// Div returns a/b, saturating on overflow. Division by zero saturates to
// Max or Min depending on the sign of a (0/0 returns Max), mirroring the
// MCU software-division convention used by the emulator rather than
// trapping.
func Div(a, b Q) Q {
	if b == 0 {
		if a < 0 {
			return Min
		}
		return Max
	}
	num := int64(a) << Shift
	// Round-to-nearest division.
	half := int64(b) / 2
	if (num < 0) == (b < 0) {
		num += half
	} else {
		num -= half
	}
	return saturate64(num / int64(b))
}

// Abs returns |a| with saturation (Abs(Min) == Max).
func Abs(a Q) Q {
	if a < 0 {
		return Neg(a)
	}
	return a
}

// MinQ returns the smaller of a and b.
func MinQ(a, b Q) Q {
	if a < b {
		return a
	}
	return b
}

// MaxQ returns the larger of a and b.
func MaxQ(a, b Q) Q {
	if a > b {
		return a
	}
	return b
}

// Clamp restricts q to [lo, hi]. It returns lo when lo > hi.
func Clamp(q, lo, hi Q) Q {
	if q < lo {
		return lo
	}
	if q > hi {
		return hi
	}
	return q
}

// Lerp linearly interpolates between a and b by t in [0, One].
func Lerp(a, b, t Q) Q {
	return Add(a, Mul(Sub(b, a), t))
}

// Sqrt returns the square root of q using integer Newton iteration on the
// underlying 48-bit scaled value. Negative inputs return 0 (the MCU
// software routine's convention).
func Sqrt(q Q) Q {
	if q <= 0 {
		return 0
	}
	// sqrt(v / 2^16) * 2^16 == sqrt(v * 2^16) == isqrt(v << 16).
	v := uint64(uint32(q)) << Shift
	return Q(isqrt64(v))
}

// isqrt64 returns floor(sqrt(v)) using a bit-by-bit method: deterministic,
// no floating point, bounded 32 iterations — the classic MCU routine.
func isqrt64(v uint64) uint32 {
	var res uint64
	bit := uint64(1) << 62
	for bit > v {
		bit >>= 2
	}
	for bit != 0 {
		if v >= res+bit {
			v -= res + bit
			res = res>>1 + bit
		} else {
			res >>= 1
		}
		bit >>= 2
	}
	return uint32(res)
}

// Pi and related constants in Q16.16.
var (
	Pi     = FromFloat(math.Pi)
	HalfPi = FromFloat(math.Pi / 2)
	TwoPi  = FromFloat(2 * math.Pi)
)

// Atan2 returns the four-quadrant arctangent of y/x in radians, computed
// with a degree-3 polynomial approximation of atan on [0,1] (max error
// ≈ 0.005 rad). This mirrors the table/polynomial routines MCU math
// libraries ship instead of full libm.
func Atan2(y, x Q) Q {
	if x == 0 && y == 0 {
		return 0
	}
	ay, ax := Abs(y), Abs(x)
	var base, r Q
	if ax >= ay {
		r = atanUnit(Div(ay, ax))
		base = r
	} else {
		r = atanUnit(Div(ax, ay))
		base = Sub(HalfPi, r)
	}
	if x < 0 {
		base = Sub(Pi, base)
	}
	if y < 0 {
		base = Neg(base)
	}
	return base
}

// atanUnit approximates atan(t) for t in [0, 1] with
// atan(t) ≈ (π/4)t + 0.273·t·(1−t)  (Rajan et al. approximation).
func atanUnit(t Q) Q {
	t = Clamp(t, 0, One)
	quarterPi := FromFloat(math.Pi / 4)
	k := FromFloat(0.273)
	return Add(Mul(quarterPi, t), Mul(Mul(k, t), Sub(One, t)))
}

// Hypot2 returns x² + y² (the squared distance used by the Simplified and
// Reduced feature sets precisely to avoid Sqrt).
func Hypot2(x, y Q) Q { return Add(Mul(x, x), Mul(y, y)) }

// Hypot returns sqrt(x² + y²).
func Hypot(x, y Q) Q { return Sqrt(Hypot2(x, y)) }
