package fixedpoint

import (
	"math"
	"testing"
	"testing/quick"
)

func TestFromFloatRoundTrip(t *testing.T) {
	cases := []float64{0, 1, -1, 0.5, -0.5, 3.14159, -2.71828, 100.25, -100.25, 32767, -32768}
	for _, f := range cases {
		q := FromFloat(f)
		if got := q.Float(); math.Abs(got-f) > 1.0/65536 {
			t.Errorf("FromFloat(%v).Float() = %v, want within 1 LSB", f, got)
		}
	}
}

// TestFromFloatRoundsHalfToEven pins FromFloat to the definition it
// implements, saturate then math.RoundToEven, on ties, the saturation
// edges, tiny and signed-zero inputs, and arbitrary bit patterns.
func TestFromFloatRoundsHalfToEven(t *testing.T) {
	ref := refFromFloat
	var cases []float64
	for _, k := range []float64{0, 1, 2, 3, 1 << 20, 1<<31 - 2, 1<<31 - 1, 1 << 31} {
		for _, d := range []float64{-0.75, -0.5, -0.25, 0, 0.25, 0.5, 0.75} {
			cases = append(cases, (k+d)/float64(One), -(k+d)/float64(One))
		}
	}
	cases = append(cases, math.Copysign(0, -1), math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		math.MaxFloat64, -math.MaxFloat64)
	state := uint64(1)
	for i := 0; i < 100_000; i++ {
		state = state*6364136223846793005 + 1442695040888963407
		cases = append(cases, math.Float64frombits(state), float64(int64(state))/(1<<44))
	}
	for _, f := range cases {
		if got, want := FromFloat(f), ref(f); got != want {
			t.Fatalf("FromFloat(%v) = %d, want %d", f, got, want)
		}
	}
}

// refFromFloat is FromFloat's definition: NaN to 0, saturate, then
// math.RoundToEven.
func refFromFloat(f float64) Q {
	scaled := f * float64(One)
	switch {
	case math.IsNaN(scaled):
		return 0
	case scaled >= float64(math.MaxInt32):
		return Max
	case scaled <= float64(math.MinInt32):
		return Min
	}
	return Q(math.RoundToEven(scaled))
}

// TestFromFloatEdgeTable holds FromFloat's in-range fast path and its
// NaN and saturation fallback to refFromFloat on the inputs at their
// border, by name.
func TestFromFloatEdgeTable(t *testing.T) {
	const lsb = 1.0 / (1 << Shift)
	top := float64(math.MaxInt32) / (1 << Shift) // (2^31−1)/2^16, Max's value
	cases := []struct {
		name string
		in   float64
	}{
		{"+0", 0},
		{"-0", math.Copysign(0, -1)},
		{"NaN", math.NaN()},
		{"+Inf", math.Inf(1)},
		{"-Inf", math.Inf(-1)},
		{"smallest subnormal", math.SmallestNonzeroFloat64},
		{"-smallest subnormal", -math.SmallestNonzeroFloat64},
		{"largest subnormal", math.Float64frombits(1<<52 - 1)},
		{"-largest subnormal", -math.Float64frombits(1<<52 - 1)},
		{"2^15", 1 << 15},
		{"-2^15", -(1 << 15)},
		{"2^15 - lsb", 1<<15 - lsb},
		{"-2^15 + lsb", -(1 << 15) + lsb},
		{"2^15 + lsb", 1<<15 + lsb},
		{"-2^15 - lsb", -(1 << 15) - lsb},
		{"next below 2^15", math.Nextafter(1<<15, 0)},
		{"next above -2^15", math.Nextafter(-(1 << 15), 0)},
		{"next above 2^15", math.Nextafter(1<<15, math.Inf(1))},
		{"next below -2^15", math.Nextafter(-(1 << 15), math.Inf(-1))},
		{"(2^31-1)/2^16", top},
		{"-(2^31-1)/2^16", -top},
		{"(2^31-1)/2^16 - half lsb", top - lsb/2},
		{"-(2^31-1)/2^16 - half lsb", -top - lsb/2},
		{"next below (2^31-1)/2^16", math.Nextafter(top, 0)},
		{"next above (2^31-1)/2^16", math.Nextafter(top, math.Inf(1))},
		{"tie 0.5 lsb", lsb / 2},
		{"tie -0.5 lsb", -lsb / 2},
		{"tie 1.5 lsb", 1.5 * lsb},
		{"tie -1.5 lsb", -1.5 * lsb},
		{"tie 2.5 lsb", 2.5 * lsb},
		{"tie -2.5 lsb", -2.5 * lsb},
		{"tie 1 + 0.5 lsb", 1 + lsb/2},
		{"tie -1 - 0.5 lsb", -1 - lsb/2},
		{"next above tie 0.5 lsb", math.Nextafter(lsb/2, 1)},
		{"next below tie 0.5 lsb", math.Nextafter(lsb/2, 0)},
	}
	for _, tc := range cases {
		got, want := FromFloat(tc.in), refFromFloat(tc.in)
		if got != want {
			t.Errorf("%s: FromFloat(%v) = %d, want %d", tc.name, tc.in, got, want)
		}
	}
}

func TestFromFloatSaturates(t *testing.T) {
	cases := []struct {
		in   float64
		want Q
	}{
		{1e9, Max},
		{-1e9, Min},
		{math.Inf(1), Max},
		{math.Inf(-1), Min},
		{math.NaN(), 0},
	}
	for _, tc := range cases {
		if got := FromFloat(tc.in); got != tc.want {
			t.Errorf("FromFloat(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

func TestFromInt(t *testing.T) {
	cases := []struct {
		in   int
		want float64
	}{
		{0, 0}, {1, 1}, {-1, -1}, {1000, 1000}, {-1000, -1000},
	}
	for _, tc := range cases {
		if got := FromInt(tc.in).Float(); got != tc.want {
			t.Errorf("FromInt(%d).Float() = %v, want %v", tc.in, got, tc.want)
		}
	}
	if FromInt(1<<20) != Max {
		t.Errorf("FromInt overflow should saturate to Max")
	}
	if FromInt(-(1 << 20)) != Min {
		t.Errorf("FromInt underflow should saturate to Min")
	}
}

func TestIntTruncatesTowardZero(t *testing.T) {
	cases := []struct {
		in   float64
		want int
	}{
		{2.9, 2}, {-2.9, -2}, {0.99, 0}, {-0.99, 0}, {5, 5}, {-5, -5},
	}
	for _, tc := range cases {
		if got := FromFloat(tc.in).Int(); got != tc.want {
			t.Errorf("FromFloat(%v).Int() = %d, want %d", tc.in, got, tc.want)
		}
	}
}

func TestArithmeticBasics(t *testing.T) {
	a, b := FromFloat(1.5), FromFloat(2.25)
	if got := Add(a, b).Float(); got != 3.75 {
		t.Errorf("Add = %v, want 3.75", got)
	}
	if got := Sub(a, b).Float(); got != -0.75 {
		t.Errorf("Sub = %v, want -0.75", got)
	}
	if got := Mul(a, b).Float(); math.Abs(got-3.375) > 1e-4 {
		t.Errorf("Mul = %v, want 3.375", got)
	}
	if got := Div(b, a).Float(); math.Abs(got-1.5) > 1e-4 {
		t.Errorf("Div = %v, want 1.5", got)
	}
}

func TestAddSaturates(t *testing.T) {
	if Add(Max, One) != Max {
		t.Error("Add(Max, One) should saturate to Max")
	}
	if Add(Min, -One) != Min {
		t.Error("Add(Min, -One) should saturate to Min")
	}
	if Sub(Min, One) != Min {
		t.Error("Sub(Min, One) should saturate to Min")
	}
	if Neg(Min) != Max {
		t.Error("Neg(Min) should saturate to Max")
	}
}

func TestMulSaturates(t *testing.T) {
	big := FromFloat(30000)
	if Mul(big, big) != Max {
		t.Error("Mul overflow should saturate to Max")
	}
	if Mul(big, Neg(big)) != Min {
		t.Error("Mul underflow should saturate to Min")
	}
}

func TestDivByZero(t *testing.T) {
	if Div(One, 0) != Max {
		t.Error("Div(+,0) should saturate to Max")
	}
	if Div(-One, 0) != Min {
		t.Error("Div(-,0) should saturate to Min")
	}
	if Div(0, 0) != Max {
		t.Error("Div(0,0) should return Max by convention")
	}
}

func TestSqrt(t *testing.T) {
	cases := []float64{0, 0.25, 1, 2, 4, 9, 100, 1000, 30000}
	for _, f := range cases {
		got := Sqrt(FromFloat(f)).Float()
		want := math.Sqrt(f)
		if math.Abs(got-want) > 1e-3*(1+want) {
			t.Errorf("Sqrt(%v) = %v, want %v", f, got, want)
		}
	}
	if Sqrt(FromFloat(-4)) != 0 {
		t.Error("Sqrt of negative should return 0")
	}
}

func TestAtan2Quadrants(t *testing.T) {
	cases := []struct {
		y, x float64
	}{
		{1, 1}, {1, -1}, {-1, -1}, {-1, 1},
		{0, 1}, {1, 0}, {0, -1}, {-1, 0},
		{0.3, 0.9}, {2, 0.1}, {-0.5, 3},
	}
	for _, tc := range cases {
		got := Atan2(FromFloat(tc.y), FromFloat(tc.x)).Float()
		want := math.Atan2(tc.y, tc.x)
		if math.Abs(got-want) > 0.01 {
			t.Errorf("Atan2(%v, %v) = %v, want %v", tc.y, tc.x, got, want)
		}
	}
	if Atan2(0, 0) != 0 {
		t.Error("Atan2(0,0) should be 0")
	}
}

func TestClamp(t *testing.T) {
	if Clamp(FromInt(5), 0, One) != One {
		t.Error("Clamp above hi should return hi")
	}
	if Clamp(FromInt(-5), 0, One) != 0 {
		t.Error("Clamp below lo should return lo")
	}
}

func TestQuickClampWithinBounds(t *testing.T) {
	f := func(q, a, b int32) bool {
		lo, hi := Q(min(a, b)), Q(max(a, b))
		c := Clamp(Q(q), lo, hi)
		if Q(q) >= lo && Q(q) <= hi {
			return c == Q(q)
		}
		return c == lo || c == hi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMinMaxAbs(t *testing.T) {
	a, b := FromInt(-3), FromInt(7)
	if MinQ(a, b) != a || MaxQ(a, b) != b {
		t.Error("MinQ/MaxQ wrong ordering")
	}
	if Abs(a).Float() != 3 {
		t.Errorf("Abs(-3) = %v", Abs(a).Float())
	}
}

// smallQ confines quick-generated values to a range where products cannot
// saturate, so algebraic identities hold exactly.
func smallQ(raw int32) Q { return Q(raw % (1 << 20)) } // |value| < 16

func TestQuickAddCommutes(t *testing.T) {
	f := func(a, b int32) bool {
		x, y := smallQ(a), smallQ(b)
		return Add(x, y) == Add(y, x)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickMulCommutes(t *testing.T) {
	f := func(a, b int32) bool {
		x, y := smallQ(a), smallQ(b)
		return Mul(x, y) == Mul(y, x)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickAddSubInverse(t *testing.T) {
	f := func(a, b int32) bool {
		x, y := smallQ(a), smallQ(b)
		return Sub(Add(x, y), y) == x
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickMulOneIdentity(t *testing.T) {
	f := func(a int32) bool {
		x := smallQ(a)
		return Mul(x, One) == x
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// sqrtSquareBound is how far Sqrt(Mul(x, x)) may land from x, in LSB,
// for a raw x_q > 0. Mul rounds x² to within half an LSB, an error of
// up to 2¹⁵ in Sqrt's radicand x_q² (it takes √(y·2¹⁶)); that moves the
// root by up to 2¹⁵/(2·x_q) = 16384/x_q, and the floor adds one more.
func sqrtSquareBound(xq int32) int32 {
	return 1 + (16384+xq-1)/xq
}

// maxSquarable is the largest raw x_q whose square Mul does not
// saturate: ⌊√(Max·2¹⁶)⌋.
const maxSquarable = 11863283

// TestSqrtSquaresBoundTable pins the derived bound at fixed points: at
// small x the error of squaring is far above the 4 LSB the bound used to
// claim (x = 0.01 lands 26 LSB off), and it shrinks to 1 LSB at large x.
func TestSqrtSquaresBoundTable(t *testing.T) {
	if Mul(maxSquarable, maxSquarable) == Max || Mul(maxSquarable+1, maxSquarable+1) != Max {
		t.Fatalf("maxSquarable %d is not the largest unsaturated square", maxSquarable)
	}
	exceedsOld := false
	for _, xq := range []int32{655, 1000, 4096, 65536, maxSquarable} {
		x := Q(xq)
		dev := Abs(Sub(Sqrt(Mul(x, x)), x))
		if dev > Q(sqrtSquareBound(xq)) {
			t.Errorf("x_q=%d: |Sqrt(x²)−x| = %d LSB, bound %d", xq, dev, sqrtSquareBound(xq))
		}
		if dev > 4 {
			exceedsOld = true
		}
	}
	if !exceedsOld {
		t.Error("no table entry exceeds the old fixed 4-LSB bound; the table no longer shows why it was wrong")
	}
}

func TestQuickSqrtSquares(t *testing.T) {
	f := func(a int32) bool {
		x := Abs(smallQ(a))
		if x < FromFloat(0.01) {
			// x² underflows Q16.16 (x² < 1 LSB rounds to 0 below
			// ~0.003), so no square root can recover x.
			return true
		}
		s := Sqrt(Mul(x, x))
		return Abs(Sub(s, x)) <= Q(sqrtSquareBound(int32(x)))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestQuickSqrtExact: Sqrt is exactly ⌊√(y·2¹⁶)⌋ on the raw value, the
// integer square root, for any positive y; non-positive y gives 0.
func TestQuickSqrtExact(t *testing.T) {
	f := func(a int32) bool {
		y := Q(a)
		if y <= 0 {
			return Sqrt(y) == 0
		}
		v := uint64(y) << Shift
		r := uint64(math.Sqrt(float64(v)))
		for r*r > v {
			r--
		}
		for (r+1)*(r+1) <= v {
			r++
		}
		return Sqrt(y) == Q(r)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestQuickDivMulRoundTrip(t *testing.T) {
	f := func(a, b int32) bool {
		x, y := smallQ(a), smallQ(b)
		if Abs(y) < FromFloat(0.01) {
			return true // avoid precision blowup near zero divisors
		}
		r := Mul(Div(x, y), y)
		return Abs(Sub(r, x)).Float() < 0.01
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickSaturationBounds(t *testing.T) {
	f := func(a, b int32) bool {
		x, y := Q(a), Q(b)
		for _, v := range []Q{Add(x, y), Sub(x, y), Mul(x, y), Div(x, y)} {
			if v > Max || v < Min {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestStringFormat(t *testing.T) {
	if got := FromFloat(1.5).String(); got != "1.50000" {
		t.Errorf("String = %q", got)
	}
}

func TestRawRoundTrip(t *testing.T) {
	q := FromFloat(-7.25)
	if FromRaw(q.Raw()) != q {
		t.Error("FromRaw(Raw) should round-trip")
	}
}
