package jit_test

import (
	"errors"
	"math"
	"reflect"
	"slices"
	"testing"

	"github.com/wiot-security/sift/internal/amulet"
	"github.com/wiot-security/sift/internal/amulet/jit"
	"github.com/wiot-security/sift/internal/amulet/program"
	"github.com/wiot-security/sift/internal/features"
	"github.com/wiot-security/sift/internal/fixedpoint"
)

// TestDetectorLoopKernels pins the template each counted loop of the
// matrix detectors runs, in block order. Every loop bounded by N (range
// scans, normalize, binning) or by GridN (matrix fill, column sums, Σc²,
// column mean and variance) runs a specialized kernel. Only the
// area-under-curve loop (GridN−1 trips, two loads per step) and the five
// peak-geometry loops (at most MaxPeaks trips each) replay closures.
func TestDetectorLoopKernels(t *testing.T) {
	want := []string{
		"minmax", "mapstore", // ECG range and normalize
		"minmax", "mapstore", // ABP range and normalize
		"fill", "histogram", // portrait matrix
		"reduce", "reduce", // column sums, Σc²
		"reduce", "reduce", // column mean, variance
		"generic",                                             // area under the column curve
		"generic", "generic", "generic", "generic", "generic", // peak geometry
	}
	for _, v := range []features.Version{features.Original, features.Simplified} {
		p, err := program.Build(v)
		if err != nil {
			t.Fatal(err)
		}
		cp, err := jit.Compile(p)
		if err != nil {
			t.Fatal(err)
		}
		if got := cp.Kernels(); !reflect.DeepEqual(got, want) {
			t.Errorf("%v loop kernels:\n got %v\nwant %v", v, got, want)
		}
	}
}

// Locals of the hand-built reduce programs.
const (
	rI     = iota // loop counter
	rLimit        // trip count
	rAcc          // accumulator
	rT            // scratch local of x·x and (x − l)²
	rL            // offset l of (x − l)², or the strided base
)

// reduceCase is one hand-built reduce loop: locals preset, the loop, then
// the accumulator and scratch local stored to data[0] and data[1].
type reduceCase struct {
	name   string
	words  int
	start  int32 // loop counter's first value
	trips  int
	acc, l int32
	body   func(b *amulet.Builder)
	data   func(i int) int32 // initial data[i] for i ≥ 2
}

func (rc reduceCase) build(t *testing.T) (*amulet.Program, *jit.Program, []int32) {
	t.Helper()
	b := amulet.NewBuilder()
	b.Push(rc.start + int32(rc.trips)).StoreL(rLimit)
	b.Push(rc.acc).StoreL(rAcc)
	b.Push(0).StoreL(rT)
	b.Push(rc.l).StoreL(rL)
	if rc.start == 0 {
		b.ForRange(rI, rLimit, rc.body)
	} else {
		// ForRange's loop with the counter starting elsewhere.
		b.Push(rc.start).StoreL(rI)
		b.Label("top").LoadL(rI).LoadL(rLimit).Op(amulet.OpLt).Jz("done")
		rc.body(b)
		b.LoadL(rI).PushI(1).Op(amulet.OpAdd).StoreL(rI).Jmp("top").Label("done")
	}
	b.PushI(0).LoadL(rAcc).Op(amulet.OpStoreM)
	b.PushI(1).LoadL(rT).Op(amulet.OpStoreM)
	b.Op(amulet.OpHalt)
	p, err := b.Assemble(rc.name, rc.words)
	if err != nil {
		t.Fatalf("%s: %v", rc.name, err)
	}
	cp, err := jit.Compile(p)
	if err != nil {
		t.Fatalf("%s: %v", rc.name, err)
	}
	if !slices.Equal(cp.Kernels(), []string{"reduce"}) {
		t.Fatalf("%s: loop kernels %v, want [reduce]", rc.name, cp.Kernels())
	}
	data := make([]int32, rc.words)
	for i := 2; i < len(data); i++ {
		data[i] = rc.data(i)
	}
	return p, cp, data
}

// Loop bodies in the firmware generator's emission order.
func stridedSum(k, c int) func(*amulet.Builder) {
	return func(b *amulet.Builder) {
		b.LoadL(rI).PushI(k).Op(amulet.OpMulI).LoadL(rL).Op(amulet.OpAdd)
		b.PushI(c).Op(amulet.OpAdd).Op(amulet.OpLoadM)
		b.LoadL(rAcc).Op(amulet.OpAdd).StoreL(rAcc)
	}
}

func affineSum(c int, add amulet.Op) func(*amulet.Builder) {
	return func(b *amulet.Builder) {
		b.PushI(c).LoadL(rI).Op(amulet.OpAdd).Op(amulet.OpLoadM)
		b.LoadL(rAcc).Op(add).StoreL(rAcc)
	}
}

func affineSquares(c int) func(*amulet.Builder) {
	return func(b *amulet.Builder) {
		b.PushI(c).LoadL(rI).Op(amulet.OpAdd).Op(amulet.OpLoadM).StoreL(rT)
		b.LoadL(rT).LoadL(rT).Op(amulet.OpMulI)
		b.LoadL(rAcc).Op(amulet.OpAdd).StoreL(rAcc)
	}
}

func affineDeviation(c int, sub, mul, add amulet.Op) func(*amulet.Builder) {
	return func(b *amulet.Builder) {
		b.PushI(c).LoadL(rI).Op(amulet.OpAdd).Op(amulet.OpLoadM)
		b.LoadL(rL).Op(sub).StoreL(rT)
		b.LoadL(rT).LoadL(rT).Op(mul)
		b.LoadL(rAcc).Op(add).StoreL(rAcc)
	}
}

func f32word(f float32) int32 { return int32(math.Float32bits(f)) }

// TestReduceKernelMatchesInterpreter holds the reduce template to the
// interpreter where its shortcuts could slip: a strided or saturating
// address that leaves the segment mid-loop, saturating MulI squares and
// Add sums whose result depends on the order of the steps, MulQ
// deviations that saturate, and float32 sums whose rounding depends on
// summation order. Across a budget sweep both backends must return the
// same error text (a bad address names the faulting word) and leave the
// same data, and on success or budget exhaustion report the same Usage.
func TestReduceKernelMatchesInterpreter(t *testing.T) {
	big := []int32{math.MaxInt32, math.MaxInt32 - 5, 46341, -46341, math.MinInt32, 7, -3, 1 << 20}
	order := []float32{1e8, 1, 1, 0.5, -1e8, 3.25, 1e-3, -7, 1 << 24, 1}
	cases := []reduceCase{
		{
			// 7·i + 3 + 10 passes the last word at i = 27.
			name: "strided-off-end", words: 200, trips: 40, l: 3,
			body: stridedSum(7, 10),
			data: func(i int) int32 { return int32(i*i) - 1000 },
		},
		{
			// 100 − 5·i goes negative at i = 21.
			name: "strided-negative", words: 200, trips: 40, l: 0,
			body: stridedSum(-5, 100),
			data: func(i int) int32 { return int32(i) },
		},
		{
			// i·2^30 saturates to MaxInt32 at i = 2.
			name: "strided-saturating", words: 64, trips: 5, l: 4,
			body: stridedSum(1<<30, 8),
			data: func(i int) int32 { return int32(3 * i) },
		},
		{
			// From i = 2^19, i·2^12 just overflows while i·2^12 + l
			// would still be a valid address: only the saturated product
			// gives the interpreter's.
			name: "strided-saturating-product", words: 4300, start: 1 << 19, trips: 2, l: math.MinInt32 + 100,
			body: stridedSum(1<<12, 2),
			data: func(i int) int32 { return int32(i) },
		},
		{
			name: "strided-in-bounds", words: 2 + 50*8, trips: 8, l: 5,
			body: stridedSum(50, 2),
			data: func(i int) int32 { return big[i%len(big)] },
		},
		{
			name: "sum-saturating", words: 2 + 40, trips: 40, acc: -7,
			body: affineSum(2, amulet.OpAdd),
			data: func(i int) int32 { return big[i%len(big)] },
		},
		{
			name: "sum-off-end", words: 30, trips: 40,
			body: affineSum(2, amulet.OpAdd),
			data: func(i int) int32 { return big[i%len(big)] },
		},
		{
			name: "squares-saturating", words: 2 + 40, trips: 40,
			body: affineSquares(2),
			data: func(i int) int32 { return big[(3*i)%len(big)] },
		},
		{
			// x − l saturates for the large x, the last one included, so
			// the scratch local stored after the loop shows it.
			name: "deviation-q-saturating", words: 2 + 40, trips: 40, l: math.MinInt32 + 1,
			body: affineDeviation(2, amulet.OpSub, amulet.OpMulQ, amulet.OpAdd),
			data: func(i int) int32 { return big[(5*i+3)%len(big)] },
		},
		{
			name: "sum-float-order", words: 2 + 30, trips: 30, acc: f32word(0.1),
			body: affineSum(2, amulet.OpFAdd),
			data: func(i int) int32 { return f32word(order[i%len(order)]) },
		},
		{
			name: "deviation-float-order", words: 2 + 30, trips: 30, l: f32word(2.5),
			body: affineDeviation(2, amulet.OpFSub, amulet.OpFMul, amulet.OpFAdd),
			data: func(i int) int32 { return f32word(order[(3*i)%len(order)] / 4) },
		},
		{
			// A shape outside the direct loops runs on evaluation functions.
			name: "deviation-mixed", words: 2 + 30, trips: 30, l: 9,
			body: affineDeviation(2, amulet.OpSub, amulet.OpMulI, amulet.OpAdd),
			data: func(i int) int32 { return big[(7*i)%len(big)] / 3 },
		},
	}
	for _, rc := range cases {
		t.Run(rc.name, func(t *testing.T) {
			p, cp, data := rc.build(t)
			vm, err := amulet.NewVM(p, append([]int32(nil), data...))
			if err != nil {
				t.Fatal(err)
			}
			vm.Run(program.MaxCycles)
			full := vm.Usage().Cycles
			// A faulting run's cost stops at the fault, so the sweep
			// ends with a budget that lets the kernel reach it.
			for budget := uint64(0); budget <= full+8; budget++ {
				sameRun(t, p, cp, data, budget)
			}
			sameRun(t, p, cp, data, program.MaxCycles)
		})
	}
}

// sameRun is runBoth with the stricter contract the hand-built kernel
// programs allow: identical error text, and identical data on every
// outcome (a fault strikes in a loop kernel, which stores exactly what
// the interpreter had stored by then).
func sameRun(t *testing.T, p *amulet.Program, cp *jit.Program, data []int32, budget uint64) {
	t.Helper()
	vmData := append([]int32(nil), data...)
	jitData := append([]int32(nil), data...)
	vm, err := amulet.NewVM(p, vmData)
	if err != nil {
		t.Fatal(err)
	}
	vmErr := vm.Run(budget)
	jitUsage, jitErr := cp.Run(jitData, budget, 0)
	if errText(vmErr) != errText(jitErr) {
		t.Fatalf("budget %d: interpreter %q vs jit %q", budget, errText(vmErr), errText(jitErr))
	}
	if vmErr == nil || errors.Is(vmErr, amulet.ErrOutOfCycles) {
		if vu := vm.Usage(); vu != jitUsage {
			t.Fatalf("budget %d: usage diverged\n interp: %+v\n    jit: %+v", budget, vu, jitUsage)
		}
	}
	if !slices.Equal(vmData, jitData) {
		t.Fatalf("budget %d: data diverged", budget)
	}
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// histCase is one hand-built portrait binning loop in the firmware
// generator's emission order: quantize sample i of two channels to a
// clamped grid cell and increment it.
type histCase struct {
	name                          string
	words, trips                  int
	xBase, yBase, matrix          int
	colMul, colToI, rowMul, rowTo amulet.Op
	colK, rowK                    int32
	data                          func(i int) int32
}

func (hc histCase) build(t *testing.T) (*amulet.Program, *jit.Program, []int32) {
	t.Helper()
	const grid = 50
	b := amulet.NewBuilder()
	b.PushI(hc.trips).StoreL(rLimit)
	b.ForRange(rI, rLimit, func(b *amulet.Builder) {
		bin := func(base int, mul, toI amulet.Op, k int32, dst int) {
			b.PushI(base).LoadL(rI).Op(amulet.OpAdd).Op(amulet.OpLoadM)
			b.Push(k).Op(mul).Op(toI)
			b.PushI(0).Op(amulet.OpMax).PushI(grid - 1).Op(amulet.OpMin)
			b.StoreL(dst)
		}
		bin(hc.xBase, hc.colMul, hc.colToI, hc.colK, rL)
		bin(hc.yBase, hc.rowMul, hc.rowTo, hc.rowK, rT)
		b.LoadL(rT).PushI(grid).Op(amulet.OpMulI).LoadL(rL).Op(amulet.OpAdd)
		b.PushI(hc.matrix).Op(amulet.OpAdd).StoreL(rL)
		b.LoadL(rL)
		b.LoadL(rL).Op(amulet.OpLoadM).PushI(1).Op(amulet.OpAdd)
		b.Op(amulet.OpStoreM)
	})
	b.Op(amulet.OpHalt)
	p, err := b.Assemble(hc.name, hc.words)
	if err != nil {
		t.Fatalf("%s: %v", hc.name, err)
	}
	cp, err := jit.Compile(p)
	if err != nil {
		t.Fatalf("%s: %v", hc.name, err)
	}
	if !slices.Equal(cp.Kernels(), []string{"histogram"}) {
		t.Fatalf("%s: loop kernels %v, want [histogram]", hc.name, cp.Kernels())
	}
	data := make([]int32, hc.words)
	for i := range data {
		data[i] = hc.data(i)
	}
	return p, cp, data
}

// TestHistogramKernelMatchesInterpreter covers what the detectors' own
// inputs never reach: negative and out-of-range quantized coordinates
// (FtoI of huge floats and NaN, QtoI truncating toward zero), cells that
// saturate or leave the segment mid-loop, a sample run that leaves the
// segment, and a unit pair outside the direct shapes. The contract is
// TestReduceKernelMatchesInterpreter's.
func TestHistogramKernelMatchesInterpreter(t *testing.T) {
	fk, qk := f32word(50), fixedpoint.FromInt(50).Raw()
	floats := []float32{0.5, -0.013, 0.99, 1e12, -3e9, float32(math.NaN()), 0.021, -0.5, 0.2501, 7}
	state := uint64(9)
	noise := make([]int32, 4096)
	for i := range noise {
		noise[i] = int32(splitmix64(&state))
	}
	fdata := func(i int) int32 {
		if i%7 == 3 {
			return math.MaxInt32 // a saturating cell
		}
		return f32word(floats[(i*3)%len(floats)] * float32(1+i%5) / 5)
	}
	qdata := func(i int) int32 { return noise[i%len(noise)] >> uint(i%17) }
	cases := []histCase{
		{
			name: "float", words: 2700, trips: 40, xBase: 0, yBase: 100, matrix: 200,
			colMul: amulet.OpFMul, colToI: amulet.OpFtoI, rowMul: amulet.OpFMul, rowTo: amulet.OpFtoI,
			colK: fk, rowK: fk, data: fdata,
		},
		{
			name: "q", words: 2700, trips: 40, xBase: 0, yBase: 100, matrix: 200,
			colMul: amulet.OpMulQ, colToI: amulet.OpQtoI, rowMul: amulet.OpMulQ, rowTo: amulet.OpQtoI,
			colK: qk, rowK: qk, data: qdata,
		},
		{
			// The row ramps up with i; row 45, at i = 36, puts the cell
			// off the end of the segment.
			name: "cell-off-end", words: 200 + 45*50, trips: 40, xBase: 0, yBase: 100, matrix: 200,
			colMul: amulet.OpFMul, colToI: amulet.OpFtoI, rowMul: amulet.OpFMul, rowTo: amulet.OpFtoI,
			colK: fk, rowK: fk, data: func(i int) int32 {
				switch {
				case i < 100:
					return f32word(float32(i%10) / 10)
				case i < 200:
					return f32word(float32(i-100) / 40)
				}
				return int32(i % 3)
			},
		},
		{
			// The row channel runs off the segment at i = 20.
			name: "samples-off-end", words: 2640, trips: 40, xBase: 2500, yBase: 2620, matrix: 0,
			colMul: amulet.OpFMul, colToI: amulet.OpFtoI, rowMul: amulet.OpFMul, rowTo: amulet.OpFtoI,
			colK: fk, rowK: fk, data: fdata,
		},
		{
			name: "mixed", words: 2700, trips: 40, xBase: 0, yBase: 100, matrix: 200,
			colMul: amulet.OpFMul, colToI: amulet.OpFtoI, rowMul: amulet.OpMulQ, rowTo: amulet.OpQtoI,
			colK: fk, rowK: qk, data: func(i int) int32 {
				if i >= 100 {
					return qdata(i)
				}
				return fdata(i)
			},
		},
	}
	for _, hc := range cases {
		t.Run(hc.name, func(t *testing.T) {
			p, cp, data := hc.build(t)
			vm, err := amulet.NewVM(p, append([]int32(nil), data...))
			if err != nil {
				t.Fatal(err)
			}
			vm.Run(program.MaxCycles)
			full := vm.Usage().Cycles
			for budget := uint64(0); budget <= full+8; budget += 7 {
				sameRun(t, p, cp, data, budget)
			}
			sameRun(t, p, cp, data, program.MaxCycles)
		})
	}
}
