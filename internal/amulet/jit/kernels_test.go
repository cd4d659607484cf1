package jit_test

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"github.com/wiot-security/sift/internal/amulet"
	"github.com/wiot-security/sift/internal/amulet/jit"
	"github.com/wiot-security/sift/internal/amulet/program"
	"github.com/wiot-security/sift/internal/features"
	"github.com/wiot-security/sift/internal/fixedpoint"
	"github.com/wiot-security/sift/internal/svm"
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

// TestRunProfiledAttributesLoops checks the per-loop profile: Loops
// agrees with Kernels and gives each loop an increasing, disjoint pc
// range; RunProfiled leaves the same data and Usage as Run and counts
// one dispatch per loop entry (GridN for the column-sum loop, which runs
// once per column); and a profile of the wrong length is refused.
func TestRunProfiledAttributesLoops(t *testing.T) {
	v := features.Original
	p, err := program.Build(v)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := jit.Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	loops := cp.Loops()
	var names []string
	for k, l := range loops {
		names = append(names, l.Template)
		if l.PC >= l.End || (k > 0 && l.PC < loops[k-1].End) {
			t.Errorf("loop %d range %v overlaps or runs backwards", k, l)
		}
	}
	if !slices.Equal(names, cp.Kernels()) {
		t.Fatalf("Loops templates %v, Kernels %v", names, cp.Kernels())
	}
	data, err := program.Input(v, testWindow(t, 3), svm.UnitModel(v.Dim()))
	if err != nil {
		t.Fatal(err)
	}
	plain, profiled := slices.Clone(data), slices.Clone(data)
	u1, err1 := cp.Run(plain, program.MaxCycles, 0)
	stats := make([]jit.LoopStat, len(loops))
	u2, err2 := cp.RunProfiled(profiled, program.MaxCycles, stats)
	if err1 != nil || err2 != nil || u1 != u2 || !slices.Equal(plain, profiled) {
		t.Fatalf("RunProfiled diverged from Run: %v/%v, %+v vs %+v", err1, err2, u1, u2)
	}
	for k, st := range stats {
		want := int64(1)
		if k == 6 { // column sums, inside the loop over columns
			want = program.GridN
		}
		if st.Dispatches != want || st.Time <= 0 {
			t.Errorf("loop %d (%v): %d dispatches in %v, want %d", k, loops[k], st.Dispatches, st.Time, want)
		}
	}
	if _, err := cp.RunProfiled(slices.Clone(data), program.MaxCycles, stats[1:]); err == nil {
		t.Error("RunProfiled accepted a profile one slot short")
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

		// The integer sums' int64 fast path and its fallback.
		{
			// Cell counts, as the column sums see them: the fast path.
			name: "strided-counts", words: 2 + 50*8, trips: 8, l: 5,
			body: stridedSum(50, 2),
			data: func(i int) int32 { return int32(i % 13) },
		},
		{
			// The sum clamps at MaxInt32 before the one negative term
			// brings it back: only the saturating rerun gets it right.
			name: "sum-negative-term", words: 2 + 8, trips: 8,
			body: affineSum(2, amulet.OpAdd),
			data: func(i int) int32 { return [...]int32{math.MaxInt32 - 10, 100, -200, 1, 1, 1, 1, 1}[i-2] },
		},
		{
			name: "sum-reaches-max", words: 2 + 10, trips: 10, acc: math.MaxInt32 - 100,
			body: affineSum(2, amulet.OpAdd),
			data: func(i int) int32 { return 10 },
		},
		{
			// The last term takes the sum past MaxInt32.
			name: "sum-crosses-max-last", words: 2 + 10, trips: 10, acc: math.MaxInt32 - 100,
			body: affineSum(2, amulet.OpAdd),
			data: func(i int) int32 { return 10 + 10*int32(i/11) },
		},
		{
			// 46341² is the first square smulI clamps; alone it sums to
			// MaxInt32 exactly.
			name: "squares-46341", words: 2 + 6, trips: 6,
			body: affineSquares(2),
			data: func(i int) int32 { return [...]int32{0, -46341, 0, 0, 0, 0}[i-2] },
		},
		{
			// From a negative start, an unclamped 46341² would still end
			// inside int32 range, with the wrong sum.
			name: "squares-46341-negative-start", words: 2 + 6, trips: 6, acc: -10000,
			body: affineSquares(2),
			data: func(i int) int32 { return [...]int32{46341, 0, 0, 0, 0, 0}[i-2] },
		},
		{
			name: "squares-cross-max-last", words: 2 + 4, trips: 4,
			body: affineSquares(2),
			data: func(i int) int32 { return [...]int32{46340, 200, -200, 200}[i-2] },
		},
	}
	for _, rc := range cases {
		t.Run(rc.name, func(t *testing.T) {
			p, cp, data := rc.build(t)
			sweepBudgets(t, p, cp, data, 1)
		})
	}
}

// sweepBudgets runs sameRun at every step-th budget from 0 to a little
// past the interpreter's full run, and then at a generous budget. A
// faulting run's cost stops at the fault, so the sweep ends with a budget
// that lets the kernel reach it.
func sweepBudgets(t *testing.T, p *amulet.Program, cp *jit.Program, data []int32, step uint64) {
	t.Helper()
	vm, err := amulet.NewVM(p, slices.Clone(data))
	if err != nil {
		t.Fatal(err)
	}
	vm.Run(program.MaxCycles)
	full := vm.Usage().Cycles
	for budget := uint64(0); budget <= full+8; budget += step {
		sameRun(t, p, cp, data, budget)
	}
	sameRun(t, p, cp, data, program.MaxCycles)
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
	box                           *histBox // nil: the generator's grid
	data                          func(i int) int32
}

// histBox is a binning loop's clamp constants, each coordinate clamped
// as min(max(v, lo), hi), and the row stride of the cell address.
type histBox struct{ colLo, colHi, rowLo, rowHi, stride int32 }

func (hc histCase) build(t *testing.T) (*amulet.Program, *jit.Program, []int32) {
	t.Helper()
	const grid = 50
	box := histBox{0, grid - 1, 0, grid - 1, grid}
	if hc.box != nil {
		box = *hc.box
	}
	b := amulet.NewBuilder()
	b.PushI(hc.trips).StoreL(rLimit)
	b.ForRange(rI, rLimit, func(b *amulet.Builder) {
		bin := func(base int, mul, toI amulet.Op, k, lo, hi int32, dst int) {
			b.PushI(base).LoadL(rI).Op(amulet.OpAdd).Op(amulet.OpLoadM)
			b.Push(k).Op(mul).Op(toI)
			b.Push(lo).Op(amulet.OpMax).Push(hi).Op(amulet.OpMin)
			b.StoreL(dst)
		}
		bin(hc.xBase, hc.colMul, hc.colToI, hc.colK, box.colLo, box.colHi, rL)
		bin(hc.yBase, hc.rowMul, hc.rowTo, hc.rowK, box.rowLo, box.rowHi, rT)
		b.LoadL(rT).Push(box.stride).Op(amulet.OpMulI).LoadL(rL).Op(amulet.OpAdd)
		b.PushI(hc.matrix).Op(amulet.OpAdd).StoreL(rL)
		b.LoadL(rL)
		b.LoadL(rL).Op(amulet.OpLoadM).PushI(1).Op(amulet.OpAdd)
		b.Op(amulet.OpStoreM)
	})
	// The last cell address and row, as the loop left them.
	b.PushI(0).LoadL(rL).Op(amulet.OpStoreM)
	b.PushI(1).LoadL(rT).Op(amulet.OpStoreM)
	b.Op(amulet.OpHalt)
	return assembleKernel(t, b, hc.name, hc.words, "histogram", hc.data)
}

// TestHistogramKernelMatchesInterpreter covers what the detectors' own
// inputs never reach: negative and out-of-range quantized coordinates
// (FtoI of huge floats and NaN, QtoI truncating toward zero), cells that
// saturate or leave the segment mid-loop, a sample run that leaves the
// segment, a unit pair outside the direct shapes, clamp constants that
// fail the fast path's precondition (a corner cell whose address
// saturates or leaves the segment), and cells that overlap the samples,
// which the fast path must bump in the interpreter's order. The contract
// is TestReduceKernelMatchesInterpreter's.
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
			// Every hit cell starts at MaxInt32 − 1 or MaxInt32, so the
			// fast path's increments saturate mid-run.
			name: "cell-at-max", words: 2700, trips: 40, xBase: 0, yBase: 100, matrix: 200,
			colMul: amulet.OpFMul, colToI: amulet.OpFtoI, rowMul: amulet.OpFMul, rowTo: amulet.OpFtoI,
			colK: fk, rowK: fk, data: func(i int) int32 {
				if i >= 200 {
					return math.MaxInt32 - int32(i%2)
				}
				return f32word(float32(i%23) / 25)
			},
		},
		{
			// Rows clamp to 60, whose cells lie past the segment's end,
			// but the samples only reach row 19: the exact loop runs, and
			// finishes.
			name: "corner-leaves-segment", words: 2700, trips: 40, xBase: 0, yBase: 100, matrix: 200,
			colMul: amulet.OpFMul, colToI: amulet.OpFtoI, rowMul: amulet.OpFMul, rowTo: amulet.OpFtoI,
			colK: fk, rowK: fk, box: &histBox{0, 49, 0, 60, 50},
			data: func(i int) int32 { return f32word(float32(i%40) / 100) },
		},
		{
			// Row 8 · 2^28 saturates, a negative column keeps the sum in
			// range, and the matrix base brings the address back to
			// words 50–98: an unsaturated row product would wrap to the
			// next cell.
			name: "corner-product-saturates", words: 400, trips: 40, xBase: 200, yBase: 300, matrix: math.MinInt32 + 100,
			colMul: amulet.OpFMul, colToI: amulet.OpFtoI, rowMul: amulet.OpFMul, rowTo: amulet.OpFtoI,
			colK: fk, rowK: fk, box: &histBox{-49, -1, 8, 8, 1 << 28},
			data: func(i int) int32 { return f32word(float32(i%40)/40 - 1) },
		},
		{
			// The row is MaxInt32 − 20, so adding a column past 20
			// saturates before the base is added.
			name: "corner-sum-saturates", words: 400, trips: 40, xBase: 0, yBase: 300, matrix: math.MinInt32 + 200,
			colMul: amulet.OpFMul, colToI: amulet.OpFtoI, rowMul: amulet.OpFMul, rowTo: amulet.OpFtoI,
			colK: fk, rowK: fk, box: &histBox{0, 49, math.MaxInt32 - 20, math.MaxInt32 - 20, 1},
			data: func(i int) int32 { return f32word(float32(i%40) / 40) },
		},
		{
			// The cells overlap the column samples: each sample just
			// under 1.0 (Q16.16) bins to column 0 and bumps the next
			// sample to 1.0 before it is read, so it bins to column 1.
			name: "cells-overlap-samples", words: 400, trips: 40, xBase: 300, yBase: 200, matrix: 301,
			colMul: amulet.OpMulQ, colToI: amulet.OpQtoI, rowMul: amulet.OpMulQ, rowTo: amulet.OpQtoI,
			colK: fixedpoint.One.Raw(), rowK: fixedpoint.One.Raw(), box: &histBox{0, 49, 0, 0, 50},
			data: func(i int) int32 {
				if i >= 300 {
					return fixedpoint.One.Raw() - 1
				}
				return 0
			},
		},
		{
			// The last sample bins to its own word (339) and bumps it to
			// 1.0, which would bin to column 1 if it were read again.
			name: "last-cell-is-last-sample", words: 400, trips: 40, xBase: 300, yBase: 200, matrix: 339,
			colMul: amulet.OpMulQ, colToI: amulet.OpQtoI, rowMul: amulet.OpMulQ, rowTo: amulet.OpQtoI,
			colK: fixedpoint.One.Raw(), rowK: fixedpoint.One.Raw(), box: &histBox{0, 49, 0, 0, 50},
			data: func(i int) int32 {
				switch {
				case i == 339:
					return fixedpoint.One.Raw() - 1
				case i >= 300:
					return fixedpoint.One.Raw()
				}
				return 0
			},
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
			sweepBudgets(t, p, cp, data, 7)
		})
	}
}

// mapCase is one hand-built normalize loop in the firmware generator's
// emission order: data[base+i] = (conv(data[base+i]) ⊖ l) ⊗ k, with l and k
// held in locals.
type mapCase struct {
	name         string
	words, trips int
	base         int
	conv         []amulet.Op // the Q→float conversion, or none
	sub, mul     amulet.Op
	l, k         int32
	data         func(i int) int32
}

func (mc mapCase) build(t *testing.T) (*amulet.Program, *jit.Program, []int32) {
	t.Helper()
	b := amulet.NewBuilder()
	b.PushI(mc.trips).StoreL(rLimit)
	b.Push(mc.l).StoreL(rL)
	b.Push(mc.k).StoreL(rAcc)
	b.ForRange(rI, rLimit, func(b *amulet.Builder) {
		b.PushI(mc.base).LoadL(rI).Op(amulet.OpAdd).StoreL(rT)
		b.LoadL(rT)
		b.LoadL(rT).Op(amulet.OpLoadM)
		for _, op := range mc.conv {
			b.Op(op)
		}
		b.LoadL(rL).Op(mc.sub).LoadL(rAcc).Op(mc.mul)
		b.Op(amulet.OpStoreM)
	})
	b.Op(amulet.OpHalt)
	return assembleKernel(t, b, mc.name, mc.words, "mapstore", mc.data)
}

// TestMapStoreKernelMatchesInterpreter holds the map-store kernel's
// inline float32 and Q16.16 loops to the interpreter where they could
// slip: float constants that are NaN, ±Inf, −0 or subnormal, segment
// words whose bits read as those as floats, Q16.16 words and constants
// at MinInt32 and MaxInt32 (Sub and MulQ saturate), a run that leaves the
// segment, and a body outside the two shapes. The contract is
// TestReduceKernelMatchesInterpreter's.
func TestMapStoreKernelMatchesInterpreter(t *testing.T) {
	nan, inf := float32(math.NaN()), float32(math.Inf(1))
	negZero := float32(math.Copysign(0, -1))
	subnormal := math.Float32frombits(1)
	specials := []int32{
		0, 1, -1, math.MaxInt32, math.MinInt32, math.MaxInt32 - 1, math.MinInt32 + 1,
		f32word(nan), f32word(inf), f32word(-inf), f32word(negZero), f32word(subnormal),
		fixedpoint.One.Raw(), -fixedpoint.One.Raw(), 0x7fc00001, 0x3f800000,
	}
	word := func(i int) int32 { return specials[i%len(specials)] }
	toF := []amulet.Op{amulet.OpQtoF}
	var cases []mapCase
	for _, c := range [][2]float32{
		{0.25, 4}, {nan, 1}, {1, nan}, {inf, 2}, {-inf, 0.5}, {0, inf}, {3, -inf},
		{negZero, negZero}, {subnormal, 1e38}, {-1e38, subnormal},
	} {
		cases = append(cases, mapCase{
			name: fmt.Sprintf("float/%g,%g", c[0], c[1]), words: 40, trips: 36, base: 2, conv: toF,
			sub: amulet.OpFSub, mul: amulet.OpFMul, l: f32word(c[0]), k: f32word(c[1]), data: word,
		})
	}
	for _, c := range [][2]int32{
		{math.MinInt32, math.MaxInt32}, {math.MaxInt32, math.MaxInt32}, {math.MaxInt32, math.MinInt32},
		{math.MinInt32, fixedpoint.One.Raw()}, {12345, -3 * fixedpoint.One.Raw()},
	} {
		cases = append(cases, mapCase{
			name: fmt.Sprintf("q/%d,%d", c[0], c[1]), words: 40, trips: 36, base: 2,
			sub: amulet.OpSub, mul: amulet.OpMulQ, l: c[0], k: c[1], data: word,
		})
	}
	cases = append(cases,
		mapCase{
			// The run leaves the segment at i = 30.
			name: "float-off-end", words: 40, trips: 36, base: 10, conv: toF,
			sub: amulet.OpFSub, mul: amulet.OpFMul, l: f32word(0.5), k: f32word(3), data: word,
		},
		mapCase{
			name: "q-off-end", words: 40, trips: 36, base: 10,
			sub: amulet.OpSub, mul: amulet.OpMulQ, l: 7, k: fixedpoint.One.Raw(), data: word,
		},
		mapCase{
			// Neither shape: captured evaluation functions.
			name: "eval", words: 40, trips: 36, base: 2,
			sub: amulet.OpAdd, mul: amulet.OpMulI, l: 3, k: -2, data: word,
		},
	)
	for _, mc := range cases {
		t.Run(mc.name, func(t *testing.T) {
			p, cp, data := mc.build(t)
			sweepBudgets(t, p, cp, data, 1)
		})
	}
}
