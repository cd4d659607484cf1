package jit

import (
	"fmt"
	"math"

	"github.com/wiot-security/sift/internal/amulet"
	"github.com/wiot-security/sift/internal/fixedpoint"
)

// Loop kernels are the tier of the template JIT that buys the order-of-
// magnitude: per-op closures remove decode and billing but still pay one
// indirect call per operation, which caps them near 2× the interpreter.
// The fuser recognizes the builder's counted-loop shape (ForRange: an
// `i < limit` header with no side effects, a straight-line body whose
// only write to i is the trailing `i += 1`) and attaches a loopKernel
// that executes every remaining full iteration in one dispatch.
//
// Two sub-tiers:
//
//   - the generic kernel replays the body's fused closures in a tight
//     loop, hoisting the driver, the header re-checks, and the per-block
//     billing out of the iteration;
//   - specialized kernels pattern-match the body's IR against the
//     wearable-DSP idioms the firmware generator emits and run them as
//     native Go loops with the arithmetic inlined.
//
// The idioms, by the template name Program.Kernels reports:
//
//   - fill: data[c+i] = K (occupancy-matrix zeroing);
//   - minmax: running min and max of data[c+i] (channel range scan);
//   - mapstore: data[c+i] = (data[c+i] − l1) ⊗ l2 (in-place normalize);
//   - histogram: quantize two channels to a clamped grid cell and bump
//     it (portrait binning);
//   - reduce: acc ⊕= f(data[addr(i)]) with addr affine or strided and
//     f one of x, x·x, (x − l)² (column sums, Σc², column mean and
//     variance).
//
// Each specialized kernel checks a precondition once per run and, when it
// holds, runs a straight-line Go loop with no per-element address check,
// saturating step or indirect call; when it fails, the kernel runs its
// exact loop, which checks and saturates every step as the interpreter
// does. The preconditions:
//
//   - fill, minmax, mapstore: every address base+i of the run is computed
//     without saturating and lies in the segment (affineRange);
//   - histogram: both sample runs lie in the segment, and every cell
//     address over the clamp box of (row, column) is computed without
//     saturating and lies in the segment (cellsInSegment); the cell
//     increment still stops at MaxInt32;
//   - reduce: every address of the run is computed without saturating
//     and lies in the segment (span); then the integer sum and Σx² shapes
//     add in int64 and keep the result only if every term is ≥ 0 and the
//     final sum ≤ MaxInt32, and otherwise rerun the saturating loop from
//     the run's start value (sumGrows). Float32 sums stay sequential.
//
// mapstore and histogram run the generator's float32 and Q16.16 shapes
// inline and anything else through the interpreter's evaluation
// functions.
//
// Where order cannot change the result, the straight-line loops run in
// lanes, independent accumulators combined once at the end of the run,
// so consecutive elements do not wait on one dependency chain: the
// integer sums and Σx² add in four int64 lanes (exact, and merged before
// sumGrows checks the total), minmax folds even and odd elements in two
// (integer min and max are associative), and fill with 0 is a clear.
// Float32 sums and the histogram's bumps stay sequential.
//
// Specialization never changes observable semantics: a kernel leaves the
// scratch locals and the data segment as the body would, reproduces
// saturating arithmetic exactly, accumulates float32 sequentially, and
// faults with the interpreter's exact error shape, so an unmatched or
// adversarial body simply stays on the generic tier and the differential
// fuzzers keep all tiers honest.

// fuseLoops scans the compiled block graph for counted-loop headers and
// attaches kernels. Runs after every block is emitted, before the
// compile-time IR is dropped.
func (c *compiler) fuseLoops() {
	ord := 0
	for id, h := range c.blocks {
		cmp := h.cmp
		if cmp == nil || len(h.irs) != 0 || cmp.op != amulet.OpLt || !cmp.isJz {
			continue
		}
		if cmp.a.k != kLocal || cmp.b.k != kLocal || cmp.a.idx == cmp.b.idx {
			continue
		}
		if cmp.f == id { // degenerate self-loop header
			continue
		}
		iIdx, limIdx := cmp.a.idx, cmp.b.idx
		body := c.blocks[cmp.f]
		if body.term != nil || body.next != id || body.depth != h.depth ||
			body.entrySP != h.entrySP || len(body.irs) == 0 {
			continue
		}
		inc := body.irs[len(body.irs)-1]
		if inc.kind != irMove || !inc.dst.local || inc.dst.idx != iIdx ||
			inc.a.k != kAddLC || inc.a.idx != iIdx || inc.a.c != 1 {
			continue
		}
		// The trip count must be computable up front: nothing else in the
		// body may write i, and nothing at all may write the limit.
		clean := true
		for _, io := range body.irs[:len(body.irs)-1] {
			if io.dst.local && (io.dst.idx == iIdx || io.dst.idx == limIdx) {
				clean = false
				break
			}
		}
		if !clean {
			continue
		}
		k := &loopKernel{
			ord: ord, pc: c.spans[id][0], end: c.spans[cmp.f][1],
			iIdx: iIdx, limIdx: limIdx,
			perCycles: h.cycles + body.cycles,
			perInstrs: h.instrs + body.instrs,
			peak:      max(h.peak, body.peak),
			locals:    max(h.locals, body.locals),
		}
		if k.perCycles == 0 { // unreachable: every instruction costs cycles
			continue
		}
		k.name, k.run = specializeKernel(body.irs[:len(body.irs)-1], iIdx)
		if k.run == nil {
			k.name, k.run = "generic", genericKernel(body.ops[:len(body.ops)-1], iIdx)
		}
		h.kern = k
		ord++
	}
}

// genericKernel replays a loop body's fused closures — any body shape at
// all. The trailing counter increment runs natively: i < limit ≤ MaxInt32
// on every iteration, so the saturating add it compiles to is a plain
// add, and on a mid-body fault the counter write is skipped, leaving
// locals exactly as the interpreter would.
//
// Short bodies (the overwhelming case: generated detectors reduce in
// 2–12 micro-ops) unroll so every closure gets its own call site. A
// single `range ops` call site dispatches to a different target each
// micro-op and mispredicts on essentially every call; monomorphic sites
// predict perfectly, which is worth ~2× on tight reduce loops.
func genericKernel(ops []uop, iIdx int) func(*machine, int32, int64) bool {
	ii := iIdx
	switch len(ops) {
	case 1:
		f0 := ops[0]
		return func(m *machine, i0 int32, n int64) bool {
			for i := i0; n > 0; n-- {
				if !f0(m) {
					return false
				}
				i++
				m.locals[ii] = i
			}
			return true
		}
	case 2:
		f0, f1 := ops[0], ops[1]
		return func(m *machine, i0 int32, n int64) bool {
			for i := i0; n > 0; n-- {
				if !f0(m) || !f1(m) {
					return false
				}
				i++
				m.locals[ii] = i
			}
			return true
		}
	case 3:
		f0, f1, f2 := ops[0], ops[1], ops[2]
		return func(m *machine, i0 int32, n int64) bool {
			for i := i0; n > 0; n-- {
				if !f0(m) || !f1(m) || !f2(m) {
					return false
				}
				i++
				m.locals[ii] = i
			}
			return true
		}
	case 4:
		f0, f1, f2, f3 := ops[0], ops[1], ops[2], ops[3]
		return func(m *machine, i0 int32, n int64) bool {
			for i := i0; n > 0; n-- {
				if !f0(m) || !f1(m) || !f2(m) || !f3(m) {
					return false
				}
				i++
				m.locals[ii] = i
			}
			return true
		}
	case 5:
		f0, f1, f2, f3, f4 := ops[0], ops[1], ops[2], ops[3], ops[4]
		return func(m *machine, i0 int32, n int64) bool {
			for i := i0; n > 0; n-- {
				if !f0(m) || !f1(m) || !f2(m) || !f3(m) || !f4(m) {
					return false
				}
				i++
				m.locals[ii] = i
			}
			return true
		}
	case 6:
		f0, f1, f2, f3, f4, f5 := ops[0], ops[1], ops[2], ops[3], ops[4], ops[5]
		return func(m *machine, i0 int32, n int64) bool {
			for i := i0; n > 0; n-- {
				if !f0(m) || !f1(m) || !f2(m) || !f3(m) || !f4(m) || !f5(m) {
					return false
				}
				i++
				m.locals[ii] = i
			}
			return true
		}
	case 7:
		f0, f1, f2, f3, f4, f5, f6 := ops[0], ops[1], ops[2], ops[3], ops[4], ops[5], ops[6]
		return func(m *machine, i0 int32, n int64) bool {
			for i := i0; n > 0; n-- {
				if !f0(m) || !f1(m) || !f2(m) || !f3(m) || !f4(m) || !f5(m) || !f6(m) {
					return false
				}
				i++
				m.locals[ii] = i
			}
			return true
		}
	case 8:
		f0, f1, f2, f3, f4, f5, f6, f7 := ops[0], ops[1], ops[2], ops[3], ops[4], ops[5], ops[6], ops[7]
		return func(m *machine, i0 int32, n int64) bool {
			for i := i0; n > 0; n-- {
				if !f0(m) || !f1(m) || !f2(m) || !f3(m) || !f4(m) || !f5(m) || !f6(m) || !f7(m) {
					return false
				}
				i++
				m.locals[ii] = i
			}
			return true
		}
	}
	return func(m *machine, i0 int32, n int64) bool {
		for i := i0; n > 0; n-- {
			for _, f := range ops {
				if !f(m) {
					return false
				}
			}
			i++
			m.locals[ii] = i
		}
		return true
	}
}

// templates are the specialized idioms, tried in order; the name is what
// Program.Kernels reports for a loop the template fused.
var templates = [...]struct {
	name  string
	match func(body []irOp, iIdx int) func(*machine, int32, int64) bool
}{
	{"fill", matchFill},
	{"minmax", matchMinMax},
	{"mapstore", matchMapStore},
	{"histogram", matchHistogram},
	{"reduce", matchReduce},
}

// specializeKernel tries the idiom templates against a loop body (the
// trailing increment already stripped). A nil run means no match: the
// generic closure-replay kernel applies.
func specializeKernel(body []irOp, iIdx int) (string, func(*machine, int32, int64) bool) {
	for _, t := range templates {
		if k := t.match(body, iIdx); k != nil {
			return t.name, k
		}
	}
	return "", nil
}

// sadd is the ISA's saturating add (OpAdd), used for address arithmetic
// so specialized kernels compute bit-identical addresses.
func sadd(a, b int32) int32 {
	return fixedpoint.Add(fixedpoint.FromRaw(a), fixedpoint.FromRaw(b)).Raw()
}

// smulI is the ISA's saturating integer multiply (OpMulI).
func smulI(a, b int32) int32 {
	p := int64(a) * int64(b)
	switch {
	case p > math.MaxInt32:
		return math.MaxInt32
	case p < math.MinInt32:
		return math.MinInt32
	}
	return int32(p)
}

// f32 and f32bits move a float32 between its data-segment word and a
// register without rounding.
func f32(v int32) float32     { return math.Float32frombits(uint32(v)) }
func f32bits(f float32) int32 { return int32(math.Float32bits(f)) }

func loadFault(m *machine, addr int32) bool {
	m.fault = fmt.Errorf("%w: load %d (segment %d words)", amulet.ErrBadAddress, addr, len(m.data))
	return false
}

func storeFault(m *machine, addr int32) bool {
	m.fault = fmt.Errorf("%w: store %d (segment %d words)", amulet.ErrBadAddress, addr, len(m.data))
	return false
}

// affineRange reports whether every address sadd(i, base) for i in
// [i0, i0+n) stays unsaturated and inside the data segment, returning
// the first address. When it holds, the addresses are exactly the
// contiguous run data[lo : lo+n] and all bounds checks hoist out.
func affineRange(i0 int32, n int64, base int32, dataLen int) (int64, bool) {
	lo := int64(i0) + int64(base)
	hi := lo + n - 1
	return lo, lo >= 0 && hi < int64(dataLen) && hi <= math.MaxInt32
}

func isAddLC(o operand, idx int) bool { return o.k == kAddLC && o.idx == idx }
func isLocal(o operand, idx int) bool { return o.k == kLocal && o.idx == idx }
func isSlot(o operand, idx int) bool  { return o.k == kSlot && o.idx == idx }

// matchFill compiles `data[base+i] = K` (the occupancy-matrix zeroing
// loop) into a slice fill.
//
//	IR: [ StoreM{a: AddLC(i,base), b: Const} ]
func matchFill(body []irOp, iIdx int) func(*machine, int32, int64) bool {
	if len(body) != 1 {
		return nil
	}
	st := body[0]
	if st.kind != irStoreM || !isAddLC(st.a, iIdx) || st.b.k != kConst {
		return nil
	}
	base, v, ii := st.a.c, st.b.c, iIdx
	return func(m *machine, i0 int32, n int64) bool {
		if lo, ok := affineRange(i0, n, base, len(m.data)); ok {
			s := m.data[lo : lo+n]
			if v == 0 {
				clear(s)
			} else {
				for j := range s {
					s[j] = v
				}
			}
			m.locals[ii] = i0 + int32(n)
			return true
		}
		for i := i0; n > 0; n-- {
			addr := sadd(i, base)
			if addr < 0 || int(addr) >= len(m.data) {
				return storeFault(m, addr)
			}
			m.data[addr] = v
			i++
			m.locals[ii] = i
		}
		return true
	}
}

// matchMinMax compiles the channel-range scan: load data[base+i] into a
// scratch local, fold it into running min and max locals.
//
//	IR: [ LoadM{AddLC(i,base) → local t},
//	      Bin{Min, local mn, local t → local mn},
//	      Bin{Max, local mx, local t → local mx} ]
func matchMinMax(body []irOp, iIdx int) func(*machine, int32, int64) bool {
	if len(body) != 3 {
		return nil
	}
	ld, bn, bx := body[0], body[1], body[2]
	if ld.kind != irLoadM || !isAddLC(ld.a, iIdx) || !ld.dst.local {
		return nil
	}
	t := ld.dst.idx
	if bn.kind != irBin || bn.op != amulet.OpMin || !bn.dst.local {
		return nil
	}
	mn := bn.dst.idx
	if !isLocal(bn.a, mn) || !isLocal(bn.b, t) {
		return nil
	}
	if bx.kind != irBin || bx.op != amulet.OpMax || !bx.dst.local {
		return nil
	}
	mx := bx.dst.idx
	if !isLocal(bx.a, mx) || !isLocal(bx.b, t) {
		return nil
	}
	if t == mn || t == mx || mn == mx {
		return nil
	}
	base, ii := ld.a.c, iIdx
	return func(m *machine, i0 int32, n int64) bool {
		if lo, ok := affineRange(i0, n, base, len(m.data)); ok {
			s := m.data[lo : lo+n]
			m.locals[t] = s[n-1]
			m.locals[mn], m.locals[mx] = minMax2(s, m.locals[mn], m.locals[mx])
			m.locals[ii] = i0 + int32(n)
			return true
		}
		for i := i0; n > 0; n-- {
			addr := sadd(i, base)
			if addr < 0 || int(addr) >= len(m.data) {
				return loadFault(m, addr)
			}
			v := m.data[addr]
			m.locals[t] = v
			if v < m.locals[mn] {
				m.locals[mn] = v
			}
			if v > m.locals[mx] {
				m.locals[mx] = v
			}
			i++
			m.locals[ii] = i
		}
		return true
	}
}

// minMax2 folds s into the running min lo and max hi in two lanes, even
// and odd elements, merged once at the end: integer min and max are
// associative and commutative, so the result is the sequential fold's,
// with half its dependency chain.
func minMax2(s []int32, lo, hi int32) (int32, int32) {
	lo1, hi1 := lo, hi
	for i := 1; i < len(s); i += 2 {
		a, b := s[i-1], s[i]
		lo, hi = min(lo, a), max(hi, a)
		lo1, hi1 = min(lo1, b), max(hi1, b)
	}
	if len(s)%2 == 1 {
		x := s[len(s)-1]
		lo, hi = min(lo, x), max(hi, x)
	}
	return min(lo, lo1), max(hi, hi1)
}

// matchMapStore compiles the in-place normalize pass:
// data[base+i] = (conv(data[base+i]) ⊖ l1) ⊗ l2.
//
//	IR: [ Move{AddLC(i,base) → local t},
//	      LoadM{local t → slot s},
//	      Un{u, slot s → slot s}?,           (the Q→float conversion)
//	      Bin{b1, slot s, local p1 → slot s},
//	      Bin{b2, slot s, local p2 → slot s},
//	      StoreM{local t, slot s} ]
func matchMapStore(body []irOp, iIdx int) func(*machine, int32, int64) bool {
	if len(body) != 5 && len(body) != 6 {
		return nil
	}
	mv := body[0]
	if mv.kind != irMove || !isAddLC(mv.a, iIdx) || !mv.dst.local {
		return nil
	}
	t, base := mv.dst.idx, mv.a.c
	ld := body[1]
	if ld.kind != irLoadM || !isLocal(ld.a, t) || ld.dst.local {
		return nil
	}
	s := ld.dst.idx
	j := 2
	hasUn := false
	var unOp amulet.Op
	if body[j].kind == irUn {
		u := body[j]
		if u.dst.local || u.dst.idx != s || !isSlot(u.a, s) {
			return nil
		}
		hasUn, unOp = true, u.op
		j++
	}
	if len(body) != j+3 {
		return nil
	}
	b1, b2, st := body[j], body[j+1], body[j+2]
	if b1.kind != irBin || b1.dst.local || b1.dst.idx != s || !isSlot(b1.a, s) || b1.b.k != kLocal {
		return nil
	}
	if b2.kind != irBin || b2.dst.local || b2.dst.idx != s || !isSlot(b2.a, s) || b2.b.k != kLocal {
		return nil
	}
	p1, p2 := b1.b.idx, b2.b.idx
	if st.kind != irStoreM || !isLocal(st.a, t) || !isSlot(st.b, s) {
		return nil
	}
	if t == p1 || t == p2 {
		return nil
	}
	shape := mapEval
	switch {
	case hasUn && unOp == amulet.OpQtoF && b1.op == amulet.OpFSub && b2.op == amulet.OpFMul:
		shape = mapF
	case !hasUn && b1.op == amulet.OpSub && b2.op == amulet.OpMulQ:
		shape = mapQ
	}
	elem := buildMapElem(hasUn, unOp, b1.op, b2.op)
	ii := iIdx
	return func(m *machine, i0 int32, n int64) bool {
		c1, c2 := m.locals[p1], m.locals[p2] // body never writes p1/p2
		if lo, ok := affineRange(i0, n, base, len(m.data)); ok {
			sl := m.data[lo : lo+n]
			switch shape {
			case mapF:
				l, k := f32(c1), f32(c2)
				for j2, v := range sl {
					sl[j2] = f32bits((float32(fixedpoint.FromRaw(v).Float()) - l) * k)
				}
			case mapQ:
				l, k := fixedpoint.FromRaw(c1), fixedpoint.FromRaw(c2)
				for j2, v := range sl {
					sl[j2] = fixedpoint.Mul(fixedpoint.Sub(fixedpoint.FromRaw(v), l), k).Raw()
				}
			default:
				for j2, v := range sl {
					sl[j2] = elem(v, c1, c2)
				}
			}
			m.locals[t] = sadd(i0+int32(n)-1, base)
			m.locals[ii] = i0 + int32(n)
			return true
		}
		for i := i0; n > 0; n-- {
			addr := sadd(i, base)
			m.locals[t] = addr
			if addr < 0 || int(addr) >= len(m.data) {
				return loadFault(m, addr)
			}
			m.data[addr] = elem(m.data[addr], c1, c2)
			i++
			m.locals[ii] = i
		}
		return true
	}
}

// mapShape names a map-store body the kernel runs as an inline loop: the
// two normalize shapes the firmware generator emits.
type mapShape uint8

const (
	mapEval mapShape = iota // captured evaluation functions
	mapF                    // QtoF, FSub, FMul (Original)
	mapQ                    // Sub, MulQ (Simplified)
)

// buildMapElem composes the interpreter's evaluation functions into the
// per-element function of a map-store body: the whole loop for a shape
// outside mapF and mapQ, and every shape's fallback when the run leaves
// the segment.
func buildMapElem(hasUn bool, u, b1, b2 amulet.Op) func(v, c1, c2 int32) int32 {
	fb1, fb2 := amulet.BinaryEval(b1), amulet.BinaryEval(b2)
	if hasUn {
		fu := amulet.UnaryEval(u)
		return func(v, c1, c2 int32) int32 { return fb2(fb1(fu(v), c1), c2) }
	}
	return func(v, c1, c2 int32) int32 { return fb2(fb1(v, c1), c2) }
}

// matchHistogram compiles the portrait binning loop: quantize the i-th
// sample of two channels to clamped grid coordinates, then increment the
// occupancy cell. This is the single hottest loop in the Original and
// Simplified detectors.
//
//	IR: [ LoadM{AddLC(i,baseX) → slot s},    ┐ column unit
//	      Bin{mulX, slot s, Const → slot s}, │
//	      Un{toIX, slot s → slot s},         │
//	      Bin{Max, slot s, Const → slot s},  │
//	      Bin{Min, slot s, Const → local c}, ┘
//	      ... same five for the row unit → local r,
//	      Bin{MulI, local r, Const stride → slot s},
//	      Bin{Add, slot s, local c → slot s},
//	      Bin{Add, slot s, Const matrixBase → local c},
//	      LoadM{local c → slot s2},
//	      Bin{Add, slot s2, Const 1 → slot s2},
//	      StoreM{local c, slot s2} ]
func matchHistogram(body []irOp, iIdx int) func(*machine, int32, int64) bool {
	if len(body) != 16 {
		return nil
	}
	col, ok := matchHistUnit(body[0:5], iIdx)
	if !ok {
		return nil
	}
	row, ok := matchHistUnit(body[5:10], iIdx)
	if !ok || row.dst == col.dst {
		return nil
	}
	stride := body[10]
	if stride.kind != irBin || stride.op != amulet.OpMulI || stride.dst.local ||
		!isLocal(stride.a, row.dst) || stride.b.k != kConst {
		return nil
	}
	s := stride.dst.idx
	addCol := body[11]
	if addCol.kind != irBin || addCol.op != amulet.OpAdd || addCol.dst.local || addCol.dst.idx != s ||
		!isSlot(addCol.a, s) || !isLocal(addCol.b, col.dst) {
		return nil
	}
	addBase := body[12]
	if addBase.kind != irBin || addBase.op != amulet.OpAdd || !addBase.dst.local || addBase.dst.idx != col.dst ||
		!isSlot(addBase.a, s) || addBase.b.k != kConst {
		return nil
	}
	cell := body[13]
	if cell.kind != irLoadM || !isLocal(cell.a, col.dst) || cell.dst.local {
		return nil
	}
	s2 := cell.dst.idx
	bump := body[14]
	if bump.kind != irBin || bump.op != amulet.OpAdd || bump.dst.local || bump.dst.idx != s2 ||
		!isSlot(bump.a, s2) || bump.b.k != kConst || bump.b.c != 1 {
		return nil
	}
	st := body[15]
	if st.kind != irStoreM || !isLocal(st.a, col.dst) || !isSlot(st.b, s2) {
		return nil
	}
	h := &histogram{col: col, row: row, stride: stride.b.c, base: addBase.b.c, ii: iIdx}
	if col.quant == row.quant {
		h.quant = col.quant
	}
	return h.run
}

// histUnit is one channel's five-IR quantize-and-clamp unit.
type histUnit struct {
	base, mulC, maxC, minC int32
	dst                    int // local receiving the clamped coordinate
	quant                  quantKind
	mul                    func(a, b int32) int32
	toI                    func(v int32) int32
}

// quantKind names a unit's (mul, toI) pair when it is one of the shapes
// the firmware generator emits, which the histogram kernel runs as
// direct code.
type quantKind uint8

const (
	quantEval quantKind = iota // captured evaluation functions
	quantF                     // FMul, FtoI (Original)
	quantQ                     // MulQ, QtoI (Simplified)
)

// matchHistUnit matches the quantize-and-clamp unit ending in a local
// destination.
func matchHistUnit(irs []irOp, iIdx int) (histUnit, bool) {
	ld := irs[0]
	if ld.kind != irLoadM || !isAddLC(ld.a, iIdx) || ld.dst.local {
		return histUnit{}, false
	}
	s := ld.dst.idx
	mul := irs[1]
	if mul.kind != irBin || mul.dst.local || mul.dst.idx != s || !isSlot(mul.a, s) || mul.b.k != kConst {
		return histUnit{}, false
	}
	conv := irs[2]
	if conv.kind != irUn || conv.dst.local || conv.dst.idx != s || !isSlot(conv.a, s) {
		return histUnit{}, false
	}
	cmax := irs[3]
	if cmax.kind != irBin || cmax.op != amulet.OpMax || cmax.dst.local || cmax.dst.idx != s ||
		!isSlot(cmax.a, s) || cmax.b.k != kConst {
		return histUnit{}, false
	}
	cmin := irs[4]
	if cmin.kind != irBin || cmin.op != amulet.OpMin || !cmin.dst.local ||
		!isSlot(cmin.a, s) || cmin.b.k != kConst {
		return histUnit{}, false
	}
	u := histUnit{
		base: ld.a.c, mulC: mul.b.c, maxC: cmax.b.c, minC: cmin.b.c, dst: cmin.dst.idx,
		mul: amulet.BinaryEval(mul.op), toI: amulet.UnaryEval(conv.op),
	}
	if u.mul == nil || u.toI == nil {
		return histUnit{}, false
	}
	switch {
	case mul.op == amulet.OpFMul && conv.op == amulet.OpFtoI:
		u.quant = quantF
	case mul.op == amulet.OpMulQ && conv.op == amulet.OpQtoI:
		u.quant = quantQ
	}
	return u, true
}

// bin maps one sample to its clamped grid coordinate with the captured
// evaluation functions.
func (u *histUnit) bin(x int32) int32 {
	return min(max(u.toI(u.mul(x, u.mulC)), u.maxC), u.minC)
}

type histogram struct {
	col, row     histUnit
	quant        quantKind
	stride, base int32
	ii           int
}

func (h *histogram) run(m *machine, i0 int32, n int64) bool {
	lx, okX := affineRange(i0, n, h.col.base, len(m.data))
	ly, okY := affineRange(i0, n, h.row.base, len(m.data))
	if okX && okY && h.cellsInSegment(len(m.data)) {
		m.locals[h.col.dst], m.locals[h.row.dst] = h.bump(m.data, m.data[lx:lx+n], m.data[ly:ly+n])
		m.locals[h.ii] = i0 + int32(n)
		return true
	}
	for i := i0; n > 0; n-- {
		ax := sadd(i, h.col.base)
		if ax < 0 || int(ax) >= len(m.data) {
			return loadFault(m, ax)
		}
		c := h.col.bin(m.data[ax])
		m.locals[h.col.dst] = c

		ay := sadd(i, h.row.base)
		if ay < 0 || int(ay) >= len(m.data) {
			return loadFault(m, ay)
		}
		r := h.row.bin(m.data[ay])
		m.locals[h.row.dst] = r

		addr := sadd(sadd(smulI(r, h.stride), c), h.base)
		m.locals[h.col.dst] = addr
		if addr < 0 || int(addr) >= len(m.data) {
			return loadFault(m, addr)
		}
		m.data[addr] = sadd(m.data[addr], 1)
		i++
		m.locals[h.ii] = i
	}
	return true
}

// span is the range [lo, hi] of the unit's clamped coordinate
// min(max(v, maxC), minC), whatever v is.
func (u *histUnit) span() (lo, hi int64) {
	return int64(min(u.maxC, u.minC)), int64(u.minC)
}

// cellsInSegment is the histogram's precondition: every cell address
// r·stride + c + base over the clamp box of (r, c) is computed without
// saturating and lies in the segment. Each step is monotone in r and in
// c, so checking the box's four corners suffices.
func (h *histogram) cellsInSegment(dataLen int) bool {
	rLo, rHi := h.row.span()
	cLo, cHi := h.col.span()
	for _, r := range [...]int64{rLo, rHi} {
		for _, c := range [...]int64{cLo, cHi} {
			p := r * int64(h.stride)
			q := p + c
			a := q + int64(h.base)
			if p < math.MinInt32 || p > math.MaxInt32 || q < math.MinInt32 || q > math.MaxInt32 ||
				a < 0 || a >= int64(dataLen) {
				return false
			}
		}
	}
	return true
}

// bump is the histogram's fast path, entered once cellsInSegment holds:
// it bins each sample pair of xs, ys and increments its cell, with no
// saturating step in the address and no address check, and returns the
// last pair's cell address and row, which the body leaves in its locals.
// A cell only saturates at MaxInt32, as sadd would.
func (h *histogram) bump(d, xs, ys []int32) (a, r int32) {
	fx, fy := f32(h.col.mulC), f32(h.row.mulC)
	qx, qy := fixedpoint.FromRaw(h.col.mulC), fixedpoint.FromRaw(h.row.mulC)
	quant, col, row := h.quant, &h.col, &h.row
	cLo, cHi, rLo, rHi := col.maxC, col.minC, row.maxC, row.minC
	stride, base := h.stride, h.base
	for j, x := range xs {
		y := ys[j]
		var c int32
		switch quant {
		case quantF:
			c, r = int32(f32(x)*fx), int32(f32(y)*fy)
		case quantQ:
			c = int32(fixedpoint.Mul(fixedpoint.FromRaw(x), qx).Int())
			r = int32(fixedpoint.Mul(fixedpoint.FromRaw(y), qy).Int())
		default:
			c, r = col.toI(col.mul(x, col.mulC)), row.toI(row.mul(y, row.mulC))
		}
		c = min(max(c, cLo), cHi)
		r = min(max(r, rLo), rHi)
		a = r*stride + c + base
		if v := d[a]; v != math.MaxInt32 {
			d[a] = v + 1
		}
	}
	return a, r
}

// matchReduce compiles the accumulation loops of the portrait-matrix
// features — the column sums, the spatial filling index's Σc², and the
// column mean and variance: acc ⊕= f(data[addr(i)]).
//
//	IR: [ LoadM{addr → slot s | local t},
//	      Bin{sub, slot s, local l → local t}?,    f = (x − l)²
//	      Bin{mul, local t, local t → slot s}?,    f = x·x or (x − l)²
//	      Bin{⊕, slot s, local acc → local acc} ]
//
// addr is AddLC(i,c) on the load itself, or the strided column walk
// i·k + l2 + c with l2 a local the body never writes:
//
//	Bin{MulI, local i, Const k → slot s},
//	Bin{Add, slot s, local l2 → slot s},
//	Bin{Add, slot s, Const c → slot s},
//	LoadM{slot s → …}
//
// ⊕ is Add or FAdd, mul is MulI, MulQ or FMul, and sub is Sub or FSub.
func matchReduce(body []irOp, iIdx int) func(*machine, int32, int64) bool {
	r := &reduce{ii: iIdx, t: -1, l: -1, l2: -1}
	j := 0
	if len(body) > 0 && body[0].kind == irBin {
		mk := body[0]
		if len(body) < 5 || mk.op != amulet.OpMulI || mk.dst.local || !isLocal(mk.a, iIdx) || mk.b.k != kConst {
			return nil
		}
		s := mk.dst.idx
		al, ac := body[1], body[2]
		if al.kind != irBin || al.op != amulet.OpAdd || al.dst.local || al.dst.idx != s ||
			!isSlot(al.a, s) || al.b.k != kLocal {
			return nil
		}
		if ac.kind != irBin || ac.op != amulet.OpAdd || ac.dst.local || ac.dst.idx != s ||
			!isSlot(ac.a, s) || ac.b.k != kConst {
			return nil
		}
		if body[3].kind != irLoadM || !isSlot(body[3].a, s) {
			return nil
		}
		r.strided, r.k, r.l2, r.c = true, mk.b.c, al.b.idx, ac.b.c
		j = 3
	} else if len(body) > 0 && body[0].kind == irLoadM && isAddLC(body[0].a, iIdx) {
		r.c = body[0].a.c
	} else {
		return nil
	}
	ld, rest := body[j], body[j+1:]

	var fold irOp
	var mulOp, subOp amulet.Op // zero when f has no such step
	switch {
	case len(rest) == 1 && !ld.dst.local: // f = x
		fold = rest[0]
		if !isSlot(fold.a, ld.dst.idx) {
			return nil
		}
	case len(rest) == 2 && ld.dst.local: // f = x·x, t = x
		r.t = ld.dst.idx
		sq := rest[0]
		if sq.kind != irBin || sq.dst.local || !isLocal(sq.a, r.t) || !isLocal(sq.b, r.t) {
			return nil
		}
		mulOp, fold = sq.op, rest[1]
		if !isSlot(fold.a, sq.dst.idx) {
			return nil
		}
	case len(rest) == 3 && !ld.dst.local: // f = (x − l)², t = x − l
		dev, sq := rest[0], rest[1]
		if dev.kind != irBin || !dev.dst.local || !isSlot(dev.a, ld.dst.idx) || dev.b.k != kLocal {
			return nil
		}
		r.t, r.l, subOp = dev.dst.idx, dev.b.idx, dev.op
		if sq.kind != irBin || sq.dst.local || !isLocal(sq.a, r.t) || !isLocal(sq.b, r.t) {
			return nil
		}
		mulOp, fold = sq.op, rest[2]
		if !isSlot(fold.a, sq.dst.idx) {
			return nil
		}
	default:
		return nil
	}
	if fold.kind != irBin || (fold.op != amulet.OpAdd && fold.op != amulet.OpFAdd) ||
		!fold.dst.local || !isLocal(fold.b, fold.dst.idx) {
		return nil
	}
	r.acc = fold.dst.idx
	switch mulOp {
	case 0, amulet.OpMulI, amulet.OpMulQ, amulet.OpFMul:
	default:
		return nil
	}
	switch subOp {
	case 0, amulet.OpSub, amulet.OpFSub:
	default:
		return nil
	}
	// Every local the body reads but never writes (l, l2) must stay
	// constant across the run, and the written ones (t, acc) distinct.
	if r.t == r.acc {
		return nil
	}
	for _, ro := range [...]int{r.l, r.l2} {
		if ro >= 0 && (ro == r.t || ro == r.acc || ro == iIdx) {
			return nil
		}
	}

	r.add = amulet.BinaryEval(fold.op)
	if mulOp != 0 {
		r.mul = amulet.BinaryEval(mulOp)
	}
	if subOp != 0 {
		r.sub = amulet.BinaryEval(subOp)
	}
	switch {
	case subOp == 0 && mulOp == 0 && fold.op == amulet.OpAdd:
		r.shape = reduceSum
	case subOp == 0 && mulOp == 0:
		r.shape = reduceSumF
	case subOp == 0 && mulOp == amulet.OpMulI && fold.op == amulet.OpAdd:
		r.shape = reduceSquares
	case subOp == amulet.OpSub && mulOp == amulet.OpMulQ && fold.op == amulet.OpAdd:
		r.shape = reduceDevQ
	case subOp == amulet.OpFSub && mulOp == amulet.OpFMul && fold.op == amulet.OpFAdd:
		r.shape = reduceDevF
	}
	return r.run
}

type reduceShape uint8

const (
	reduceEval    reduceShape = iota // captured evaluation functions
	reduceSum                        // Add, f = x
	reduceSumF                       // FAdd, f = x
	reduceSquares                    // Add, f = MulI(x, x)
	reduceDevQ                       // Add, f = MulQ(d, d), d = Sub(x, l)
	reduceDevF                       // FAdd, f = FMul(d, d), d = FSub(x, l)
)

type reduce struct {
	strided bool
	k, c    int32 // address i·k + l2 + c (strided) or i + c
	l2      int

	shape         reduceShape
	ii, acc, t, l int // t, l are -1 when f has no scratch local / no offset
	add, mul, sub func(a, b int32) int32
}

func (r *reduce) run(m *machine, i0 int32, n int64) bool {
	if lo, step, ok := r.span(m, i0, n); ok {
		r.fold(m, lo, step, n)
		m.locals[r.ii] = i0 + int32(n)
		return true
	}
	for i := i0; n > 0; n-- {
		addr := r.addr(m, i)
		if addr < 0 || int(addr) >= len(m.data) {
			return loadFault(m, addr)
		}
		r.step(m, m.data[addr])
		i++
		m.locals[r.ii] = i
	}
	return true
}

// addr is iteration i's address with the interpreter's saturating steps.
func (r *reduce) addr(m *machine, i int32) int32 {
	if !r.strided {
		return sadd(i, r.c)
	}
	return sadd(sadd(smulI(i, r.k), m.locals[r.l2]), r.c)
}

// span reports whether every address of the run [i0, i0+n) is computed
// without saturating and lies in the segment, returning the first address
// and the step between consecutive ones. Each intermediate of the
// address is affine in i, so checking both ends of the run suffices.
func (r *reduce) span(m *machine, i0 int32, n int64) (lo, step int64, ok bool) {
	if !r.strided {
		lo, ok = affineRange(i0, n, r.c, len(m.data))
		return lo, 1, ok
	}
	k, l2, c := int64(r.k), int64(m.locals[r.l2]), int64(r.c)
	for _, i := range [...]int64{int64(i0), int64(i0) + n - 1} {
		p := i * k
		q := p + l2
		a := q + c
		if p < math.MinInt32 || p > math.MaxInt32 || q < math.MinInt32 || q > math.MaxInt32 ||
			a < 0 || a >= int64(len(m.data)) {
			return 0, 0, false
		}
	}
	return int64(i0)*k + l2 + c, k, true
}

// step folds one element with the captured evaluation functions, writing
// the scratch local and the accumulator as the body would.
func (r *reduce) step(m *machine, x int32) {
	if r.sub != nil {
		x = r.sub(x, m.locals[r.l])
	}
	if r.t >= 0 {
		m.locals[r.t] = x
	}
	if r.mul != nil {
		x = r.mul(x, x)
	}
	m.locals[r.acc] = r.add(x, m.locals[r.acc])
}

// fold runs n steps over data[lo], data[lo+step], … once span has proven
// every address valid: direct loops for the shapes the firmware generator
// emits, the evaluating step for anything else. The integer sums first
// try sumGrows; otherwise saturating ops stay per-step, and float32 sums
// always accumulate in order, so the result is bit-identical to the
// interpreter's.
func (r *reduce) fold(m *machine, lo, step, n int64) {
	d, a := m.data, lo
	switch r.shape {
	case reduceSum:
		if s, ok := sumGrows(d, lo, step, n, m.locals[r.acc], false); ok {
			m.locals[r.acc] = s
			return
		}
		acc := m.locals[r.acc]
		for ; n > 0; n-- {
			acc = sadd(d[a], acc)
			a += step
		}
		m.locals[r.acc] = acc
	case reduceSumF:
		acc := f32(m.locals[r.acc])
		for ; n > 0; n-- {
			acc = f32(d[a]) + acc
			a += step
		}
		m.locals[r.acc] = f32bits(acc)
	case reduceSquares:
		if s, ok := sumGrows(d, lo, step, n, m.locals[r.acc], true); ok {
			m.locals[r.t], m.locals[r.acc] = d[lo+(n-1)*step], s
			return
		}
		acc, x := m.locals[r.acc], int32(0)
		for ; n > 0; n-- {
			x = d[a]
			acc = sadd(smulI(x, x), acc)
			a += step
		}
		m.locals[r.t], m.locals[r.acc] = x, acc
	case reduceDevQ:
		l, acc, dv := fixedpoint.FromRaw(m.locals[r.l]), m.locals[r.acc], fixedpoint.Q(0)
		for ; n > 0; n-- {
			dv = fixedpoint.Sub(fixedpoint.FromRaw(d[a]), l)
			acc = sadd(fixedpoint.Mul(dv, dv).Raw(), acc)
			a += step
		}
		m.locals[r.t], m.locals[r.acc] = dv.Raw(), acc
	case reduceDevF:
		l, acc, dv := f32(m.locals[r.l]), f32(m.locals[r.acc]), float32(0)
		for ; n > 0; n-- {
			dv = f32(d[a]) - l
			acc = float32(dv*dv) + acc // the conversion forbids fusing into an FMA
			a += step
		}
		m.locals[r.t], m.locals[r.acc] = f32bits(dv), f32bits(acc)
	default:
		for ; n > 0; n-- {
			r.step(m, d[a])
			a += step
		}
	}
}

// sumGrows is the integer reduce's fast path: it adds the n terms x (or
// smulI(x, x) = min(x², MaxInt32) when squares) of data[lo], data[lo+step],
// … to acc in int64, with no saturating step. When every term is ≥ 0 the
// partial sums only grow from acc, so they all stay in int32 range
// exactly when the final one does, and then no sadd step would have
// clamped: ok reports that, and sum is the interpreter's result. n terms
// of at most 2³¹ each (n < 2³²) cannot overflow int64, so the terms add
// in four independent lanes, merged before the check; int64 addition
// without overflow is associative, so the total is the sequential one.
// When ok is false nothing was written, and the caller reruns the exact
// loop from acc.
func sumGrows(d []int32, lo, step, n int64, acc int32, squares bool) (sum int32, ok bool) {
	var s int64
	var neg int32 // OR of the sum's terms: negative when any term is
	switch {
	case squares && step == 1:
		s = squareLanes(d[lo : lo+n])
	case squares:
		s = squareLanesStrided(d, lo, step, n)
	case step == 1:
		s, neg = sumLanes(d[lo : lo+n])
	default:
		s, neg = sumLanesStrided(d, lo, step, n)
	}
	s += int64(acc)
	if neg < 0 || s > math.MaxInt32 {
		return 0, false
	}
	return int32(s), true
}

// sq is a Σx² term: smulI(x, x), which is never negative.
func sq(x int32) int64 { return min(int64(x)*int64(x), math.MaxInt32) }

// sumLanes returns the sum of xs and the OR of its elements.
func sumLanes(xs []int32) (int64, int32) {
	var s0, s1, s2, s3 int64
	var neg int32
	for ; len(xs) >= 4; xs = xs[4:] {
		x0, x1, x2, x3 := xs[0], xs[1], xs[2], xs[3]
		s0, s1, s2, s3 = s0+int64(x0), s1+int64(x1), s2+int64(x2), s3+int64(x3)
		neg |= x0 | x1 | x2 | x3
	}
	for _, x := range xs {
		s0 += int64(x)
		neg |= x
	}
	return s0 + s1 + s2 + s3, neg
}

// sumLanesStrided is sumLanes over d[lo], d[lo+step], …, n elements.
func sumLanesStrided(d []int32, lo, step, n int64) (int64, int32) {
	var s0, s1, s2, s3 int64
	var neg int32
	for ; n >= 4; n -= 4 {
		x0, x1, x2, x3 := d[lo], d[lo+step], d[lo+2*step], d[lo+3*step]
		s0, s1, s2, s3 = s0+int64(x0), s1+int64(x1), s2+int64(x2), s3+int64(x3)
		neg |= x0 | x1 | x2 | x3
		lo += 4 * step
	}
	for ; n > 0; n-- {
		s0 += int64(d[lo])
		neg |= d[lo]
		lo += step
	}
	return s0 + s1 + s2 + s3, neg
}

// squareLanes returns the sum of sq over xs.
func squareLanes(xs []int32) int64 {
	var s0, s1, s2, s3 int64
	for ; len(xs) >= 4; xs = xs[4:] {
		s0, s1, s2, s3 = s0+sq(xs[0]), s1+sq(xs[1]), s2+sq(xs[2]), s3+sq(xs[3])
	}
	for _, x := range xs {
		s0 += sq(x)
	}
	return s0 + s1 + s2 + s3
}

// squareLanesStrided is squareLanes over d[lo], d[lo+step], …, n elements.
func squareLanesStrided(d []int32, lo, step, n int64) int64 {
	var s0, s1, s2, s3 int64
	for ; n >= 4; n -= 4 {
		s0, s1, s2, s3 = s0+sq(d[lo]), s1+sq(d[lo+step]), s2+sq(d[lo+2*step]), s3+sq(d[lo+3*step])
		lo += 4 * step
	}
	for ; n > 0; n-- {
		s0 += sq(d[lo])
		lo += step
	}
	return s0 + s1 + s2 + s3
}
