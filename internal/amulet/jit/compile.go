package jit

import (
	"encoding/binary"
	"errors"
	"fmt"

	"github.com/wiot-security/sift/internal/amulet"
	"github.com/wiot-security/sift/internal/vmlint"
)

// maxCompiledInstrs caps the total instruction count after call inlining.
// Full inlining duplicates a callee per call site, so adversarial (fuzzed)
// programs could otherwise blow the compiled artifact up exponentially;
// past the cap, Compile errors and the device keeps the interpreter.
const maxCompiledInstrs = 1 << 16

// Compile translates a program into native Go closures. It accepts only
// programs the static verifier passes clean — every proof the compiler
// leans on (balanced stack, in-range locals, acyclic calls, decodable
// CFG) comes from vmlint, so an unverifiable program compiles to nothing
// rather than to something subtly wrong.
func Compile(p *amulet.Program) (*Program, error) {
	if p == nil {
		return nil, errors.New("amulet/jit: nil program")
	}
	rep := vmlint.Analyze(p)
	if errs := rep.Errs(); len(errs) > 0 {
		return nil, fmt.Errorf("amulet/jit: %q failed static verification: %s", p.Name, errs[0])
	}
	c := &compiler{
		code:   p.Code,
		instrs: make(map[int]*instr),
		sums:   make(map[int]*subSum),
		inProg: make(map[int]bool),
		ids:    make(map[blockKey]int),
	}
	if err := c.decode(); err != nil {
		return nil, err
	}
	c.findLeaders()
	c.ctxs = append(c.ctxs, context{depth: 0, ret: -1}) // main
	if _, err := c.getBlock(0, 0, 0); err != nil {
		return nil, err
	}
	for len(c.work) > 0 {
		w := c.work[len(c.work)-1]
		c.work = c.work[:len(c.work)-1]
		if err := c.emitBlock(w); err != nil {
			return nil, err
		}
	}
	c.fuseLoops()
	for _, b := range c.blocks {
		b.irs, b.cmp = nil, nil
	}
	return &Program{name: p.Name, dataWords: p.DataWords, blocks: c.blocks}, nil
}

// instr is one decoded instruction.
type instr struct {
	op     amulet.Op
	pc     int
	next   int   // pc of the following instruction
	target int   // branch/call target (2-byte operand ops)
	imm    int32 // Push immediate
	idx    int   // local index (1-byte operand ops)
}

// context is one inlined calling context: main, or one call site's copy
// of a subroutine.
type context struct {
	depth int // call nesting depth (0 = main)
	ret   int // block id a Ret jumps to; -1 ends the run (main's Ret)
}

type blockKey struct{ ctx, pc int }

type workItem struct{ id, ctx, pc, sp int }

type compiler struct {
	code    []byte
	instrs  map[int]*instr
	leaders map[int]bool
	sums    map[int]*subSum
	inProg  map[int]bool
	ids     map[blockKey]int
	blocks  []*block
	spans   [][2]int // bytecode range [pc, end) each block compiles, by id
	ctxs    []context
	work    []workItem
	total   int
}

// decode discovers every reachable instruction by the same control-flow
// traversal vmlint's decoder uses, so anything the verifier accepted
// decodes here too; any failure is a compiler/verifier disagreement.
func (c *compiler) decode() error {
	work := []int{0}
	for len(work) > 0 {
		pc := work[len(work)-1]
		work = work[:len(work)-1]
		if _, done := c.instrs[pc]; done {
			continue
		}
		if pc < 0 || pc >= len(c.code) {
			return fmt.Errorf("amulet/jit: pc 0x%04x outside code", pc)
		}
		op := amulet.Op(c.code[pc])
		if !op.Valid() {
			return fmt.Errorf("amulet/jit: invalid opcode %d at 0x%04x", c.code[pc], pc)
		}
		size := 1 + op.OperandBytes()
		if pc+size > len(c.code) {
			return fmt.Errorf("amulet/jit: truncated %v at 0x%04x", op, pc)
		}
		in := &instr{op: op, pc: pc, next: pc + size}
		switch op.OperandBytes() {
		case 1:
			in.idx = int(c.code[pc+1])
		case 2:
			in.target = int(binary.LittleEndian.Uint16(c.code[pc+1:]))
		case 4:
			in.imm = int32(binary.LittleEndian.Uint32(c.code[pc+1:]))
		}
		c.instrs[pc] = in
		switch op {
		case amulet.OpHalt, amulet.OpRet:
		case amulet.OpJmp:
			work = append(work, in.target)
		case amulet.OpJz, amulet.OpJnz, amulet.OpCall:
			work = append(work, in.target, in.next)
		default:
			work = append(work, in.next)
		}
	}
	return nil
}

// findLeaders marks every pc that starts a basic block for a reason other
// than being fallen into: branch and call targets, and the join points
// after conditional branches and calls.
func (c *compiler) findLeaders() {
	c.leaders = make(map[int]bool)
	for _, in := range c.instrs {
		switch in.op {
		case amulet.OpJmp:
			c.leaders[in.target] = true
		case amulet.OpJz, amulet.OpJnz, amulet.OpCall:
			c.leaders[in.target] = true
			c.leaders[in.next] = true
		}
	}
}

// subSum summarizes a subroutine for inlining: its net stack delta and
// whether any path returns.
type subSum struct {
	net     int
	returns bool
}

// subSummary computes (and memoizes) a subroutine's summary by walking
// its body with relative stack depths, descending into callees through
// their summaries. Verified programs have consistent depths and no
// recursion; both are still checked.
func (c *compiler) subSummary(entry int) (*subSum, error) {
	if s, ok := c.sums[entry]; ok {
		return s, nil
	}
	if c.inProg[entry] {
		return nil, fmt.Errorf("amulet/jit: recursive call through 0x%04x", entry)
	}
	c.inProg[entry] = true
	defer delete(c.inProg, entry)

	depth := map[int]int{entry: 0}
	work := []int{entry}
	s := &subSum{}
	var derr error
	add := func(pc, d int) {
		if prev, ok := depth[pc]; ok {
			if prev != d {
				derr = fmt.Errorf("amulet/jit: unbalanced stack at 0x%04x (%d vs %d)", pc, prev, d)
			}
			return
		}
		depth[pc] = d
		work = append(work, pc)
	}
	for len(work) > 0 && derr == nil {
		pc := work[len(work)-1]
		work = work[:len(work)-1]
		in := c.instrs[pc]
		if in == nil {
			return nil, fmt.Errorf("amulet/jit: no instruction at 0x%04x", pc)
		}
		pops, pushes := in.op.StackEffect()
		d := depth[pc] - pops + pushes
		switch in.op {
		case amulet.OpHalt:
		case amulet.OpRet:
			if s.returns && s.net != depth[pc] {
				return nil, fmt.Errorf("amulet/jit: subroutine 0x%04x returns at depths %d and %d", entry, s.net, depth[pc])
			}
			s.net, s.returns = depth[pc], true
		case amulet.OpJmp:
			add(in.target, d)
		case amulet.OpJz, amulet.OpJnz:
			add(in.target, d)
			add(in.next, d)
		case amulet.OpCall:
			cs, err := c.subSummary(in.target)
			if err != nil {
				return nil, err
			}
			if cs.returns {
				add(in.next, d+cs.net)
			}
		default:
			add(in.next, d)
		}
	}
	if derr != nil {
		return nil, derr
	}
	c.sums[entry] = s
	return s, nil
}

// getBlock returns the block id for (ctx, pc), creating and scheduling it
// on first request. Every block is entered with the operand stack fully
// materialized at a fixed depth; the balanced-stack proof makes that
// depth unique per (ctx, pc).
func (c *compiler) getBlock(ctx, pc, sp int) (int, error) {
	key := blockKey{ctx: ctx, pc: pc}
	if id, ok := c.ids[key]; ok {
		if c.blocks[id].entrySP != sp {
			return 0, fmt.Errorf("amulet/jit: block 0x%04x entered at depths %d and %d", pc, c.blocks[id].entrySP, sp)
		}
		return id, nil
	}
	id := len(c.blocks)
	c.blocks = append(c.blocks, &block{entrySP: sp, next: -1})
	c.spans = append(c.spans, [2]int{pc, pc})
	c.ids[key] = id
	c.work = append(c.work, workItem{id: id, ctx: ctx, pc: pc, sp: sp})
	return id, nil
}

// emitBlock compiles one basic block: it walks instructions from the
// block's start, folding them through the descriptor stack into IR, until
// a control instruction or the next leader ends the block, then generates
// the closure templates.
func (c *compiler) emitBlock(w workItem) error {
	blk := c.blocks[w.id]
	blk.depth = c.ctxs[w.ctx].depth
	e := &emitter{c: c, blk: blk, ctx: w.ctx}
	for i := 0; i < w.sp; i++ {
		e.st = append(e.st, operand{k: kSlot, idx: i})
	}
	pc := w.pc
	for {
		in := c.instrs[pc]
		if in == nil {
			return fmt.Errorf("amulet/jit: no instruction at 0x%04x", pc)
		}
		if c.total++; c.total > maxCompiledInstrs {
			return fmt.Errorf("amulet/jit: program exceeds %d instructions after inlining", maxCompiledInstrs)
		}
		blk.cycles += in.op.Cycles()
		blk.instrs++
		blk.slow = append(blk.slow, slowInstr{op: in.op, cost: in.op.Cycles(), imm: in.imm, idx: in.idx})

		done, err := e.instr(in)
		if err != nil {
			return err
		}
		// Telemetry the interpreter tracks per instruction becomes block
		// constants: peak depth after any pushing instruction (Swap moves
		// in place and never pushes), and the highest local touched.
		if _, pushes := in.op.StackEffect(); pushes > 0 && in.op != amulet.OpSwap {
			if d := len(e.st); d > blk.peak {
				blk.peak = d
			}
		}
		if in.op == amulet.OpLoadL || in.op == amulet.OpStoreL {
			if in.idx+1 > blk.locals {
				blk.locals = in.idx + 1
			}
		}
		c.spans[w.id][1] = in.next
		if done {
			break
		}
		pc = in.next
		if c.leaders[pc] {
			e.materializeAll()
			id, err := c.getBlock(w.ctx, pc, len(e.st))
			if err != nil {
				return err
			}
			blk.next = id
			break
		}
	}
	blk.ops = make([]uop, len(e.irs))
	for i, io := range e.irs {
		blk.ops[i] = genUop(io)
	}
	blk.irs = e.irs // kept for the loop fuser, dropped before Compile returns
	return nil
}

// Operand descriptors: what the compile-time stack position currently
// holds. The invariant that keeps materialization trivially correct: a
// kSlot descriptor at position p always has idx == p (its home slot), so
// writing a deferred value to its home never clobbers live data.
type kind uint8

const (
	kSlot  kind = iota // value lives in machine.stack[idx]
	kConst             // compile-time constant c
	kLocal             // read machine.locals[idx] at evaluation time
	kAddLC             // saturating locals[idx] + c (a deferred OpAdd)
)

type operand struct {
	k   kind
	idx int
	c   int32
}

// eval resolves an operand at run time.
func (m *machine) eval(o operand) int32 {
	switch o.k {
	case kSlot:
		return m.stack[o.idx]
	case kConst:
		return o.c
	case kLocal:
		return m.locals[o.idx]
	default: // kAddLC
		return sadd(m.locals[o.idx], o.c)
	}
}

var addSat = amulet.BinaryEval(amulet.OpAdd)

// dest is an IR destination: a stack slot or a local.
type dest struct {
	local bool
	idx   int
}

type irKind uint8

const (
	irMove   irKind = iota // dst = a
	irSwap                 // stack[a.idx] <-> stack[b.idx]
	irBin                  // dst = op(a, b)
	irUn                   // dst = op(a)
	irLoadM                // dst = data[a], bounds-checked
	irStoreM               // data[a] = b, bounds-checked
)

type irOp struct {
	kind irKind
	op   amulet.Op
	a, b operand
	dst  dest
}

// emitter folds one block's instructions into IR over the descriptor
// stack.
type emitter struct {
	c   *compiler
	blk *block
	ctx int
	st  []operand
	irs []irOp
}

func slot(i int) operand { return operand{k: kSlot, idx: i} }

func (e *emitter) push(o operand) { e.st = append(e.st, o) }

func (e *emitter) pop() operand {
	o := e.st[len(e.st)-1]
	e.st = e.st[:len(e.st)-1]
	return o
}

func (e *emitter) ir(io irOp) { e.irs = append(e.irs, io) }

// materialize writes a deferred value to its home slot so later blocks
// (which assume everything lives in home slots) and the slow path see it.
func (e *emitter) materialize(p int) {
	if e.st[p].k == kSlot {
		return
	}
	e.ir(irOp{kind: irMove, a: e.st[p], dst: dest{idx: p}})
	e.st[p] = slot(p)
}

func (e *emitter) materializeAll() {
	for p := range e.st {
		e.materialize(p)
	}
}

// instr translates one instruction. It returns done=true when the
// instruction terminated the block (and set term/next).
func (e *emitter) instr(in *instr) (bool, error) {
	switch in.op {
	case amulet.OpHalt:
		e.blk.next = -1
		return true, nil

	case amulet.OpRet:
		ctx := e.c.ctxs[e.ctx]
		if ctx.ret < 0 {
			e.blk.next = -1 // return from the entry point ends the run
			return true, nil
		}
		e.materializeAll()
		e.blk.next = ctx.ret
		return true, nil

	case amulet.OpJmp:
		e.materializeAll()
		id, err := e.c.getBlock(e.ctx, in.target, len(e.st))
		if err != nil {
			return false, err
		}
		e.blk.next = id
		return true, nil

	case amulet.OpJz, amulet.OpJnz:
		return true, e.branch(in)

	case amulet.OpCall:
		return true, e.call(in)

	case amulet.OpPush:
		e.push(operand{k: kConst, c: in.imm})

	case amulet.OpLoadL:
		e.push(operand{k: kLocal, idx: in.idx})

	case amulet.OpStoreL:
		e.storeL(in.idx)

	case amulet.OpLoadM:
		a := e.pop()
		d := len(e.st)
		e.ir(irOp{kind: irLoadM, a: a, dst: dest{idx: d}})
		e.push(slot(d))

	case amulet.OpStoreM:
		v := e.pop()
		addr := e.pop()
		e.ir(irOp{kind: irStoreM, a: addr, b: v})

	case amulet.OpDup:
		top := e.st[len(e.st)-1]
		if d := len(e.st); top.k == kSlot {
			e.ir(irOp{kind: irMove, a: top, dst: dest{idx: d}})
			e.push(slot(d))
		} else {
			e.push(top) // pure descriptors copy for free
		}

	case amulet.OpDrop:
		e.pop()

	case amulet.OpSwap:
		d := len(e.st)
		a, b := e.st[d-2], e.st[d-1]
		switch {
		case a.k == kSlot && b.k == kSlot:
			e.ir(irOp{kind: irSwap, a: a, b: b})
		case a.k == kSlot: // b is pure: move a's value up, b's descriptor down
			e.ir(irOp{kind: irMove, a: a, dst: dest{idx: d - 1}})
			e.st[d-2], e.st[d-1] = b, slot(d-1)
		case b.k == kSlot:
			e.ir(irOp{kind: irMove, a: b, dst: dest{idx: d - 2}})
			e.st[d-2], e.st[d-1] = slot(d-2), a
		default: // both pure: swap descriptors, no code
			e.st[d-2], e.st[d-1] = b, a
		}

	case amulet.OpOver:
		src := e.st[len(e.st)-2]
		if d := len(e.st); src.k == kSlot {
			e.ir(irOp{kind: irMove, a: src, dst: dest{idx: d}})
			e.push(slot(d))
		} else {
			e.push(src)
		}

	default:
		if fn := amulet.BinaryEval(in.op); fn != nil {
			b := e.pop()
			a := e.pop()
			if a.k == kConst && b.k == kConst {
				e.push(operand{k: kConst, c: fn(a.c, b.c)})
				return false, nil
			}
			if in.op == amulet.OpAdd {
				// Saturating add is commutative, so local+const defers in
				// either order. Only one level deep: saturation is not
				// associative, so AddLC+const must not re-fold.
				if a.k == kLocal && b.k == kConst {
					e.push(operand{k: kAddLC, idx: a.idx, c: b.c})
					return false, nil
				}
				if a.k == kConst && b.k == kLocal {
					e.push(operand{k: kAddLC, idx: b.idx, c: a.c})
					return false, nil
				}
			}
			d := len(e.st)
			e.ir(irOp{kind: irBin, op: in.op, a: a, b: b, dst: dest{idx: d}})
			e.push(slot(d))
			return false, nil
		}
		if fn := amulet.UnaryEval(in.op); fn != nil {
			a := e.pop()
			if a.k == kConst {
				e.push(operand{k: kConst, c: fn(a.c)})
				return false, nil
			}
			d := len(e.st)
			e.ir(irOp{kind: irUn, op: in.op, a: a, dst: dest{idx: d}})
			e.push(slot(d))
			return false, nil
		}
		return false, fmt.Errorf("amulet/jit: unsupported opcode %v", in.op)
	}
	return false, nil
}

// storeL compiles StoreL: any deferred descriptor still reading this
// local must materialize against the old value first; then the store
// retargets the producing op's destination when the value was computed by
// the immediately preceding IR op (the common `...; storel` tail).
func (e *emitter) storeL(idx int) {
	src := e.pop()
	for p, o := range e.st {
		if (o.k == kLocal || o.k == kAddLC) && o.idx == idx {
			e.materialize(p)
		}
	}
	dst := dest{local: true, idx: idx}
	if src.k == kSlot && e.retarget(src.idx, dst) {
		return
	}
	e.ir(irOp{kind: irMove, a: src, dst: dst})
}

// retarget redirects the last IR op's destination from a just-popped
// stack slot to a new destination. Safe because the popped position is
// the only one allowed to reference that slot (the kSlot invariant), and
// it no longer exists.
func (e *emitter) retarget(slotIdx int, dst dest) bool {
	if len(e.irs) == 0 {
		return false
	}
	last := &e.irs[len(e.irs)-1]
	switch last.kind {
	case irMove, irBin, irUn, irLoadM:
		if !last.dst.local && last.dst.idx == slotIdx {
			last.dst = dst
			return true
		}
	}
	return false
}

// branch compiles Jz/Jnz. When the condition was produced by the
// immediately preceding pure op (the `lt; jz` loop-header shape), the
// compare fuses into the terminator and the intermediate slot write
// disappears.
func (e *emitter) branch(in *instr) error {
	cond := e.pop()
	isJz := in.op == amulet.OpJz

	var fused *irOp
	if cond.k == kSlot && len(e.irs) > 0 {
		last := e.irs[len(e.irs)-1]
		if (last.kind == irBin || last.kind == irUn) && !last.dst.local && last.dst.idx == cond.idx {
			e.irs = e.irs[:len(e.irs)-1]
			fused = &last
		}
	}
	e.materializeAll()
	d := len(e.st)
	t, err := e.c.getBlock(e.ctx, in.target, d)
	if err != nil {
		return err
	}
	f, err := e.c.getBlock(e.ctx, in.next, d)
	if err != nil {
		return err
	}

	switch {
	case fused != nil && fused.kind == irBin:
		fn := amulet.BinaryEval(fused.op)
		a, b := fused.a, fused.b
		e.blk.cmp = &cmpInfo{op: fused.op, a: a, b: b, isJz: isJz, t: t, f: f}
		e.blk.term = func(m *machine) int {
			if (fn(m.eval(a), m.eval(b)) == 0) == isJz {
				return t
			}
			return f
		}
	case fused != nil:
		fn := amulet.UnaryEval(fused.op)
		a := fused.a
		e.blk.term = func(m *machine) int {
			if (fn(m.eval(a)) == 0) == isJz {
				return t
			}
			return f
		}
	case cond.k == kConst:
		if (cond.c == 0) == isJz {
			e.blk.next = t
		} else {
			e.blk.next = f
		}
	default:
		co := cond
		e.blk.term = func(m *machine) int {
			if (m.eval(co) == 0) == isJz {
				return t
			}
			return f
		}
	}
	return nil
}

// call compiles Call by full inlining: the callee gets a fresh context
// (one copy per call site) whose Ret jumps to the continuation block in
// this context. The verifier's acyclic call graph and depth bound make
// the expansion finite.
func (e *emitter) call(in *instr) error {
	e.materializeAll()
	d := len(e.st)
	sum, err := e.c.subSummary(in.target)
	if err != nil {
		return err
	}
	ret := -1
	if sum.returns {
		if ret, err = e.c.getBlock(e.ctx, in.next, d+sum.net); err != nil {
			return err
		}
	}
	caller := e.c.ctxs[e.ctx]
	if caller.depth+1 > amulet.MaxCallDepth {
		return fmt.Errorf("amulet/jit: call depth exceeds %d", amulet.MaxCallDepth)
	}
	calleeCtx := len(e.c.ctxs)
	e.c.ctxs = append(e.c.ctxs, context{depth: caller.depth + 1, ret: ret})
	entry, err := e.c.getBlock(calleeCtx, in.target, d)
	if err != nil {
		return err
	}
	e.blk.next = entry
	return nil
}

// genUop instantiates the Go template for one IR op.
func genUop(io irOp) uop {
	a, b, dst := io.a, io.b, io.dst
	switch io.kind {
	case irMove:
		return genMove(a, dst)

	case irSwap:
		i, j := a.idx, b.idx
		return func(m *machine) bool {
			m.stack[i], m.stack[j] = m.stack[j], m.stack[i]
			return true
		}

	case irBin:
		return genBin(io.op, a, b, dst)

	case irUn:
		return genUn(io.op, a, dst)

	case irLoadM:
		return genLoadM(a, dst)

	default: // irStoreM
		return genStoreM(a, b)
	}
}

// genBin instantiates dst = op(a, b). Operand access is resolved here,
// at template-selection time: each supported (a kind, b kind) pair gets
// a closure that indexes the register file directly, so the per-op cost
// at run time is the closure call plus the arithmetic — no operand
// dispatch. Pairs the emitter cannot produce hot (any kAddLC operand;
// const⊗const folds away earlier) fall back to the evaluating template.
func genBin(op amulet.Op, a, b operand, dst dest) uop {
	fn := amulet.BinaryEval(op)
	di := dst.idx
	if dst.local {
		switch {
		case a.k == kSlot && b.k == kSlot:
			ai, bi := a.idx, b.idx
			return func(m *machine) bool { m.locals[di] = fn(m.stack[ai], m.stack[bi]); return true }
		case a.k == kSlot && b.k == kLocal:
			ai, bi := a.idx, b.idx
			return func(m *machine) bool { m.locals[di] = fn(m.stack[ai], m.locals[bi]); return true }
		case a.k == kSlot && b.k == kConst:
			ai, bc := a.idx, b.c
			return func(m *machine) bool { m.locals[di] = fn(m.stack[ai], bc); return true }
		case a.k == kLocal && b.k == kSlot:
			ai, bi := a.idx, b.idx
			return func(m *machine) bool { m.locals[di] = fn(m.locals[ai], m.stack[bi]); return true }
		case a.k == kLocal && b.k == kLocal:
			ai, bi := a.idx, b.idx
			return func(m *machine) bool { m.locals[di] = fn(m.locals[ai], m.locals[bi]); return true }
		case a.k == kLocal && b.k == kConst:
			ai, bc := a.idx, b.c
			return func(m *machine) bool { m.locals[di] = fn(m.locals[ai], bc); return true }
		case a.k == kConst && b.k == kSlot:
			ac, bi := a.c, b.idx
			return func(m *machine) bool { m.locals[di] = fn(ac, m.stack[bi]); return true }
		case a.k == kConst && b.k == kLocal:
			ac, bi := a.c, b.idx
			return func(m *machine) bool { m.locals[di] = fn(ac, m.locals[bi]); return true }
		}
		return func(m *machine) bool { m.locals[di] = fn(m.eval(a), m.eval(b)); return true }
	}
	switch {
	case a.k == kSlot && b.k == kSlot:
		ai, bi := a.idx, b.idx
		return func(m *machine) bool { m.stack[di] = fn(m.stack[ai], m.stack[bi]); return true }
	case a.k == kSlot && b.k == kLocal:
		ai, bi := a.idx, b.idx
		return func(m *machine) bool { m.stack[di] = fn(m.stack[ai], m.locals[bi]); return true }
	case a.k == kSlot && b.k == kConst:
		ai, bc := a.idx, b.c
		return func(m *machine) bool { m.stack[di] = fn(m.stack[ai], bc); return true }
	case a.k == kLocal && b.k == kSlot:
		ai, bi := a.idx, b.idx
		return func(m *machine) bool { m.stack[di] = fn(m.locals[ai], m.stack[bi]); return true }
	case a.k == kLocal && b.k == kLocal:
		ai, bi := a.idx, b.idx
		return func(m *machine) bool { m.stack[di] = fn(m.locals[ai], m.locals[bi]); return true }
	case a.k == kLocal && b.k == kConst:
		ai, bc := a.idx, b.c
		return func(m *machine) bool { m.stack[di] = fn(m.locals[ai], bc); return true }
	case a.k == kConst && b.k == kSlot:
		ac, bi := a.c, b.idx
		return func(m *machine) bool { m.stack[di] = fn(ac, m.stack[bi]); return true }
	case a.k == kConst && b.k == kLocal:
		ac, bi := a.c, b.idx
		return func(m *machine) bool { m.stack[di] = fn(ac, m.locals[bi]); return true }
	}
	return func(m *machine) bool { m.stack[di] = fn(m.eval(a), m.eval(b)); return true }
}

// genUn instantiates dst = op(a) with the same operand resolution.
func genUn(op amulet.Op, a operand, dst dest) uop {
	fn := amulet.UnaryEval(op)
	di := dst.idx
	if dst.local {
		switch a.k {
		case kSlot:
			ai := a.idx
			return func(m *machine) bool { m.locals[di] = fn(m.stack[ai]); return true }
		case kLocal:
			ai := a.idx
			return func(m *machine) bool { m.locals[di] = fn(m.locals[ai]); return true }
		}
		return func(m *machine) bool { m.locals[di] = fn(m.eval(a)); return true }
	}
	switch a.k {
	case kSlot:
		ai := a.idx
		return func(m *machine) bool { m.stack[di] = fn(m.stack[ai]); return true }
	case kLocal:
		ai := a.idx
		return func(m *machine) bool { m.stack[di] = fn(m.locals[ai]); return true }
	}
	return func(m *machine) bool { m.stack[di] = fn(m.eval(a)); return true }
}

// genLoadM instantiates dst = data[a] with a bounds check. The address
// operand is resolved here; the kAddLC form (base + loop counter, the
// dominant shape in generated detectors) inlines the saturating add.
func genLoadM(a operand, dst dest) uop {
	di := dst.idx
	if dst.local {
		switch a.k {
		case kSlot:
			ai := a.idx
			return func(m *machine) bool {
				addr := m.stack[ai]
				if addr < 0 || int(addr) >= len(m.data) {
					return loadFault(m, addr)
				}
				m.locals[di] = m.data[addr]
				return true
			}
		case kLocal:
			ai := a.idx
			return func(m *machine) bool {
				addr := m.locals[ai]
				if addr < 0 || int(addr) >= len(m.data) {
					return loadFault(m, addr)
				}
				m.locals[di] = m.data[addr]
				return true
			}
		case kAddLC:
			ai, c := a.idx, a.c
			return func(m *machine) bool {
				addr := sadd(m.locals[ai], c)
				if addr < 0 || int(addr) >= len(m.data) {
					return loadFault(m, addr)
				}
				m.locals[di] = m.data[addr]
				return true
			}
		}
		return func(m *machine) bool {
			addr := m.eval(a)
			if addr < 0 || int(addr) >= len(m.data) {
				return loadFault(m, addr)
			}
			m.locals[di] = m.data[addr]
			return true
		}
	}
	switch a.k {
	case kSlot:
		ai := a.idx
		return func(m *machine) bool {
			addr := m.stack[ai]
			if addr < 0 || int(addr) >= len(m.data) {
				return loadFault(m, addr)
			}
			m.stack[di] = m.data[addr]
			return true
		}
	case kLocal:
		ai := a.idx
		return func(m *machine) bool {
			addr := m.locals[ai]
			if addr < 0 || int(addr) >= len(m.data) {
				return loadFault(m, addr)
			}
			m.stack[di] = m.data[addr]
			return true
		}
	case kAddLC:
		ai, c := a.idx, a.c
		return func(m *machine) bool {
			addr := sadd(m.locals[ai], c)
			if addr < 0 || int(addr) >= len(m.data) {
				return loadFault(m, addr)
			}
			m.stack[di] = m.data[addr]
			return true
		}
	}
	return func(m *machine) bool {
		addr := m.eval(a)
		if addr < 0 || int(addr) >= len(m.data) {
			return loadFault(m, addr)
		}
		m.stack[di] = m.data[addr]
		return true
	}
}

// genStoreM instantiates data[a] = b with a bounds check.
func genStoreM(a, b operand) uop {
	store := func(m *machine, addr, v int32) bool {
		if addr < 0 || int(addr) >= len(m.data) {
			m.fault = fmt.Errorf("%w: store %d (segment %d words)", amulet.ErrBadAddress, addr, len(m.data))
			return false
		}
		m.data[addr] = v
		return true
	}
	switch a.k {
	case kSlot:
		ai := a.idx
		switch b.k {
		case kSlot:
			bi := b.idx
			return func(m *machine) bool { return store(m, m.stack[ai], m.stack[bi]) }
		case kConst:
			bc := b.c
			return func(m *machine) bool { return store(m, m.stack[ai], bc) }
		case kLocal:
			bi := b.idx
			return func(m *machine) bool { return store(m, m.stack[ai], m.locals[bi]) }
		}
	case kAddLC:
		ai, c := a.idx, a.c
		switch b.k {
		case kSlot:
			bi := b.idx
			return func(m *machine) bool { return store(m, sadd(m.locals[ai], c), m.stack[bi]) }
		case kConst:
			bc := b.c
			return func(m *machine) bool { return store(m, sadd(m.locals[ai], c), bc) }
		}
	}
	return func(m *machine) bool { return store(m, m.eval(a), m.eval(b)) }
}

// genMove instantiates dst = a, with the loop-counter increment
// (`loadl i; push c; add; storel i`) collapsing to one in-place
// saturating add.
func genMove(a operand, dst dest) uop {
	di := dst.idx
	if dst.local {
		switch {
		case a.k == kAddLC && a.idx == di:
			c := a.c
			return func(m *machine) bool { m.locals[di] = sadd(m.locals[di], c); return true }
		case a.k == kSlot:
			ai := a.idx
			return func(m *machine) bool { m.locals[di] = m.stack[ai]; return true }
		case a.k == kLocal:
			ai := a.idx
			return func(m *machine) bool { m.locals[di] = m.locals[ai]; return true }
		case a.k == kConst:
			c := a.c
			return func(m *machine) bool { m.locals[di] = c; return true }
		}
		return func(m *machine) bool { m.locals[di] = m.eval(a); return true }
	}
	switch a.k {
	case kSlot:
		ai := a.idx
		return func(m *machine) bool { m.stack[di] = m.stack[ai]; return true }
	case kLocal:
		ai := a.idx
		return func(m *machine) bool { m.stack[di] = m.locals[ai]; return true }
	case kConst:
		c := a.c
		return func(m *machine) bool { m.stack[di] = c; return true }
	case kAddLC:
		ai, c := a.idx, a.c
		return func(m *machine) bool { m.stack[di] = sadd(m.locals[ai], c); return true }
	}
	return func(m *machine) bool { m.stack[di] = m.eval(a); return true }
}
