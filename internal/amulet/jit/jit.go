// Package jit compiles statically verified Amulet bytecode into native Go
// closures — a template JIT in the tradition of "copy-and-patch": every
// bytecode shape the compiler recognizes has a pre-written Go template, and
// compilation is template selection plus operand binding, not code
// generation.
//
// The design leans entirely on proofs internal/vmlint already produces.
// A verified program has a decodable CFG, a *balanced* stack (the operand
// stack depth at every pc is a compile-time constant), in-range local
// indices, and an acyclic call graph within the hardware depth bound. That
// turns the interpreter's dynamic structure into static facts:
//
//   - stack slots become fixed machine positions, so a run of pure
//     instructions collapses into fused closures (a deferred-operand
//     "descriptor stack" tracks constants, locals, and saturating
//     local+const sums at compile time, and only materializes values the
//     templates cannot absorb);
//   - cycle, instruction, and SRAM telemetry become per-basic-block
//     constants applied once per block entry instead of per instruction;
//   - calls inline fully (one copy per call site), so the compiled
//     artifact is a flat block graph with no call stack at run time.
//
// Telemetry and fault equivalence with the interpreter is exact on
// success, and faults report the same sentinel errors. The one subtlety is
// the cycle budget: the interpreter bills and checks before every
// instruction, while compiled blocks bill up front — so a block whose full
// cost still fits the budget can run fused, and a block that would cross
// the budget line re-runs on a per-instruction slow path that reproduces
// the interpreter's exact fault ordering (OutOfCycles vs BadAddress). The
// interpreter remains the oracle: FuzzJITVsInterp differentially tests
// both backends on verifier-accepted bytecode.
package jit

import (
	"errors"
	"fmt"
	"time"

	"github.com/wiot-security/sift/internal/amulet"
	"github.com/wiot-security/sift/internal/obs"
)

var (
	obsRun    = obs.NewTimer("amulet.jit.run")
	obsInstrs = obs.NewCounter("amulet.jit.instrs")
	obsCycles = obs.NewCounter("amulet.jit.cycles")
)

// errInternal flags a compiled program misbehaving at run time — by
// construction unreachable; if it ever fires, the differential fuzzer has
// found a compiler bug.
var errInternal = errors.New("amulet/jit: internal error")

// machine is the run-time state of a compiled program: the same register
// file the VM models, minus pc and the call stack (calls are inlined).
type machine struct {
	stack  [amulet.MaxStack]int32
	locals [amulet.MaxLocals]int32
	data   []int32

	cycles, instrs               uint64
	maxStack, maxLocals, maxCall int

	fault error

	// loops, when non-nil, receives each loop kernel's dispatches,
	// indexed by loopKernel.ord (RunProfiled).
	loops []LoopStat
}

func (m *machine) usage() amulet.Usage {
	return amulet.Usage{
		Cycles:    m.cycles,
		Instrs:    m.instrs,
		MaxStack:  m.maxStack,
		MaxLocals: m.maxLocals,
		MaxCall:   m.maxCall,
	}
}

// uop is one fused micro-operation within a block. It returns false when
// the machine faulted (m.fault holds the error).
type uop func(m *machine) bool

// block is one compiled basic block: fused closures plus the static
// telemetry of executing the whole block, billed on entry.
type block struct {
	ops  []uop
	term func(m *machine) int // conditional successor; nil → next
	next int                  // constant successor when term == nil; -1 = halt

	cycles uint64 // sum of op costs in the block
	instrs uint64 // instruction count of the block
	peak   int    // max stack depth after any pushing instruction (0 = none)
	locals int    // max local index touched + 1 (0 = none)
	depth  int    // inline call-context depth (MaxCall contribution)

	// Slow-path replay of the original instructions, entered only when the
	// block's full cost would cross the cycle budget.
	slow    []slowInstr
	entrySP int

	// Loop-header metadata, filled by the fuser: kern fast-forwards the
	// remaining iterations of a recognized counted loop in one dispatch.
	kern *loopKernel

	// irs and cmp are compile-time scratch the loop fuser reads; both are
	// dropped before Compile returns.
	irs []irOp
	cmp *cmpInfo
}

// cmpInfo records a fused compare-and-branch terminator's structure so
// the loop fuser can recognize `i < limit` headers after the fact.
type cmpInfo struct {
	op   amulet.Op
	a, b operand
	isJz bool
	t, f int // taken / fallthrough block ids
}

// loopKernel fast-forwards a counted loop (the builder's ForRange shape:
// a side-effect-free `i < limit` header and a straight-line body whose
// only write to i is the trailing increment). Entered at the header, it
// computes how many whole iterations both the trip count and the cycle
// budget allow, bills them as one constant, and runs them in a tight
// dispatch-free loop. The header then executes normally, so the final
// (failing) compare — or a budget fault — lands exactly where the
// interpreter's would.
type loopKernel struct {
	name                 string // template that fused the body ("generic" for closure replay)
	ord                  int    // index among the program's loop kernels, in block order
	pc, end              int    // bytecode range [pc, end) of header and body
	iIdx, limIdx         int
	perCycles, perInstrs uint64 // header + body, one full iteration
	peak, locals         int    // max telemetry over header and body

	// run executes n iterations starting at i0; i0 is redundant with
	// m.locals[iIdx] but saves specialized kernels a reload. It returns
	// false when a data access faulted (m.fault holds the error); locals
	// and the data segment are then exactly as the interpreter would have
	// left them mid-iteration.
	run func(m *machine, i0 int32, n int64) bool
}

// fastForward runs as many whole iterations as the budget allows. It
// never executes a partial iteration: if the budget line falls inside
// one, it stops short and the ordinary driver (and its per-instruction
// slow path) takes over with exact telemetry.
func (k *loopKernel) fastForward(m *machine, maxCycles uint64) bool {
	r := int64(m.locals[k.limIdx]) - int64(m.locals[k.iIdx])
	if r <= 0 || m.cycles >= maxCycles {
		return true
	}
	fit := (maxCycles - m.cycles) / k.perCycles
	n := r
	if fit < uint64(r) {
		n = int64(fit)
	}
	if n <= 0 {
		return true
	}
	m.cycles += uint64(n) * k.perCycles
	m.instrs += uint64(n) * k.perInstrs
	if k.peak > m.maxStack {
		m.maxStack = k.peak
	}
	if k.locals > m.maxLocals {
		m.maxLocals = k.locals
	}
	return k.run(m, m.locals[k.iIdx], n)
}

// Program is a compiled Amulet program; it implements amulet.Compiled.
type Program struct {
	name      string
	dataWords int
	blocks    []*block
}

// Name returns the source program's name.
func (p *Program) Name() string { return p.name }

// Blocks returns the number of compiled basic blocks (inlined call
// contexts compile one copy per call site).
func (p *Program) Blocks() int { return len(p.blocks) }

// Loop is one fused counted loop: the kernel template that runs it and
// the bytecode its header and body span. Calls inline per call site, so
// a loop in a subroutine appears once per inlined copy.
type Loop struct {
	Template string
	PC, End  int // bytecode range [PC, End)
}

// String keys the loop by its bytecode range and template, e.g.
// "0158-0171:reduce".
func (l Loop) String() string { return fmt.Sprintf("%04x-%04x:%s", l.PC, l.End, l.Template) }

// Loops lists every fused counted loop in block order.
func (p *Program) Loops() []Loop {
	var out []Loop
	for _, b := range p.blocks {
		if k := b.kern; k != nil {
			out = append(out, Loop{Template: k.name, PC: k.pc, End: k.end})
		}
	}
	return out
}

// Kernels lists the loop-kernel template of every fused counted loop, in
// block order: "fill", "minmax", "mapstore", "histogram", "reduce", or
// "generic" for a body no idiom matched (its fused closures replay).
func (p *Program) Kernels() []string {
	var out []string
	for _, l := range p.Loops() {
		out = append(out, l.Template)
	}
	return out
}

// Run executes the compiled program against data with the cycle budget,
// with semantics identical to running the source program on a fresh VM:
// same data-segment writes, same Usage, and faults wrapping the same
// sentinels. traceParent links the run's span into an existing trace.
func (p *Program) Run(data []int32, maxCycles uint64, traceParent uint64) (amulet.Usage, error) {
	return p.run(data, maxCycles, traceParent, nil)
}

// LoopStat accumulates one fused loop's kernel dispatches under
// RunProfiled: how many there were and their summed wall time. Each
// dispatch is timed by two clock reads, so Time reads high by Dispatches
// times the cost of an empty timed region.
type LoopStat struct {
	Dispatches int64
	Time       time.Duration
}

// RunProfiled is Run that also adds every loop-kernel dispatch to
// stats[k], k indexing Loops().
func (p *Program) RunProfiled(data []int32, maxCycles uint64, stats []LoopStat) (amulet.Usage, error) {
	if n := len(p.Loops()); len(stats) != n {
		return amulet.Usage{}, fmt.Errorf("amulet/jit: %q has %d loops, profile has %d slots", p.name, n, len(stats))
	}
	return p.run(data, maxCycles, 0, stats)
}

func (p *Program) run(data []int32, maxCycles uint64, traceParent uint64, loops []LoopStat) (amulet.Usage, error) {
	var span obs.Span
	if traceParent != 0 {
		span = obsRun.StartChildOf(traceParent)
	} else {
		span = obsRun.Start()
	}
	if len(data) < p.dataWords {
		span.End()
		return amulet.Usage{}, fmt.Errorf("amulet: program %q needs %d data words, got %d", p.name, p.dataWords, len(data))
	}
	m := &machine{data: data, loops: loops}
	defer func() {
		obsInstrs.Add(int64(m.instrs))
		obsCycles.Add(int64(m.cycles))
		span.End()
	}()

	b := 0
	for b >= 0 {
		blk := p.blocks[b]
		// Entering a depth-k block means the interpreter would already
		// have executed (and billed) the Call that got here, so the call
		// telemetry is owed even if this block crosses the budget below.
		if blk.depth > m.maxCall {
			m.maxCall = blk.depth
		}
		if k := blk.kern; k != nil {
			var ok bool
			if m.loops == nil {
				ok = k.fastForward(m, maxCycles)
			} else {
				// The wall clock feeds only the per-loop time report,
				// never the run's usage or fault.
				t0 := time.Now() //wiotlint:allow detrand
				ok = k.fastForward(m, maxCycles)
				st := &m.loops[k.ord]
				st.Time += time.Since(t0) //wiotlint:allow detrand
				st.Dispatches++
			}
			if !ok {
				return m.usage(), m.fault
			}
			// The header still runs below: its last (failing) compare —
			// or its budget fault — is real interpreter work.
		}
		if m.cycles+blk.cycles > maxCycles {
			// The budget line falls inside this block: replay it
			// per-instruction so the fault (and its ordering against any
			// data fault) lands exactly where the interpreter's would.
			err := blk.runSlow(m, maxCycles)
			return m.usage(), err
		}
		m.cycles += blk.cycles
		m.instrs += blk.instrs
		if blk.peak > m.maxStack {
			m.maxStack = blk.peak
		}
		if blk.locals > m.maxLocals {
			m.maxLocals = blk.locals
		}
		for _, f := range blk.ops {
			if !f(m) {
				return m.usage(), m.fault
			}
		}
		if blk.term != nil {
			b = blk.term(m)
		} else {
			b = blk.next
		}
	}
	return m.usage(), nil
}

// slowInstr is one original instruction of a block, decoded for the
// per-instruction slow path.
type slowInstr struct {
	op   amulet.Op
	cost uint64
	imm  int32 // Push immediate
	idx  int   // local index
}

// runSlow replays the block's instructions with the interpreter's exact
// per-instruction discipline: bill cycles and the instruction count, check
// the budget, then execute. It is entered only when the block's total cost
// crosses the budget, so some instruction in the block must fault with
// ErrOutOfCycles — unless a data fault (the only other fault a verified
// program can raise) strikes first, exactly as it would under the
// interpreter. Control instructions can only appear last in a block, and
// the budget line is at or before them, so none ever executes here.
func (blk *block) runSlow(m *machine, maxCycles uint64) error {
	sp := blk.entrySP
	for _, in := range blk.slow {
		m.cycles += in.cost
		m.instrs++
		if m.cycles > maxCycles {
			return fmt.Errorf("%w: %d cycles", amulet.ErrOutOfCycles, m.cycles)
		}

		switch in.op {
		case amulet.OpPush:
			m.stack[sp] = in.imm
			sp = m.pushed(sp)
		case amulet.OpLoadL:
			m.touchLocal(in.idx)
			m.stack[sp] = m.locals[in.idx]
			sp = m.pushed(sp)
		case amulet.OpStoreL:
			m.touchLocal(in.idx)
			sp--
			m.locals[in.idx] = m.stack[sp]
		case amulet.OpLoadM:
			addr := m.stack[sp-1]
			if addr < 0 || int(addr) >= len(m.data) {
				return fmt.Errorf("%w: load %d (segment %d words)", amulet.ErrBadAddress, addr, len(m.data))
			}
			m.stack[sp-1] = m.data[addr]
		case amulet.OpStoreM:
			v, addr := m.stack[sp-1], m.stack[sp-2]
			sp -= 2
			if addr < 0 || int(addr) >= len(m.data) {
				return fmt.Errorf("%w: store %d (segment %d words)", amulet.ErrBadAddress, addr, len(m.data))
			}
			m.data[addr] = v
		case amulet.OpDup:
			m.stack[sp] = m.stack[sp-1]
			sp = m.pushed(sp)
		case amulet.OpDrop:
			sp--
		case amulet.OpSwap:
			m.stack[sp-1], m.stack[sp-2] = m.stack[sp-2], m.stack[sp-1]
		case amulet.OpOver:
			m.stack[sp] = m.stack[sp-2]
			sp = m.pushed(sp)
		default:
			if fn := amulet.BinaryEval(in.op); fn != nil {
				m.stack[sp-2] = fn(m.stack[sp-2], m.stack[sp-1])
				sp--
			} else if fn := amulet.UnaryEval(in.op); fn != nil {
				m.stack[sp-1] = fn(m.stack[sp-1])
			} else {
				// A control instruction past the budget line: the billing
				// check above must have fired already.
				return fmt.Errorf("%w: slow path reached control op %v", errInternal, in.op)
			}
		}
	}
	return fmt.Errorf("%w: slow path ran past block end", errInternal)
}

// pushed advances the slow-path stack pointer, tracking peak depth the way
// the VM's push does.
func (m *machine) pushed(sp int) int {
	sp++
	if sp > m.maxStack {
		m.maxStack = sp
	}
	return sp
}

func (m *machine) touchLocal(idx int) {
	if idx+1 > m.maxLocals {
		m.maxLocals = idx + 1
	}
}
