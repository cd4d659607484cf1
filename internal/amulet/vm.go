package amulet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"github.com/wiot-security/sift/internal/fixedpoint"
	"github.com/wiot-security/sift/internal/obs"
)

// Observability handles for the dispatch loop. Run-level granularity
// keeps the per-opcode path untouched: one span and two counter adds per
// program run, nothing per instruction.
var (
	obsRun    = obs.NewTimer("amulet.vm.run")
	obsInstrs = obs.NewCounter("amulet.vm.instrs")
	obsCycles = obs.NewCounter("amulet.vm.cycles")
)

// VM resource limits, sized for the MSP430FR5989's 2 KB SRAM: the operand
// stack, locals, and call stack must all fit beside the system's own
// ~700 B of SRAM usage.
const (
	// MaxLocals is the number of 32-bit local variable slots.
	MaxLocals = 48
	// MaxStack is the operand stack depth in 32-bit slots.
	MaxStack = 64
	// MaxCallDepth bounds the call stack.
	MaxCallDepth = 16
)

// Execution errors.
var (
	ErrStackOverflow  = errors.New("amulet: operand stack overflow")
	ErrStackUnderflow = errors.New("amulet: operand stack underflow")
	ErrOutOfCycles    = errors.New("amulet: cycle budget exhausted")
	ErrBadAddress     = errors.New("amulet: data address out of range")
	ErrBadOpcode      = errors.New("amulet: invalid opcode")
	ErrCallDepth      = errors.New("amulet: call stack overflow")
	ErrBadPC          = errors.New("amulet: pc outside code")
)

// Usage captures the resource telemetry of one program run — the numbers
// the Amulet Resource Profiler collects per app.
type Usage struct {
	Cycles    uint64 // executed cycles
	Instrs    uint64 // executed instructions
	MaxStack  int    // peak operand stack depth (slots)
	MaxLocals int    // highest local index touched + 1
	MaxCall   int    // peak call depth
}

// SRAMBytes returns the peak SRAM footprint implied by the run: operand
// stack and locals are 32-bit slots; return addresses are 16-bit.
func (u Usage) SRAMBytes() int {
	return 4*(u.MaxStack+u.MaxLocals) + 2*u.MaxCall + vmRegisterBytes
}

// vmRegisterBytes models the interpreter's own register file (pc, sp,
// status), a fixed SRAM cost every app pays.
const vmRegisterBytes = 11

// VM executes a Program against a data segment. The zero value is not
// usable; construct with NewVM.
type VM struct {
	prog   *Program
	data   []int32
	stack  [MaxStack]int32
	locals [MaxLocals]int32
	calls  [MaxCallDepth]int

	sp, cp, pc int
	usage      Usage
}

// NewVM prepares a VM for one run of prog with the given data segment.
// The data slice is used in place (programs write scratch and results back
// into it).
func NewVM(prog *Program, data []int32) (*VM, error) {
	if prog == nil {
		return nil, errors.New("amulet: nil program")
	}
	if len(data) < prog.DataWords {
		return nil, fmt.Errorf("amulet: program %q needs %d data words, got %d", prog.Name, prog.DataWords, len(data))
	}
	return &VM{prog: prog, data: data}, nil
}

// Usage returns the resource telemetry accumulated so far.
func (vm *VM) Usage() Usage { return vm.usage }

func (vm *VM) push(v int32) error {
	if vm.sp >= MaxStack {
		return ErrStackOverflow
	}
	vm.stack[vm.sp] = v
	vm.sp++
	if vm.sp > vm.usage.MaxStack {
		vm.usage.MaxStack = vm.sp
	}
	return nil
}

func (vm *VM) pop() (int32, error) {
	if vm.sp == 0 {
		return 0, ErrStackUnderflow
	}
	vm.sp--
	return vm.stack[vm.sp], nil
}

func (vm *VM) pop2() (a, b int32, err error) {
	b, err = vm.pop()
	if err != nil {
		return 0, 0, err
	}
	a, err = vm.pop()
	return a, b, err
}

func f32bits(f float32) uint32     { return math.Float32bits(f) }
func f32frombits(u uint32) float32 { return math.Float32frombits(u) }

// Run executes the program from offset 0 until OpHalt (or a final OpRet at
// call depth 0), enforcing the cycle budget. The budget models the
// watchdog a run-to-completion OS needs: a detector that cannot finish
// within its window must be treated as failed, not hung.
func (vm *VM) Run(maxCycles uint64) error {
	return vm.RunTraced(maxCycles, 0)
}

// RunTraced is Run with an explicit trace parent: when a flight
// recorder is attached, the VM's span links under traceParent so fleet
// traces nest scenario → window → vm even across goroutines. A zero
// parent behaves exactly like Run.
func (vm *VM) RunTraced(maxCycles uint64, traceParent uint64) error {
	var span obs.Span
	if traceParent != 0 {
		span = obsRun.StartChildOf(traceParent)
	} else {
		span = obsRun.Start()
	}
	startInstrs, startCycles := vm.usage.Instrs, vm.usage.Cycles
	defer func() {
		obsInstrs.Add(int64(vm.usage.Instrs - startInstrs))
		obsCycles.Add(int64(vm.usage.Cycles - startCycles))
		span.End()
	}()
	code := vm.prog.Code
	for {
		if vm.pc < 0 || vm.pc >= len(code) {
			return fmt.Errorf("%w: pc %d of %d bytes", ErrBadPC, vm.pc, len(code))
		}
		op := Op(code[vm.pc])
		if !op.Valid() {
			return fmt.Errorf("%w: %d at pc %d", ErrBadOpcode, code[vm.pc], vm.pc)
		}
		vm.usage.Cycles += op.Cycles()
		vm.usage.Instrs++
		if vm.usage.Cycles > maxCycles {
			return fmt.Errorf("%w: %d cycles", ErrOutOfCycles, vm.usage.Cycles)
		}
		next := vm.pc + 1 + op.OperandBytes()

		//wiotlint:exhaustive
		switch op {
		case OpHalt:
			return nil

		case OpPush:
			v := int32(binary.LittleEndian.Uint32(code[vm.pc+1:]))
			if err := vm.push(v); err != nil {
				return err
			}

		case OpLoadL:
			idx := int(code[vm.pc+1])
			vm.touchLocal(idx)
			if err := vm.push(vm.locals[idx]); err != nil {
				return err
			}

		case OpStoreL:
			idx := int(code[vm.pc+1])
			vm.touchLocal(idx)
			v, err := vm.pop()
			if err != nil {
				return err
			}
			vm.locals[idx] = v

		case OpLoadM:
			addr, err := vm.pop()
			if err != nil {
				return err
			}
			if addr < 0 || int(addr) >= len(vm.data) {
				return fmt.Errorf("%w: load %d (segment %d words)", ErrBadAddress, addr, len(vm.data))
			}
			if err := vm.push(vm.data[addr]); err != nil {
				return err
			}

		case OpStoreM:
			v, err := vm.pop()
			if err != nil {
				return err
			}
			addr, err := vm.pop()
			if err != nil {
				return err
			}
			if addr < 0 || int(addr) >= len(vm.data) {
				return fmt.Errorf("%w: store %d (segment %d words)", ErrBadAddress, addr, len(vm.data))
			}
			vm.data[addr] = v

		case OpDup:
			if vm.sp == 0 {
				return ErrStackUnderflow
			}
			if err := vm.push(vm.stack[vm.sp-1]); err != nil {
				return err
			}

		case OpDrop:
			if _, err := vm.pop(); err != nil {
				return err
			}

		case OpSwap:
			if vm.sp < 2 {
				return ErrStackUnderflow
			}
			vm.stack[vm.sp-1], vm.stack[vm.sp-2] = vm.stack[vm.sp-2], vm.stack[vm.sp-1]

		case OpOver:
			if vm.sp < 2 {
				return ErrStackUnderflow
			}
			if err := vm.push(vm.stack[vm.sp-2]); err != nil {
				return err
			}

		case OpAdd, OpSub, OpMin, OpMax, OpMulI, OpDivI, OpMulQ, OpDivQ, OpAtan2Q:
			a, bb, err := vm.pop2()
			if err != nil {
				return err
			}
			var r fixedpoint.Q
			qa, qb := fixedpoint.FromRaw(a), fixedpoint.FromRaw(bb)
			switch op {
			case OpAdd:
				r = fixedpoint.Add(qa, qb)
			case OpSub:
				r = fixedpoint.Sub(qa, qb)
			case OpMin:
				r = fixedpoint.MinQ(qa, qb)
			case OpMax:
				r = fixedpoint.MaxQ(qa, qb)
			case OpMulI:
				r = fixedpoint.Q(satMulI(a, bb))
			case OpDivI:
				r = fixedpoint.Q(satDivI(a, bb))
			case OpMulQ:
				r = fixedpoint.Mul(qa, qb)
			case OpDivQ:
				r = fixedpoint.Div(qa, qb)
			case OpAtan2Q:
				r = fixedpoint.Atan2(qa, qb) // stack: [... y x]
			}
			if err := vm.push(r.Raw()); err != nil {
				return err
			}

		case OpNeg:
			v, err := vm.pop()
			if err != nil {
				return err
			}
			if err := vm.push(fixedpoint.Neg(fixedpoint.FromRaw(v)).Raw()); err != nil {
				return err
			}

		case OpAbs:
			v, err := vm.pop()
			if err != nil {
				return err
			}
			if err := vm.push(fixedpoint.Abs(fixedpoint.FromRaw(v)).Raw()); err != nil {
				return err
			}

		case OpSqrtQ:
			v, err := vm.pop()
			if err != nil {
				return err
			}
			if err := vm.push(fixedpoint.Sqrt(fixedpoint.FromRaw(v)).Raw()); err != nil {
				return err
			}

		case OpFAdd, OpFSub, OpFMul, OpFDiv, OpFAtan2, OpFMin, OpFMax:
			a, bb, err := vm.pop2()
			if err != nil {
				return err
			}
			fa, fb := f32frombits(uint32(a)), f32frombits(uint32(bb))
			var r float32
			switch op {
			case OpFAdd:
				r = fa + fb
			case OpFSub:
				r = fa - fb
			case OpFMul:
				r = fa * fb
			case OpFDiv:
				r = fdiv(fa, fb)
			case OpFAtan2:
				r = float32(math.Atan2(float64(fa), float64(fb))) // stack: [... y x]
			case OpFMin:
				r = float32(math.Min(float64(fa), float64(fb)))
			case OpFMax:
				r = float32(math.Max(float64(fa), float64(fb)))
			}
			if err := vm.push(int32(f32bits(r))); err != nil {
				return err
			}

		case OpFSqrt:
			v, err := vm.pop()
			if err != nil {
				return err
			}
			f := f32frombits(uint32(v))
			if f < 0 {
				f = 0 // MCU soft-float convention, matches SqrtQ
			}
			r := float32(math.Sqrt(float64(f)))
			if err := vm.push(int32(f32bits(r))); err != nil {
				return err
			}

		case OpItoQ, OpQtoI, OpItoF, OpFtoI, OpQtoF, OpFtoQ:
			v, err := vm.pop()
			if err != nil {
				return err
			}
			var r int32
			switch op {
			case OpItoQ:
				r = fixedpoint.FromInt(int(v)).Raw()
			case OpQtoI:
				r = int32(fixedpoint.FromRaw(v).Int())
			case OpItoF:
				r = int32(f32bits(float32(v)))
			case OpFtoI:
				r = int32(f32frombits(uint32(v))) // truncates toward zero
			case OpQtoF:
				r = int32(f32bits(float32(fixedpoint.FromRaw(v).Float())))
			case OpFtoQ:
				r = fixedpoint.FromFloat(float64(f32frombits(uint32(v)))).Raw()
			}
			if err := vm.push(r); err != nil {
				return err
			}

		case OpEq, OpNe, OpLt, OpLe, OpGt, OpGe:
			a, bb, err := vm.pop2()
			if err != nil {
				return err
			}
			var cond bool
			switch op {
			case OpEq:
				cond = a == bb
			case OpNe:
				cond = a != bb
			case OpLt:
				cond = a < bb
			case OpLe:
				cond = a <= bb
			case OpGt:
				cond = a > bb
			case OpGe:
				cond = a >= bb
			}
			var r int32
			if cond {
				r = 1
			}
			if err := vm.push(r); err != nil {
				return err
			}

		case OpJmp:
			next = int(binary.LittleEndian.Uint16(code[vm.pc+1:]))

		case OpJz, OpJnz:
			v, err := vm.pop()
			if err != nil {
				return err
			}
			taken := (v == 0) == (op == OpJz)
			if taken {
				next = int(binary.LittleEndian.Uint16(code[vm.pc+1:]))
			}

		case OpCall:
			if vm.cp >= MaxCallDepth {
				return ErrCallDepth
			}
			vm.calls[vm.cp] = next
			vm.cp++
			if vm.cp > vm.usage.MaxCall {
				vm.usage.MaxCall = vm.cp
			}
			next = int(binary.LittleEndian.Uint16(code[vm.pc+1:]))

		case OpRet:
			if vm.cp == 0 {
				return nil // return from entry point ends the run
			}
			vm.cp--
			next = vm.calls[vm.cp]
		}

		vm.pc = next
	}
}

func (vm *VM) touchLocal(idx int) {
	if idx+1 > vm.usage.MaxLocals {
		vm.usage.MaxLocals = idx + 1
	}
}

// satMulI is a saturating 32-bit integer multiply.
func satMulI(a, b int32) int32 {
	p := int64(a) * int64(b)
	if p > math.MaxInt32 {
		return math.MaxInt32
	}
	if p < math.MinInt32 {
		return math.MinInt32
	}
	return int32(p)
}

// satDivI is integer division with the same divide-by-zero convention as
// the Q group (saturate by dividend sign).
func satDivI(a, b int32) int32 {
	if b == 0 {
		if a < 0 {
			return math.MinInt32
		}
		return math.MaxInt32
	}
	if a == math.MinInt32 && b == -1 {
		return math.MaxInt32
	}
	return a / b
}

// fdiv is float32 division with the soft-float convention of saturating
// instead of producing infinities on divide-by-zero.
func fdiv(a, b float32) float32 {
	if b == 0 {
		if a < 0 {
			return -math.MaxFloat32
		}
		return math.MaxFloat32
	}
	return a / b
}
