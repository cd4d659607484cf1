// Package amulet emulates the Amulet wearable platform the paper deploys
// SIFT onto: a TI MSP430FR5989-class device with 2 KB of SRAM, 128 KB of
// FRAM, no floating-point unit, and a 16 MHz clock.
//
// The emulator's centerpiece is a small stack virtual machine. The three
// detector versions are assembled into VM bytecode (internal/amulet/
// program), so Table III's measurements — detector code size (FRAM), peak
// RAM (SRAM), and cycle counts feeding the battery-lifetime model — are
// *measured* properties of executable artifacts, not constants:
//
//   - the Original version uses the software-float opcode group (FAdd,
//     FSqrt, FAtan2, ...), each costing the hundreds of cycles a soft-float
//     library burns on an MCU without an FPU, and pulls the soft-float and
//     libm library footprints into its FRAM bill;
//   - the Simplified version uses the Q16.16 fixed-point group, whose
//     multiply/divide map onto the MSP430's hardware multiplier;
//   - the Reduced version additionally skips the entire matrix pipeline.
package amulet

import "fmt"

// Op is a VM opcode.
type Op byte

// Opcodes. The ISA is a 32-bit stack machine; values on the stack are raw
// int32 words that programs interpret as integers, Q16.16 fixed point, or
// IEEE float32 bit patterns depending on the opcode group they apply.
const (
	// OpHalt stops execution.
	OpHalt Op = iota
	// OpPush pushes a 32-bit immediate (4-byte operand).
	OpPush
	// OpLoadL pushes local[idx] (1-byte operand).
	OpLoadL
	// OpStoreL pops into local[idx] (1-byte operand).
	OpStoreL
	// OpLoadM pops a word address and pushes data[addr].
	OpLoadM
	// OpStoreM pops value then address, storing data[addr] = value.
	OpStoreM
	// OpDup duplicates the top of stack.
	OpDup
	// OpDrop discards the top of stack.
	OpDrop
	// OpSwap exchanges the top two slots.
	OpSwap
	// OpOver pushes a copy of the second slot.
	OpOver

	// OpAdd and friends are saturating int32 ops shared by the integer and
	// Q16.16 views of the stack.
	OpAdd
	OpSub
	OpNeg
	OpAbs
	OpMin
	OpMax

	// OpMulI and OpDivI are integer multiply/divide (divide-by-zero
	// saturates, mirroring the MCU software-division convention).
	OpMulI
	OpDivI

	// OpMulQ through OpAtan2Q are the Q16.16 fixed-point group.
	OpMulQ
	OpDivQ
	OpSqrtQ
	OpAtan2Q

	// OpFAdd through OpFAtan2 are the software-emulated float32 group.
	OpFAdd
	OpFSub
	OpFMul
	OpFDiv
	OpFSqrt
	OpFAtan2
	OpFMin
	OpFMax

	// Conversions between the three views.
	OpItoQ
	OpQtoI
	OpItoF
	OpFtoI
	OpQtoF
	OpFtoQ

	// Signed integer comparisons (valid for Q too); push 1 or 0.
	OpEq
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe

	// Control flow (2-byte code-offset operands).
	OpJmp
	OpJz
	OpJnz
	OpCall
	OpRet

	opCount // sentinel
)

// opInfo describes an opcode's encoding and cost.
type opInfo struct {
	name    string
	operand int // operand bytes following the opcode
	cycles  uint64
}

// opTable is the single source of truth for mnemonics, encoding, and the
// MSP430-flavoured cycle costs. Costs for the float group reflect software
// emulation (no FPU); the fixed-point multiply rides the hardware
// multiplier. Absolute values are calibration constants (see arp package);
// the ratios are what produce Table III's shape.
var opTable = [opCount]opInfo{
	OpHalt:   {"halt", 0, 1},
	OpPush:   {"push", 4, 3},
	OpLoadL:  {"loadl", 1, 3},
	OpStoreL: {"storel", 1, 3},
	// FRAM data accesses are expensive on the Amulet: the FRAM controller
	// inserts wait states above 8 MHz, and AmuletOS bounds-checks every
	// array access at run time (paper §II-B).
	OpLoadM:  {"loadm", 0, 30},
	OpStoreM: {"storem", 0, 30},
	OpDup:    {"dup", 0, 1},
	OpDrop:   {"drop", 0, 1},
	OpSwap:   {"swap", 0, 1},
	OpOver:   {"over", 0, 1},

	OpAdd: {"add", 0, 2},
	OpSub: {"sub", 0, 2},
	OpNeg: {"neg", 0, 1},
	OpAbs: {"abs", 0, 2},
	OpMin: {"min", 0, 3},
	OpMax: {"max", 0, 3},

	OpMulI: {"muli", 0, 9},
	OpDivI: {"divi", 0, 38},

	OpMulQ:   {"mulq", 0, 12},
	OpDivQ:   {"divq", 0, 52},
	OpSqrtQ:  {"sqrtq", 0, 110},
	OpAtan2Q: {"atan2q", 0, 170},

	OpFAdd:   {"fadd", 0, 74},
	OpFSub:   {"fsub", 0, 82},
	OpFMul:   {"fmul", 0, 98},
	OpFDiv:   {"fdiv", 0, 170},
	OpFSqrt:  {"fsqrt", 0, 390},
	OpFAtan2: {"fatan2", 0, 520},
	OpFMin:   {"fmin", 0, 80},
	OpFMax:   {"fmax", 0, 80},

	OpItoQ: {"itoq", 0, 2},
	OpQtoI: {"qtoi", 0, 2},
	OpItoF: {"itof", 0, 46},
	OpFtoI: {"ftoi", 0, 46},
	OpQtoF: {"qtof", 0, 52},
	OpFtoQ: {"ftoq", 0, 52},

	OpEq: {"eq", 0, 2},
	OpNe: {"ne", 0, 2},
	OpLt: {"lt", 0, 2},
	OpLe: {"le", 0, 2},
	OpGt: {"gt", 0, 2},
	OpGe: {"ge", 0, 2},

	OpJmp:  {"jmp", 2, 3},
	OpJz:   {"jz", 2, 3},
	OpJnz:  {"jnz", 2, 3},
	OpCall: {"call", 2, 6},
	OpRet:  {"ret", 0, 6},
}

// Valid reports whether op is a defined opcode.
func (op Op) Valid() bool { return op < opCount && opTable[op].name != "" }

// String returns the opcode mnemonic.
func (op Op) String() string {
	if !op.Valid() {
		return fmt.Sprintf("op(%d)", byte(op))
	}
	return opTable[op].name
}

// OperandBytes returns the encoded operand width of the opcode.
func (op Op) OperandBytes() int {
	if !op.Valid() {
		return 0
	}
	return opTable[op].operand
}

// Cycles returns the opcode's cycle cost.
func (op Op) Cycles() uint64 {
	if !op.Valid() {
		return 0
	}
	return opTable[op].cycles
}

// FootprintBytes models the flash footprint of one instruction as the
// MSP430 toolchain would emit it: simple stack ops inline to a couple of
// bytes, fixed-point multiply/divide compile to short helper sequences,
// and every software-float operation becomes a library call with argument
// marshalling (the reason the paper's Original detector is the largest).
func (op Op) FootprintBytes() int {
	switch {
	case op == OpPush:
		return 6 // move immediate + push
	case op.isFloatOp():
		return 8 // marshal + CALL #__softfloat_xx
	case op.isFixMathOp():
		return 4 // CALL #__fixmath_xx or hardware-multiplier sequence
	case op == OpJmp, op == OpJz, op == OpJnz, op == OpCall:
		return 4
	case op == OpLoadL, op == OpStoreL:
		return 3
	default:
		return 2
	}
}

// StackEffect returns the operand-stack pops and pushes of one execution
// of op. Dup and Over re-push slots they inspect, so their pop count is
// the depth the VM requires before executing them; the transient depth of
// any opcode never exceeds the post-execution depth, which makes these
// numbers sufficient for a sound static stack-depth analysis (vmlint).
//
//wiotlint:exhaustive
func (op Op) StackEffect() (pops, pushes int) {
	switch op {
	case OpHalt, OpJmp, OpRet, OpCall:
		return 0, 0
	case OpPush, OpLoadL:
		return 0, 1
	case OpStoreL, OpDrop, OpJz, OpJnz:
		return 1, 0
	case OpLoadM, OpNeg, OpAbs, OpSqrtQ, OpFSqrt,
		OpItoQ, OpQtoI, OpItoF, OpFtoI, OpQtoF, OpFtoQ:
		return 1, 1
	case OpStoreM:
		return 2, 0
	case OpDup:
		return 1, 2
	case OpSwap:
		return 2, 2
	case OpOver:
		return 2, 3
	case OpAdd, OpSub, OpMin, OpMax, OpMulI, OpDivI,
		OpMulQ, OpDivQ, OpAtan2Q,
		OpFAdd, OpFSub, OpFMul, OpFDiv, OpFAtan2, OpFMin, OpFMax,
		OpEq, OpNe, OpLt, OpLe, OpGt, OpGe:
		return 2, 1
	}
	return 0, 0
}

// isFloatOp reports whether op belongs to the software-float group (which
// drags the soft-float library into the FRAM footprint).
func (op Op) isFloatOp() bool {
	switch op {
	case OpFAdd, OpFSub, OpFMul, OpFDiv, OpFSqrt, OpFAtan2, OpFMin, OpFMax, OpItoF, OpFtoI, OpQtoF, OpFtoQ:
		return true
	}
	return false
}

// isLibmOp reports whether op needs the transcendental portion of the
// math library (sqrt/atan2), in either float or fixed-point form.
func (op Op) isLibmOp() bool {
	switch op {
	case OpFSqrt, OpFAtan2:
		return true
	}
	return false
}

// isFixMathOp reports whether op needs the fixed-point math routines
// beyond plain adds (multiply/divide/sqrt/atan2 helpers).
func (op Op) isFixMathOp() bool {
	switch op {
	case OpMulQ, OpDivQ, OpSqrtQ, OpAtan2Q, OpItoQ, OpQtoI:
		return true
	}
	return false
}
