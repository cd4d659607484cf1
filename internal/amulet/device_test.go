package amulet

import (
	"strings"
	"testing"
)

func buildTiny(t *testing.T, name string) *Program {
	t.Helper()
	b := NewBuilder()
	b.PushI(1).PushI(2).Op(OpAdd).Op(OpDrop).Op(OpHalt)
	p, err := b.Assemble(name, 0)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestDeviceInstallAndRun(t *testing.T) {
	d := NewDevice()
	p := buildTiny(t, "app")
	if err := d.Install(p); err != nil {
		t.Fatal(err)
	}
	res, err := d.Run("app", nil, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Usage.Cycles == 0 {
		t.Error("run should consume cycles")
	}
	if res.Seconds <= 0 {
		t.Error("run should take MCU time")
	}
	if got := d.Programs(); len(got) != 1 || got[0].Name != "app" {
		t.Errorf("Programs = %v", got)
	}
	if _, ok := d.Lookup("app"); !ok {
		t.Error("Lookup should find installed program")
	}
}

func TestDeviceInstallErrors(t *testing.T) {
	d := NewDevice()
	if err := d.Install(nil); err == nil {
		t.Error("nil install should error")
	}
	if err := d.Install(&Program{}); err == nil {
		t.Error("unnamed install should error")
	}
	huge := &Program{Name: "huge", Code: make([]byte, FRAMBytes)}
	if err := d.Install(huge); err == nil {
		t.Error("oversized install should error")
	}
}

func TestDeviceReflash(t *testing.T) {
	d := NewDevice()
	if err := d.Install(buildTiny(t, "app")); err != nil {
		t.Fatal(err)
	}
	p2 := buildTiny(t, "app")
	if err := d.Install(p2); err != nil {
		t.Fatalf("re-flash should succeed: %v", err)
	}
	if len(d.Programs()) != 1 {
		t.Errorf("re-flash duplicated program list: %v", d.Programs())
	}
}

func TestDeviceRunUnknown(t *testing.T) {
	d := NewDevice()
	if _, err := d.Run("ghost", nil, 100); err == nil {
		t.Error("running unknown program should error")
	}
}

func TestDeviceSRAMBudget(t *testing.T) {
	// A program whose stack footprint exceeds what's left beside the
	// system's share must be rejected at run time.
	d := NewDevice()
	d.systemSRAM = SRAMBytes - 40
	b := NewBuilder()
	for i := 0; i < 32; i++ {
		b.PushI(1)
	}
	b.Op(OpHalt)
	p, err := b.Assemble("fat", 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Install(p); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Run("fat", nil, 10_000); err == nil {
		t.Error("SRAM overflow should be reported")
	}
}

func TestBuilderErrors(t *testing.T) {
	b := NewBuilder()
	b.Op(OpPush) // push requires an operand → builder error
	if _, err := b.Assemble("bad", 0); err == nil {
		t.Error("emitting push via Op should error")
	}

	b = NewBuilder()
	b.LoadL(MaxLocals)
	if _, err := b.Assemble("bad", 0); err == nil {
		t.Error("out-of-range local should error")
	}

	b = NewBuilder()
	b.Jmp("nowhere").Op(OpHalt)
	if _, err := b.Assemble("bad", 0); err == nil {
		t.Error("undefined label should error")
	}

	b = NewBuilder()
	b.Label("x").Label("x")
	if _, err := b.Assemble("bad", 0); err == nil {
		t.Error("duplicate label should error")
	}

	b = NewBuilder()
	b.Op(OpHalt)
	if _, err := b.Assemble("bad", -1); err == nil {
		t.Error("negative data segment should error")
	}
}

func TestProgramLibraryFlags(t *testing.T) {
	b := NewBuilder()
	b.PushF(1).PushF(2).Op(OpFAdd).Op(OpFSqrt).Op(OpDrop).Op(OpHalt)
	p, err := b.Assemble("float", 0)
	if err != nil {
		t.Fatal(err)
	}
	if !p.UsesSoftFloat || !p.UsesLibm {
		t.Errorf("float program flags = soft=%v libm=%v", p.UsesSoftFloat, p.UsesLibm)
	}
	if p.UsesFixMath {
		t.Error("float program should not flag fixmath")
	}

	b = NewBuilder()
	b.PushQ(1).PushQ(2).Op(OpMulQ).Op(OpDrop).Op(OpHalt)
	p, err = b.Assemble("fix", 0)
	if err != nil {
		t.Fatal(err)
	}
	if !p.UsesFixMath || p.UsesSoftFloat || p.UsesLibm {
		t.Errorf("fix program flags = fix=%v soft=%v libm=%v", p.UsesFixMath, p.UsesSoftFloat, p.UsesLibm)
	}
}

func TestDisassembleRoundTripStructure(t *testing.T) {
	b := NewBuilder()
	b.PushI(7).StoreL(3)
	b.Label("loop").LoadL(3).PushI(0).Op(OpGt)
	b.Jz("done")
	b.LoadL(3).PushI(1).Op(OpSub).StoreL(3)
	b.Jmp("loop")
	b.Label("done").Op(OpHalt)
	p, err := b.Assemble("count", 0)
	if err != nil {
		t.Fatal(err)
	}
	lines := p.Disassemble()
	if len(lines) == 0 {
		t.Fatal("disassembly empty")
	}
	text := strings.Join(lines, "\n")
	for _, want := range []string{"push", "storel", "loadl", "jz", "jmp", "halt"} {
		if !strings.Contains(text, want) {
			t.Errorf("disassembly missing %q:\n%s", want, text)
		}
	}
	// The program must still run correctly.
	vm, err := NewVM(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := vm.Run(10_000); err != nil {
		t.Fatal(err)
	}
}

func TestNewVMValidation(t *testing.T) {
	if _, err := NewVM(nil, nil); err == nil {
		t.Error("nil program should error")
	}
	p := &Program{Name: "d", Code: []byte{byte(OpHalt)}, DataWords: 10}
	if _, err := NewVM(p, make([]int32, 5)); err == nil {
		t.Error("short data segment should error")
	}
}

func TestOpcodeTableComplete(t *testing.T) {
	for op := Op(0); op < opCount; op++ {
		if !op.Valid() {
			t.Errorf("opcode %d has no table entry", op)
			continue
		}
		if op.String() == "" {
			t.Errorf("opcode %d has no name", op)
		}
		if op != OpHalt && op.Cycles() == 0 {
			t.Errorf("opcode %v has zero cycle cost", op)
		}
	}
	if Op(200).Valid() {
		t.Error("opcode 200 should be invalid")
	}
}

func TestFloatOpsCostMoreThanFixed(t *testing.T) {
	// The core premise of the Simplified version: soft-float is far more
	// expensive than fixed point on this MCU.
	pairs := [][2]Op{{OpFAdd, OpAdd}, {OpFMul, OpMulQ}, {OpFDiv, OpDivQ}, {OpFSqrt, OpSqrtQ}, {OpFAtan2, OpAtan2Q}}
	for _, pr := range pairs {
		if pr[0].Cycles() <= pr[1].Cycles() {
			t.Errorf("%v (%d cycles) should cost more than %v (%d cycles)",
				pr[0], pr[0].Cycles(), pr[1], pr[1].Cycles())
		}
	}
}
