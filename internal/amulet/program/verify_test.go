package program

import (
	"errors"
	"testing"

	"github.com/wiot-security/sift/internal/amulet"
	"github.com/wiot-security/sift/internal/features"
	"github.com/wiot-security/sift/internal/svm"
	"github.com/wiot-security/sift/internal/vmlint"
)

// TestAssembleRejectsUnverifiableBytecode checks the wiring this package's
// init installs: once the program package is linked in, amulet.Assemble
// refuses firmware that fails static verification, and the findings arrive
// through the same *DiagError the assembler itself uses.
func TestAssembleRejectsUnverifiableBytecode(t *testing.T) {
	b := amulet.NewBuilder()
	b.Op(amulet.OpAdd).Op(amulet.OpHalt) // add on an empty stack
	_, err := b.Assemble("underflow", 0)
	if err == nil {
		t.Fatal("Assemble accepted a program that underflows the operand stack")
	}
	var de *amulet.DiagError
	if !errors.As(err, &de) {
		t.Fatalf("error type %T, want *amulet.DiagError: %v", err, err)
	}
	found := false
	for _, d := range de.Diags {
		if d.Class == "stack-underflow" {
			found = true
		}
	}
	if !found {
		t.Fatalf("no stack-underflow diagnostic in %v", err)
	}
}

// TestNoVerifyOptsOutOfVerifier covers the escape hatch the interpreter
// fuzzers rely on: NoVerify builders may assemble arbitrary (even broken)
// bytecode so the VM's own error paths stay testable.
func TestNoVerifyOptsOutOfVerifier(t *testing.T) {
	b := amulet.NewBuilder().NoVerify()
	b.Op(amulet.OpAdd).Op(amulet.OpHalt)
	if _, err := b.Assemble("underflow", 0); err != nil {
		t.Fatalf("NoVerify assembly failed: %v", err)
	}
}

// TestDetectorsVerifyWithSoundBounds proves the three shipped detectors
// pass static verification with zero findings, and that the statically
// proven resource envelope dominates what a real run measures — the
// soundness contract behind quoting vmlint bounds against the 2 KB SRAM
// budget instead of measured peaks.
func TestDetectorsVerifyWithSoundBounds(t *testing.T) {
	w := testWindow(t, 23)
	for _, v := range features.Versions {
		v := v
		t.Run(v.String(), func(t *testing.T) {
			p, err := Build(v)
			if err != nil {
				t.Fatal(err)
			}
			rep := vmlint.Analyze(p)
			for _, f := range rep.Findings {
				t.Errorf("unexpected finding: %v", f)
			}

			model := svm.UnitModel(v.Dim())
			data, err := Input(v, w, model)
			if err != nil {
				t.Fatal(err)
			}
			vm, err := amulet.NewVM(p, data)
			if err != nil {
				t.Fatal(err)
			}
			if err := vm.Run(50_000_000); err != nil {
				t.Fatal(err)
			}
			u := vm.Usage()
			if u.MaxStack > rep.MaxStack {
				t.Errorf("measured stack peak %d exceeds static bound %d", u.MaxStack, rep.MaxStack)
			}
			if u.MaxLocals > rep.MaxLocals {
				t.Errorf("measured locals peak %d exceeds static bound %d", u.MaxLocals, rep.MaxLocals)
			}
			if u.MaxCall > rep.CallDepth {
				t.Errorf("measured call depth %d exceeds static bound %d", u.MaxCall, rep.CallDepth)
			}
			if got, static := u.SRAMBytes(), rep.SRAMBytes(); got > static {
				t.Errorf("measured SRAM %d B exceeds static bill %d B", got, static)
			}
			if rep.LoopFree {
				t.Error("detector loops over samples; LoopFree should be false")
			}
			if rep.StaticCycles == 0 {
				t.Error("StaticCycles = 0, want a positive per-pass bound")
			}
		})
	}
}
