package program

import (
	"strings"
	"testing"

	"github.com/wiot-security/sift/internal/amulet"
	"github.com/wiot-security/sift/internal/features"
	"github.com/wiot-security/sift/internal/svm"
)

// TestFirmwareDisassembleReassemble round-trips every real detector
// firmware through the text assembler: dump → parse → byte-identical.
func TestFirmwareDisassembleReassemble(t *testing.T) {
	for _, v := range features.Versions {
		v := v
		t.Run(v.String(), func(t *testing.T) {
			orig, err := Build(v)
			if err != nil {
				t.Fatal(err)
			}
			src := strings.Join(orig.Disassemble(), "\n")
			back, err := amulet.ParseAsm(orig.Name, src, orig.DataWords)
			if err != nil {
				t.Fatalf("reassemble: %v", err)
			}
			if len(back.Code) != len(orig.Code) {
				t.Fatalf("code length %d != %d", len(back.Code), len(orig.Code))
			}
			for i := range orig.Code {
				if back.Code[i] != orig.Code[i] {
					t.Fatalf("byte %d differs", i)
				}
			}
		})
	}
}

// TestFirmwareImageFlashAndClassify ships each detector as a firmware
// image, flashes it onto a fresh device, and verifies the flashed copy
// classifies identically to the directly-installed program.
func TestFirmwareImageFlashAndClassify(t *testing.T) {
	w := testWindow(t, 17)
	for _, v := range features.Versions {
		v := v
		t.Run(v.String(), func(t *testing.T) {
			direct, err := NewDeviceDetector(v, nil, svm.UnitModel(v.Dim()))
			if err != nil {
				t.Fatal(err)
			}
			want, err := direct.Classify(w)
			if err != nil {
				t.Fatal(err)
			}

			img, err := amulet.EncodeImage(direct.Program())
			if err != nil {
				t.Fatal(err)
			}
			dev := amulet.NewDevice()
			p, err := dev.Flash(img)
			if err != nil {
				t.Fatal(err)
			}
			data, err := Input(v, w, svm.UnitModel(v.Dim()))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := dev.Run(p.Name, data, MaxCycles); err != nil {
				t.Fatal(err)
			}
			got, err := ReadOutput(v, data)
			if err != nil {
				t.Fatal(err)
			}
			if got.Altered != want.Altered || got.Margin != want.Margin {
				t.Errorf("flashed firmware verdict (%v, %v) != direct (%v, %v)",
					got.Altered, got.Margin, want.Altered, want.Margin)
			}
		})
	}
}
