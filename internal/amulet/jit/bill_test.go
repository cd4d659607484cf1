package jit_test

import (
	"slices"
	"testing"

	"github.com/wiot-security/sift/internal/amulet"
	"github.com/wiot-security/sift/internal/amulet/program"
	"github.com/wiot-security/sift/internal/dataset"
	"github.com/wiot-security/sift/internal/features"
	"github.com/wiot-security/sift/internal/physio"
	"github.com/wiot-security/sift/internal/svm"
	"github.com/wiot-security/sift/internal/wiot"
)

// keepWindows is a station detector that keeps a copy of every window it
// is handed (the station lends its arrays only for the call) and flags
// none.
type keepWindows struct{ wins []dataset.Window }

func (k *keepWindows) Classify(w dataset.Window) (bool, error) {
	w.ECG, w.ABP = slices.Clone(w.ECG), slices.Clone(w.ABP)
	w.RPeaks, w.SysPeaks, w.Pairs = slices.Clone(w.RPeaks), slices.Clone(w.SysPeaks), slices.Clone(w.Pairs)
	w.ECGRange, w.ABPRange = dataset.Range{}, dataset.Range{}
	k.wins = append(k.wins, w)
	return false, nil
}

// stationWindow is the second window a base station cuts from a seeded
// 12 s recording over a reliable channel, peaks found at run time.
func stationWindow(t *testing.T) dataset.Window {
	t.Helper()
	rec, err := physio.Generate(physio.DefaultSubject(), 12, physio.DefaultSampleRate, 7)
	if err != nil {
		t.Fatal(err)
	}
	keep := &keepWindows{}
	if _, err := wiot.RunScenario(wiot.Scenario{Record: rec, Detector: keep}); err != nil {
		t.Fatal(err)
	}
	if len(keep.wins) < 2 {
		t.Fatalf("station cut %d windows, want at least 2", len(keep.wins))
	}
	return keep.wins[1]
}

// deviceBill is what one detector version costs and answers on one
// window: the emulated cycle and instruction bill, the stack and locals
// high-water marks (the SRAM Table III reports), and the output words
// (margin, label, then one word per feature). Keyed by version name, so
// a golden ledger can take the rows as they are.
type deviceBill struct {
	cycles, instrs      uint64
	maxStack, maxLocals int
	out                 []int32
}

// TestDeviceBillPinned pins each detector version's bill and verdict on
// one station-cut window under both backends. The differential tests
// only hold the JIT to the interpreter; this table catches a change that
// moves both, such as a kernel or bytecode change that alters the bill.
// A change that means to move it updates the row and says why.
func TestDeviceBillPinned(t *testing.T) {
	want := map[features.Version]deviceBill{
		features.Original: {2177413, 286015, 3, 21, []int32{2674922, 1,
			1097534538, 1048945549, 1101696860, 1067653408, 1044936036, 1065543118, 1065471832, 1065670510}},
		features.Simplified: {1378935, 283865, 3, 21, []int32{2799415, 1,
			962500, 4481, 1397880, 214992, 13003, 68550, 67398, 70611}},
		features.Reduced: {201403, 48578, 3, 15, []int32{434554, 1,
			214992, 13003, 68550, 67398, 70611}},
	}
	w := stationWindow(t)
	for _, v := range features.Versions {
		data, err := program.Input(v, w, svm.UnitModel(v.Dim()))
		if err != nil {
			t.Fatal(err)
		}
		p, err := program.Build(v)
		if err != nil {
			t.Fatal(err)
		}
		for _, backend := range []struct {
			name string
			opts []amulet.Option
		}{{"jit", nil}, {"interpreter", []amulet.Option{amulet.WithInterpreter()}}} {
			dev := amulet.NewDevice(backend.opts...)
			if err := dev.Install(p); err != nil {
				t.Fatal(err)
			}
			if got := dev.HasCompiled(p.Name); got != (backend.name == "jit") {
				t.Fatalf("%v on the %s: compiled backend installed = %v", v, backend.name, got)
			}
			seg := slices.Clone(data)
			res, err := dev.Run(p.Name, seg, program.MaxCycles)
			if err != nil {
				t.Fatalf("%v on the %s: %v", v, backend.name, err)
			}
			u := res.Usage
			got := deviceBill{
				cycles: u.Cycles, instrs: u.Instrs, maxStack: u.MaxStack, maxLocals: u.MaxLocals,
				out: append([]int32{seg[program.HdrOut], seg[program.HdrLabel]}, seg[program.HdrFeat0:program.HdrFeat0+v.Dim()]...),
			}
			if wb := want[v]; got.cycles != wb.cycles || got.instrs != wb.instrs || got.maxStack != wb.maxStack ||
				got.maxLocals != wb.maxLocals || !slices.Equal(got.out, wb.out) {
				t.Errorf("%v on the %s: bill\n got {%d, %d, %d, %d, %#v}\nwant {%d, %d, %d, %d, %#v}", v, backend.name,
					got.cycles, got.instrs, got.maxStack, got.maxLocals, got.out,
					wb.cycles, wb.instrs, wb.maxStack, wb.maxLocals, wb.out)
			}
		}
	}
}
