package jit_test

import (
	"errors"
	"reflect"
	"testing"

	"github.com/wiot-security/sift/internal/amulet"
	"github.com/wiot-security/sift/internal/amulet/jit"
	"github.com/wiot-security/sift/internal/amulet/program"
	"github.com/wiot-security/sift/internal/dataset"
	"github.com/wiot-security/sift/internal/features"
	"github.com/wiot-security/sift/internal/physio"
	"github.com/wiot-security/sift/internal/svm"
)

// testWindow synthesizes one clean classification window.
func testWindow(t testing.TB, seed int64) dataset.Window {
	t.Helper()
	rec, err := physio.Generate(physio.DefaultSubject(), 6, physio.DefaultSampleRate, seed)
	if err != nil {
		t.Fatal(err)
	}
	wins, err := dataset.FromRecord(rec, dataset.WindowSec)
	if err != nil {
		t.Fatal(err)
	}
	if len(wins) < 2 {
		t.Fatalf("record yielded %d windows, need 2", len(wins))
	}
	return wins[1]
}

// splitmix64 fills data segments deterministically (no global rand).
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func fillData(n int, seed uint64) []int32 {
	data := make([]int32, n)
	for i := range data {
		data[i] = int32(splitmix64(&seed))
	}
	return data
}

// errClass buckets a run error by its sentinel so both backends can be
// compared without tying the test to error strings.
func errClass(err error) string {
	switch {
	case err == nil:
		return ""
	case errors.Is(err, amulet.ErrOutOfCycles):
		return "out-of-cycles"
	case errors.Is(err, amulet.ErrBadAddress):
		return "bad-address"
	case errors.Is(err, amulet.ErrStackOverflow):
		return "stack-overflow"
	case errors.Is(err, amulet.ErrStackUnderflow):
		return "stack-underflow"
	case errors.Is(err, amulet.ErrCallDepth):
		return "call-depth"
	case errors.Is(err, amulet.ErrBadOpcode):
		return "bad-opcode"
	case errors.Is(err, amulet.ErrBadPC):
		return "bad-pc"
	default:
		return "other: " + err.Error()
	}
}

// runBoth executes p on the interpreter and the compiled backend with
// identical data and budget, then checks the equivalence contract: same
// error class; identical data segments and Usage on success; identical
// Usage on out-of-cycles too (the slow path replays the interpreter's
// billing exactly).
func runBoth(t *testing.T, p *amulet.Program, cp *jit.Program, data []int32, budget uint64) {
	t.Helper()
	vmData := append([]int32(nil), data...)
	jitData := append([]int32(nil), data...)

	vm, err := amulet.NewVM(p, vmData)
	if err != nil {
		t.Fatalf("NewVM: %v", err)
	}
	vmErr := vm.Run(budget)
	jitUsage, jitErr := cp.Run(jitData, budget, 0)

	if vc, jc := errClass(vmErr), errClass(jitErr); vc != jc {
		t.Fatalf("budget %d: interpreter %q vs jit %q", budget, vc, jc)
	}
	if vmErr == nil || errors.Is(vmErr, amulet.ErrOutOfCycles) {
		if vu := vm.Usage(); vu != jitUsage {
			t.Fatalf("budget %d: usage diverged\n interp: %+v\n    jit: %+v", budget, vu, jitUsage)
		}
	}
	if vmErr == nil {
		for i := range vmData {
			if vmData[i] != jitData[i] {
				t.Fatalf("budget %d: data[%d] diverged: interp %d vs jit %d", budget, i, vmData[i], jitData[i])
			}
		}
	}
}

// fixtures returns every firmware program the repo builds, compiled.
func fixtures(t *testing.T) map[string]*amulet.Program {
	t.Helper()
	out := make(map[string]*amulet.Program)
	for _, v := range features.Versions {
		p, err := program.Build(v)
		if err != nil {
			t.Fatalf("Build(%v): %v", v, err)
		}
		out[p.Name] = p
	}
	for name, build := range map[string]func() (*amulet.Program, error){
		"pedometer": program.BuildPedometer,
		"rpeak":     program.BuildRPeakDetector,
	} {
		p, err := build()
		if err != nil {
			t.Fatalf("build %s: %v", name, err)
		}
		out[p.Name] = p
	}
	return out
}

// TestFixturesMatchInterpreter runs every firmware fixture under both
// backends on randomized data segments with a generous budget.
func TestFixturesMatchInterpreter(t *testing.T) {
	for name, p := range fixtures(t) {
		cp, err := jit.Compile(p)
		if err != nil {
			t.Fatalf("Compile(%s): %v", name, err)
		}
		if cp.Blocks() == 0 {
			t.Fatalf("Compile(%s): no blocks", name)
		}
		for seed := uint64(1); seed <= 8; seed++ {
			runBoth(t, p, cp, fillData(p.DataWords, seed), program.MaxCycles)
		}
	}
}

// TestBudgetSweepExercisesSlowPath sweeps the cycle budget across a
// looping program so the budget line lands inside many different blocks,
// forcing the per-instruction slow path to reproduce the interpreter's
// exact fault position and telemetry.
func TestBudgetSweepExercisesSlowPath(t *testing.T) {
	p, err := program.BuildPedometer()
	if err != nil {
		t.Fatal(err)
	}
	cp, err := jit.Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	data := fillData(p.DataWords, 99)
	for budget := uint64(0); budget < 4_000; budget += 7 {
		runBoth(t, p, cp, data, budget)
	}
}

// TestBudgetSweepAcrossLoopKernels sweeps the cycle budget across the
// Original detector, whose loops all compile to loop kernels (fill,
// min/max, normalize, histogram, the column-sum, Σc², mean and variance
// reduces, and generic replay for the area and peak loops). The budget line
// then lands before, inside, and exactly at the end of fast-forwarded
// iteration runs, checking that the kernels' whole-iteration accounting
// and the header re-execution reproduce the interpreter's exact fault
// position, Usage, and memory state.
func TestBudgetSweepAcrossLoopKernels(t *testing.T) {
	p, err := program.Build(features.Original)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := jit.Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	// A real marshalled window, so the sweep walks the whole pipeline
	// instead of faulting early on garbage indirect addresses.
	data, err := program.Input(features.Original, testWindow(t, 5), svm.UnitModel(features.Original.Dim()))
	if err != nil {
		t.Fatal(err)
	}

	// Find the full-run cost, then spread budgets over [0, full] with a
	// prime stride so they hit assorted positions within iterations.
	vm, err := amulet.NewVM(p, append([]int32(nil), data...))
	if err != nil {
		t.Fatal(err)
	}
	if err := vm.Run(program.MaxCycles); err != nil {
		t.Fatalf("probe run: %v", err)
	}
	full := vm.Usage().Cycles
	step := full/211 + 13
	for budget := uint64(0); budget <= full+step; budget += step {
		runBoth(t, p, cp, data, budget)
	}
}

// TestCompileRejectsUnverifiable: bytecode vmlint rejects must not
// compile.
func TestCompileRejectsUnverifiable(t *testing.T) {
	bad := &amulet.Program{Name: "bad", Code: []byte{byte(amulet.OpAdd), byte(amulet.OpHalt)}}
	if _, err := jit.Compile(bad); err == nil {
		t.Fatal("Compile accepted a program with a stack underflow")
	}
	if _, err := jit.Compile(nil); err == nil {
		t.Fatal("Compile accepted nil")
	}
}

// TestDeviceUsesCompiledBackend: installing a verified program on a
// default device compiles it, WithInterpreter pins the oracle, and the
// process-wide switch falls back without reinstalling.
func TestDeviceUsesCompiledBackend(t *testing.T) {
	p, err := program.BuildRPeakDetector()
	if err != nil {
		t.Fatal(err)
	}

	dev := amulet.NewDevice()
	if err := dev.Install(p); err != nil {
		t.Fatal(err)
	}
	if !dev.HasCompiled(p.Name) {
		t.Fatal("default device did not compile a verified program")
	}

	pinned := amulet.NewDevice(amulet.WithInterpreter())
	if err := pinned.Install(p); err != nil {
		t.Fatal(err)
	}
	if pinned.HasCompiled(p.Name) {
		t.Fatal("WithInterpreter device still compiled")
	}

	data := fillData(p.DataWords, 7)
	jitRes, err := dev.Run(p.Name, append([]int32(nil), data...), program.MaxCycles)
	if err != nil {
		t.Fatal(err)
	}

	prev := amulet.SetJITEnabled(false)
	defer amulet.SetJITEnabled(prev)
	if amulet.JITEnabled() {
		t.Fatal("SetJITEnabled(false) did not stick")
	}
	interpRes, err := dev.Run(p.Name, append([]int32(nil), data...), program.MaxCycles)
	if err != nil {
		t.Fatal(err)
	}
	if jitRes != interpRes {
		t.Fatalf("device results diverged across backends:\n jit: %+v\n int: %+v", jitRes, interpRes)
	}

	pinnedRes, err := pinned.Run(p.Name, append([]int32(nil), data...), program.MaxCycles)
	if err != nil {
		t.Fatal(err)
	}
	if pinnedRes != interpRes {
		t.Fatalf("pinned device diverged from interpreter: %+v vs %+v", pinnedRes, interpRes)
	}
}

// TestDetectorVerdictsMatch runs the full on-device detector pipeline —
// quantized model, layout marshalling, verdict margins — under both
// backends and requires bit-identical outputs.
func TestDetectorVerdictsMatch(t *testing.T) {
	for _, v := range features.Versions {
		model := svm.UnitModel(v.Dim())
		jitDet, err := program.NewDeviceDetector(v, nil, model)
		if err != nil {
			t.Fatalf("%v: %v", v, err)
		}
		interpDet, err := program.NewDeviceDetector(v, amulet.NewDevice(amulet.WithInterpreter()), model)
		if err != nil {
			t.Fatalf("%v: %v", v, err)
		}
		if !jitDet.Device.HasCompiled(jitDet.Program().Name) {
			t.Fatalf("%v: detector device has no compiled program", v)
		}
		for seed := int64(1); seed <= 4; seed++ {
			w := testWindow(t, seed)
			a, errA := jitDet.Classify(w)
			b, errB := interpDet.Classify(w)
			if (errA == nil) != (errB == nil) {
				t.Fatalf("%v seed %d: error divergence: %v vs %v", v, seed, errA, errB)
			}
			if errA != nil {
				continue
			}
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("%v seed %d: outputs diverged:\n jit: %+v\n int: %+v", v, seed, a, b)
			}
		}
	}
}
