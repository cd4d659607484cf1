package fleet

import (
	"context"
	"reflect"
	"testing"

	"github.com/wiot-security/sift/internal/amulet"
	"github.com/wiot-security/sift/internal/amulet/program"
	"github.com/wiot-security/sift/internal/dataset"
	"github.com/wiot-security/sift/internal/features"
	"github.com/wiot-security/sift/internal/physio"
	"github.com/wiot-security/sift/internal/svm"
	"github.com/wiot-security/sift/internal/wiot"
	"github.com/wiot-security/sift/internal/wiot/chaos"
)

// vmDetector adapts an emulated-Amulet detector to the fleet Detector
// interface. A window the firmware's PeaksDataCheck rejects flags as
// altered — rejection is itself a deterministic verdict, and folding it
// in keeps the cross-backend comparison sensitive to any divergence in
// the rejection path too.
type vmDetector struct{ det *program.DeviceDetector }

func (d vmDetector) Classify(w dataset.Window) (bool, error) {
	out, err := d.det.Classify(w)
	if err != nil {
		if out.Rejected {
			return true, nil
		}
		return false, err
	}
	return out.Altered, nil
}

// vmSource builds fleet scenarios whose detectors run real detector
// bytecode on a fresh emulated device per scenario (so parallel workers
// never share a VM), over the same loss-only channel hashSource uses.
func vmSource(t *testing.T, nSubjects int, durSec float64) Source {
	t.Helper()
	subjects, err := physio.Cohort(nSubjects, 321)
	if err != nil {
		t.Fatal(err)
	}
	dim := features.Reduced.Dim()
	model := svm.UnitModel(dim)
	return func(index int, seed int64) (wiot.Scenario, error) {
		rec, err := physio.Generate(subjects[index%nSubjects], durSec, physio.DefaultSampleRate, seed)
		if err != nil {
			return wiot.Scenario{}, err
		}
		det, err := program.NewDeviceDetector(features.Reduced, nil, model)
		if err != nil {
			return wiot.Scenario{}, err
		}
		ch, err := wiot.NewLossy(0.05, 0, seed)
		if err != nil {
			return wiot.Scenario{}, err
		}
		return wiot.Scenario{
			Record:   rec,
			Detector: vmDetector{det},
			Channel:  ch,
		}, nil
	}
}

// TestFleetVerdictsStableAcrossBackends runs the same fleet of
// device-emulated detectors four ways — {JIT, interpreter} × {in-process,
// chaos TCP} — and requires identical pooled results from all four. This
// is the fleet-level closure of the JIT's equivalence proof: not just
// per-program Usage and memory, but end-to-end verdict content through
// the full marshal → run → decode → transport pipeline.
func TestFleetVerdictsStableAcrossBackends(t *testing.T) {
	const scenarios, workers = 6, 3
	tcpRunner := func(ctx context.Context, slot Slot, sc wiot.Scenario) (wiot.ScenarioResult, error) {
		return wiot.RunScenarioOverTCP(ctx, sc, wiot.NetConfig{
			Seed: slot.Seed,
			WrapListener: chaos.WrapListener(chaos.Config{
				Seed:        slot.Seed,
				CorruptProb: 0.05,
				CutProb:     0.01,
			}),
		})
	}
	run := func(runner Runner) FleetResult {
		t.Helper()
		res, err := Run(context.Background(), Config{
			Scenarios: scenarios,
			Workers:   workers,
			BaseSeed:  23,
			Source:    vmSource(t, 3, 9),
			Runner:    runner,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Completed != scenarios || res.Failed != 0 {
			t.Fatalf("fleet run incomplete: %+v (errors: %v)", res, res.Err())
		}
		if res.Windows == 0 {
			t.Fatalf("fleet classified no windows: %+v", res)
		}
		return res
	}

	prev := amulet.JITEnabled()
	defer amulet.SetJITEnabled(prev)

	amulet.SetJITEnabled(true)
	jitMem := run(nil)
	jitTCP := run(tcpRunner)

	amulet.SetJITEnabled(false)
	interpMem := run(nil)
	interpTCP := run(tcpRunner)

	for name, res := range map[string]FleetResult{
		"jit/tcp":    jitTCP,
		"interp/mem": interpMem,
		"interp/tcp": interpTCP,
	} {
		if !reflect.DeepEqual(jitMem, res) {
			t.Errorf("%s diverged from jit/mem:\n jit/mem: %+v\n %s: %+v", name, jitMem, name, res)
		}
	}
}
