package fleet

import (
	"context"
	"sync/atomic"
	"testing"

	"github.com/wiot-security/sift/internal/dataset"
	"github.com/wiot-security/sift/internal/obs"
	"github.com/wiot-security/sift/internal/obs/telemetry"
	"github.com/wiot-security/sift/internal/obs/trace"
	"github.com/wiot-security/sift/internal/wiot"
)

// tracingDetector records the trace parent the engine hands it.
type tracingDetector struct {
	parent *atomic.Uint64
}

func (d *tracingDetector) Classify(w dataset.Window) (bool, error) { return false, nil }
func (d *tracingDetector) SetTraceParent(id uint64)                { d.parent.Store(id) }

func TestFleetPopulatesTelemetryRegistry(t *testing.T) {
	reg := telemetry.NewRegistry()
	res, err := Run(context.Background(), Config{
		Scenarios: 6,
		Workers:   3,
		BaseSeed:  11,
		Telemetry: reg,
		Source:    cohortSource(t, 3, 6),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 6 {
		t.Fatalf("completed %d of 6", res.Completed)
	}
	devices := reg.Snapshot()
	if len(devices) != 3 {
		t.Fatalf("registry holds %d devices, want one per subject (3)", len(devices))
	}
	var windows int64
	for _, d := range devices {
		if d.Scenarios == 0 {
			t.Errorf("device %s recorded no scenarios", d.Name)
		}
		if d.ScenarioTime <= 0 {
			t.Errorf("device %s recorded no scenario wall time", d.Name)
		}
		windows += d.ScenarioWindows
	}
	if int(windows) != res.Windows {
		t.Errorf("telemetry windows %d != fleet windows %d", windows, res.Windows)
	}
}

func TestFleetTraceTreeNests(t *testing.T) {
	prev := obs.Enabled()
	obs.SetEnabled(true)
	rec := trace.New(4096, 2)
	obs.AttachSink(rec)
	t.Cleanup(func() {
		obs.DetachSink()
		obs.SetEnabled(prev)
	})

	var detectorParent atomic.Uint64
	src := cohortSource(t, 2, 6)
	res, err := Run(context.Background(), Config{
		Scenarios: 4,
		Workers:   2,
		BaseSeed:  3,
		Source: func(index int, seed int64) (wiot.Scenario, error) {
			sc, err := src(index, seed)
			if err != nil {
				return sc, err
			}
			sc.Detector = &tracingDetector{parent: &detectorParent}
			return sc, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 4 {
		t.Fatalf("completed %d of 4", res.Completed)
	}
	if detectorParent.Load() == 0 {
		t.Error("engine never handed the detector a trace parent")
	}

	// Reconstruct the tree: every fleet.slot must parent under the
	// fleet.run root, every fleet.scenario.run under a fleet.slot.
	parentOf := map[uint64]uint64{}
	nameOf := map[uint64]string{}
	for _, e := range rec.Snapshot() {
		if e.Kind == trace.KindSpanEnd {
			parentOf[e.SpanID] = e.ParentID
			nameOf[e.SpanID] = e.Name
		}
	}
	var rootID uint64
	slots, runs := 0, 0
	for id, name := range nameOf {
		if name == "fleet.run" {
			rootID = id
		}
	}
	if rootID == 0 {
		t.Fatal("no fleet.run root span recorded")
	}
	for id, name := range nameOf {
		switch name {
		case "fleet.slot":
			slots++
			if parentOf[id] != rootID {
				t.Errorf("fleet.slot %d parents under %d, want root %d", id, parentOf[id], rootID)
			}
		case "fleet.scenario.run":
			runs++
			if nameOf[parentOf[id]] != "fleet.slot" {
				t.Errorf("fleet.scenario.run %d parents under %q, want fleet.slot",
					id, nameOf[parentOf[id]])
			}
		}
	}
	if slots != 4 || runs != 4 {
		t.Errorf("recorded %d slots and %d scenario runs, want 4 each", slots, runs)
	}
}
