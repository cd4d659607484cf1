package program

import (
	"testing"

	"github.com/wiot-security/sift/internal/arp"
	"github.com/wiot-security/sift/internal/dataset"
	"github.com/wiot-security/sift/internal/features"
	"github.com/wiot-security/sift/internal/obs/telemetry"
	"github.com/wiot-security/sift/internal/svm"
)

func TestClassifyStreamsTelemetryAndEnergy(t *testing.T) {
	d, err := NewDeviceDetector(features.Simplified, nil, svm.UnitModel(features.Simplified.Dim()))
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	d.Telemetry = reg.Device("bench/simplified")
	d.Energy = arp.NewAccounting(arp.DefaultEnergyModel(), dataset.WindowSec)

	for seed := int64(1); seed <= 3; seed++ {
		if _, err := d.Classify(testWindow(t, seed)); err != nil {
			t.Fatal(err)
		}
	}

	snap := reg.Device("bench/simplified").Snapshot()
	if snap.Windows != 3 {
		t.Fatalf("telemetry windows = %d, want 3", snap.Windows)
	}
	if snap.Cycles != int64(d.TotalCycles) {
		t.Errorf("telemetry cycles %d != detector cycles %d", snap.Cycles, d.TotalCycles)
	}
	if snap.SRAMPeakBytes <= 0 {
		t.Error("telemetry never recorded an SRAM watermark")
	}
	if snap.EnergyMicroJ <= 0 {
		t.Error("telemetry never recorded energy")
	}
	if snap.LifetimeDays <= 0 {
		t.Error("telemetry never projected a lifetime")
	}
	// Both accumulators watched the same windows, so they must agree.
	if got, want := snap.EnergyMicroJ, d.Energy.TotalMicroJ(); got != want {
		t.Errorf("telemetry energy %.3f µJ != accounting total %.3f µJ", got, want)
	}
	if d.Energy.Windows() != 3 {
		t.Errorf("accounting windows = %d, want 3", d.Energy.Windows())
	}
}

func TestClassifyWithoutHooksStaysCheap(t *testing.T) {
	d, err := NewDeviceDetector(features.Reduced, nil, svm.UnitModel(features.Reduced.Dim()))
	if err != nil {
		t.Fatal(err)
	}
	// Hooks default to nil: no telemetry, no accounting, no panic.
	if _, err := d.Classify(testWindow(t, 4)); err != nil {
		t.Fatal(err)
	}
	if d.Windows != 1 {
		t.Fatalf("windows = %d, want 1", d.Windows)
	}
}
