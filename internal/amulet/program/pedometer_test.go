package program

import (
	"testing"

	"github.com/wiot-security/sift/internal/amulet"
	"github.com/wiot-security/sift/internal/features"
	"github.com/wiot-security/sift/internal/sensors"
	"github.com/wiot-security/sift/internal/svm"
)

// walkMagnitude synthesizes a 3 s accelerometer magnitude window for an
// activity.
func walkMagnitude(t *testing.T, a sensors.Activity, seed int64) []float64 {
	t.Helper()
	rec, err := sensors.Generate([]sensors.Episode{{Activity: a, StartSec: 0, EndSec: 3}}, 3, 50, seed)
	if err != nil {
		t.Fatal(err)
	}
	return rec.Magnitude()
}

func TestPedometerCountsWalkSteps(t *testing.T) {
	mag := walkMagnitude(t, sensors.Walk, 1)
	steps, err := CountSteps(nil, mag)
	if err != nil {
		t.Fatal(err)
	}
	// The walk model oscillates at 2 Hz → ~6 threshold crossings in 3 s.
	if steps < 4 || steps > 8 {
		t.Errorf("walk steps = %d, want ≈6", steps)
	}
}

func TestPedometerQuietAtRest(t *testing.T) {
	mag := walkMagnitude(t, sensors.Rest, 2)
	steps, err := CountSteps(nil, mag)
	if err != nil {
		t.Fatal(err)
	}
	if steps != 0 {
		t.Errorf("rest steps = %d, want 0", steps)
	}
}

func TestPedometerMatchesHostReference(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		for _, a := range []sensors.Activity{sensors.Rest, sensors.Walk, sensors.Run} {
			mag := walkMagnitude(t, a, seed)
			dev, err := CountSteps(nil, mag)
			if err != nil {
				t.Fatal(err)
			}
			host := HostSteps(mag)
			if dev != host {
				t.Errorf("%v seed %d: device %d steps, host %d", a, seed, dev, host)
			}
		}
	}
}

func TestPedometerInputValidation(t *testing.T) {
	if _, err := PedometerInput(nil); err == nil {
		t.Error("empty input should error")
	}
	if _, err := PedometerInput(make([]float64, PedMaxSamples+1)); err == nil {
		t.Error("oversized input should error")
	}
}

func TestPedometerRejectsBadHeader(t *testing.T) {
	p, err := BuildPedometer()
	if err != nil {
		t.Fatal(err)
	}
	dev := amulet.NewDevice()
	if err := dev.Install(p); err != nil {
		t.Fatal(err)
	}
	data := make([]int32, PedDataWords)
	data[PedHdrN] = PedMaxSamples + 100
	if _, err := dev.Run(p.Name, data, 1_000_000); err != nil {
		t.Fatal(err)
	}
	if data[PedHdrSteps] != -1 {
		t.Errorf("bad header should be rejected with -1, got %d", data[PedHdrSteps])
	}
}

func TestPedometerCoexistsWithDetector(t *testing.T) {
	// Both apps flashed on one device — the Amulet's multi-app model.
	dev := amulet.NewDevice()
	det, err := NewDeviceDetector(features.Reduced, dev, svm.UnitModel(5))
	if err != nil {
		t.Fatal(err)
	}
	mag := walkMagnitude(t, sensors.Walk, 3)
	steps, err := CountSteps(dev, mag)
	if err != nil {
		t.Fatal(err)
	}
	if steps == 0 {
		t.Error("pedometer should count on the shared device")
	}
	if _, err := det.Classify(testWindow(t, 30)); err != nil {
		t.Fatal(err)
	}
	if len(dev.Programs()) != 2 {
		t.Errorf("device should hold 2 apps, has %d", len(dev.Programs()))
	}
}
