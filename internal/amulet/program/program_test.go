package program

import (
	"math"
	"testing"

	"github.com/wiot-security/sift/internal/amulet"
	"github.com/wiot-security/sift/internal/dataset"
	"github.com/wiot-security/sift/internal/features"
	"github.com/wiot-security/sift/internal/physio"
	"github.com/wiot-security/sift/internal/portrait"
	"github.com/wiot-security/sift/internal/svm"
)

func testWindow(t *testing.T, seed int64) dataset.Window {
	t.Helper()
	rec, err := physio.Generate(physio.DefaultSubject(), 6, physio.DefaultSampleRate, seed)
	if err != nil {
		t.Fatal(err)
	}
	wins, err := dataset.FromRecord(rec, dataset.WindowSec)
	if err != nil {
		t.Fatal(err)
	}
	return wins[1]
}

func TestBuildAllVersions(t *testing.T) {
	for _, v := range features.Versions {
		p, err := Build(v)
		if err != nil {
			t.Fatalf("%s: %v", v, err)
		}
		if p.CodeSize() == 0 {
			t.Errorf("%s: empty program", v)
		}
		if v == features.Original && !p.UsesSoftFloat {
			t.Errorf("Original must use software float")
		}
		if v != features.Original && p.UsesSoftFloat {
			t.Errorf("%s must not use software float", v)
		}
	}
	if _, err := Build(features.Version(99)); err == nil {
		t.Error("unknown version should error")
	}
}

func TestReducedSmallerThanOthers(t *testing.T) {
	sizes := map[features.Version]int{}
	for _, v := range features.Versions {
		p, err := Build(v)
		if err != nil {
			t.Fatal(err)
		}
		sizes[v] = p.FootprintBytes()
	}
	if sizes[features.Reduced] >= sizes[features.Simplified] {
		t.Errorf("Reduced footprint %d should be below Simplified %d", sizes[features.Reduced], sizes[features.Simplified])
	}
	if sizes[features.Simplified] >= sizes[features.Original] {
		t.Errorf("Simplified footprint %d should be below Original %d (soft-float calls)", sizes[features.Simplified], sizes[features.Original])
	}
}

// hostFeatures computes the reference feature vector for a window.
func hostFeatures(t *testing.T, v features.Version, w dataset.Window) []float64 {
	t.Helper()
	p, err := portrait.New(w.ECG, w.ABP, w.RPeaks, w.SysPeaks, w.Pairs)
	if err != nil {
		t.Fatal(err)
	}
	f, err := features.Extract(v, p, GridN)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestDeviceFeaturesMatchHost(t *testing.T) {
	w := testWindow(t, 3)
	for _, v := range features.Versions {
		v := v
		t.Run(v.String(), func(t *testing.T) {
			d, err := NewDeviceDetector(v, nil, svm.UnitModel(v.Dim()))
			if err != nil {
				t.Fatal(err)
			}
			out, err := d.Classify(w)
			if err != nil {
				t.Fatal(err)
			}
			host := hostFeatures(t, v, w)
			if len(out.Features) != len(host) {
				t.Fatalf("dims differ: %d vs %d", len(out.Features), len(host))
			}
			for j := range host {
				scale := math.Max(1, math.Abs(host[j]))
				if rel := math.Abs(out.Features[j]-host[j]) / scale; rel > 0.02 {
					t.Errorf("feature %d: device %.5f vs host %.5f (rel %.4f)", j, out.Features[j], host[j], rel)
				}
			}
		})
	}
}

func TestDeviceMarginMatchesFeatureSum(t *testing.T) {
	w := testWindow(t, 4)
	for _, v := range features.Versions {
		d, err := NewDeviceDetector(v, nil, svm.UnitModel(v.Dim()))
		if err != nil {
			t.Fatal(err)
		}
		out, err := d.Classify(w)
		if err != nil {
			t.Fatal(err)
		}
		var sum float64
		for _, f := range out.Features {
			sum += f
		}
		if math.Abs(out.Margin.Float()-sum) > 0.05*math.Max(1, math.Abs(sum)) {
			t.Errorf("%s: margin %.5f vs feature sum %.5f", v, out.Margin.Float(), sum)
		}
		if out.Altered != (out.Margin >= 0) {
			t.Errorf("%s: label inconsistent with margin", v)
		}
	}
}

func TestDeviceRejectsBadHeader(t *testing.T) {
	d, err := NewDeviceDetector(features.Reduced, nil, svm.UnitModel(5))
	if err != nil {
		t.Fatal(err)
	}
	data, err := Input(features.Reduced, testWindow(t, 5), d.Model)
	if err != nil {
		t.Fatal(err)
	}
	data[HdrN] = 0 // corrupt the header the way a broken pipeline would
	res, err := d.Device.Run(d.Program().Name, data, MaxCycles)
	if err != nil {
		t.Fatal(err)
	}
	_ = res
	out, err := ReadOutput(features.Reduced, data)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Rejected {
		t.Error("PeaksDataCheck should reject a zero-length window")
	}
}

func TestInputValidation(t *testing.T) {
	w := testWindow(t, 6)
	if _, err := Input(features.Original, w, nil); err == nil {
		t.Error("nil model should error")
	}
	if _, err := Input(features.Original, w, svm.UnitModel(5)); err == nil {
		t.Error("dim mismatch should error")
	}
	empty := dataset.Window{}
	if _, err := Input(features.Reduced, empty, svm.UnitModel(5)); err == nil {
		t.Error("empty window should error")
	}
	badPeak := w
	badPeak.RPeaks = []int{w.Len() + 5}
	if _, err := Input(features.Original, badPeak, svm.UnitModel(8)); err == nil {
		t.Error("out-of-range peak should error")
	}
	tooMany := w
	tooMany.RPeaks = make([]int, MaxPeaks+1)
	if _, err := Input(features.Original, tooMany, svm.UnitModel(8)); err == nil {
		t.Error("peak overflow should error")
	}
	short := w
	short.ABP = short.ABP[:10]
	if _, err := Input(features.Original, short, svm.UnitModel(8)); err == nil {
		t.Error("ECG/ABP length mismatch should error")
	}
}

func TestReadOutputValidation(t *testing.T) {
	if _, err := ReadOutput(features.Original, make([]int32, 4)); err == nil {
		t.Error("short segment should error")
	}
	data := make([]int32, DataWords)
	data[HdrLabel] = 7
	if _, err := ReadOutput(features.Original, data); err == nil {
		t.Error("bogus label word should error")
	}
}

func TestNewDeviceDetectorValidation(t *testing.T) {
	if _, err := NewDeviceDetector(features.Original, nil, nil); err == nil {
		t.Error("nil model should error")
	}
	if _, err := NewDeviceDetector(features.Original, nil, svm.UnitModel(5)); err == nil {
		t.Error("dim mismatch should error")
	}
}

func TestOriginalCostsMoreCyclesThanSimplified(t *testing.T) {
	w := testWindow(t, 7)
	cycles := map[features.Version]uint64{}
	for _, v := range features.Versions {
		d, err := NewDeviceDetector(v, nil, svm.UnitModel(v.Dim()))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := d.Classify(w); err != nil {
			t.Fatal(err)
		}
		cycles[v] = d.TotalCycles
	}
	if cycles[features.Original] <= cycles[features.Simplified] {
		t.Errorf("Original (%d cycles) should cost more than Simplified (%d)",
			cycles[features.Original], cycles[features.Simplified])
	}
	if cycles[features.Simplified] <= cycles[features.Reduced] {
		t.Errorf("Simplified (%d cycles) should cost more than Reduced (%d)",
			cycles[features.Simplified], cycles[features.Reduced])
	}
}

func TestDeviceSRAMWithinBudget(t *testing.T) {
	w := testWindow(t, 8)
	for _, v := range features.Versions {
		d, err := NewDeviceDetector(v, nil, svm.UnitModel(v.Dim()))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := d.Classify(w); err != nil {
			t.Fatal(err)
		}
		sram := d.PeakUsage.SRAMBytes()
		if sram <= 0 || sram > 600 {
			t.Errorf("%s: detector SRAM %d B implausible (paper: 69–259 B)", v, sram)
		}
	}
}

func TestDetectorFinishesWithinWindow(t *testing.T) {
	// Real-time constraint: every version must classify a 3 s window in
	// far less than 3 s of MCU time at 16 MHz.
	w := testWindow(t, 9)
	for _, v := range features.Versions {
		d, err := NewDeviceDetector(v, nil, svm.UnitModel(v.Dim()))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := d.Classify(w); err != nil {
			t.Fatal(err)
		}
		seconds := float64(d.TotalCycles) / amulet.ClockHz
		if seconds >= dataset.WindowSec {
			t.Errorf("%s: %f s per window exceeds the real-time budget", v, seconds)
		}
	}
}

func TestAvgCyclesPerWindow(t *testing.T) {
	d, err := NewDeviceDetector(features.Reduced, nil, svm.UnitModel(5))
	if err != nil {
		t.Fatal(err)
	}
	if d.AvgCyclesPerWindow() != 0 {
		t.Error("no windows yet → 0")
	}
	if _, err := d.Classify(testWindow(t, 10)); err != nil {
		t.Fatal(err)
	}
	if d.AvgCyclesPerWindow() <= 0 {
		t.Error("average should be positive after a classification")
	}
}
