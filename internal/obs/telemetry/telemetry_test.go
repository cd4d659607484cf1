package telemetry

import (
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/wiot-security/sift/internal/obs"
)

func TestDeviceObserveWindowAggregates(t *testing.T) {
	reg := NewRegistry()
	d := reg.Device("amulet-0")
	d.ObserveWindow(1000, 512, 2.5)
	d.ObserveWindow(3000, 256, 1.5) // lower SRAM must not lower the watermark
	d.SetLifetimeDays(42.5)

	s := d.Snapshot()
	if s.Windows != 2 || s.Cycles != 4000 {
		t.Errorf("windows=%d cycles=%d, want 2 and 4000", s.Windows, s.Cycles)
	}
	if s.SRAMPeakBytes != 512 {
		t.Errorf("SRAM watermark %d, want 512 (peaks never regress)", s.SRAMPeakBytes)
	}
	if math.Abs(s.EnergyMicroJ-4.0) > 1e-9 {
		t.Errorf("energy %.9f µJ, want 4.0", s.EnergyMicroJ)
	}
	if math.Abs(s.LifetimeDays-42.5) > 1e-6 {
		t.Errorf("lifetime %.6f days, want 42.5", s.LifetimeDays)
	}
	if got := s.CyclesPerWindow(); got != 2000 {
		t.Errorf("cycles/window %.1f, want 2000", got)
	}
}

func TestRegistrySharesByName(t *testing.T) {
	reg := NewRegistry()
	a := reg.Device("s01")
	b := reg.Device("s01")
	if a != b {
		t.Fatal("same label returned two distinct devices")
	}
	reg.Device("s02")
	if reg.Len() != 2 {
		t.Fatalf("registry holds %d devices, want 2", reg.Len())
	}
	snap := reg.Snapshot()
	if len(snap) != 2 || snap[0].Name != "s01" || snap[1].Name != "s02" {
		t.Fatalf("snapshot %v not sorted by name", snap)
	}
}

func TestDeviceRaceClean(t *testing.T) {
	reg := NewRegistry()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			d := reg.Device("shared")
			for i := 0; i < 200; i++ {
				d.ObserveWindow(10, 100+g, 0.5)
				d.ObserveScenario(3, 1, time.Millisecond)
				d.SetLifetimeDays(float64(g))
				_ = d.Snapshot()
			}
		}(g)
	}
	wg.Wait()
	s := reg.Device("shared").Snapshot()
	if s.Windows != 1600 || s.Scenarios != 1600 {
		t.Fatalf("windows=%d scenarios=%d, want 1600 each", s.Windows, s.Scenarios)
	}
	if s.SRAMPeakBytes != 107 {
		t.Fatalf("SRAM watermark %d, want 107 (max across goroutines)", s.SRAMPeakBytes)
	}
}

func TestSeriesRingEvictsOldest(t *testing.T) {
	s := NewSeries(4)
	for i := 1; i <= 6; i++ {
		s.Record(int64(i), float64(i))
	}
	got := s.Samples()
	if len(got) != 4 {
		t.Fatalf("retained %d samples, want 4", len(got))
	}
	for i, want := range []float64{3, 4, 5, 6} {
		if got[i].Value != want {
			t.Fatalf("sample %d = %.0f, want %.0f (oldest evicted first)", i, got[i].Value, want)
		}
	}
	r := s.Rollup()
	if r.Count != 4 || r.Total != 6 {
		t.Fatalf("rollup count=%d total=%d, want 4 and 6", r.Count, r.Total)
	}
	if r.Min != 3 || r.Max != 6 || r.Last != 6 {
		t.Fatalf("rollup min=%g max=%g last=%g", r.Min, r.Max, r.Last)
	}
	if math.Abs(r.Mean-4.5) > 1e-9 {
		t.Fatalf("rollup mean %g, want 4.5", r.Mean)
	}
}

func TestRollupQuantiles(t *testing.T) {
	s := NewSeries(128)
	for i := 1; i <= 100; i++ {
		s.Record(int64(i), float64(i))
	}
	r := s.Rollup()
	if math.Abs(r.P50-50.5) > 1e-9 {
		t.Errorf("p50 = %g, want 50.5", r.P50)
	}
	if r.P99 < 99 || r.P99 > 100 {
		t.Errorf("p99 = %g, want in [99, 100]", r.P99)
	}
	empty := NewSeries(8).Rollup()
	if empty.Count != 0 || empty.Mean != 0 {
		t.Errorf("empty rollup %+v, want zeros", empty)
	}
}

func TestSamplerFoldsObsAndDevices(t *testing.T) {
	prev := obs.Enabled()
	obs.SetEnabled(true)
	t.Cleanup(func() { obs.SetEnabled(prev) })

	ctr := obs.NewCounter("telemetry.test.counter")
	ctr.Add(7)
	reg := NewRegistry()
	reg.Device("dev-a").ObserveWindow(5000, 300, 9.0)

	s := NewSampler(time.Second, 16, reg)
	s.SampleOnce(100)
	ctr.Add(3)
	s.SampleOnce(200)

	byName := map[string]SeriesSnapshot{}
	for _, ss := range s.Series() {
		byName[ss.Name] = ss
	}
	c, ok := byName["obs/telemetry.test.counter"]
	if !ok {
		t.Fatal("sampler did not create a series for the obs counter")
	}
	if c.Rollup.Count != 2 || c.Rollup.Last != 10 {
		t.Fatalf("counter series rollup %+v, want 2 samples ending at 10", c.Rollup)
	}
	e, ok := byName["device/dev-a/energy_uj"]
	if !ok {
		t.Fatal("sampler did not create the device energy series")
	}
	if e.Rollup.Last != 9.0 {
		t.Fatalf("energy series last = %g, want 9.0", e.Rollup.Last)
	}
	if _, ok := byName["device/dev-a/sram_peak_bytes"]; !ok {
		t.Fatal("sampler did not create the SRAM watermark series")
	}
	if !strings.Contains(s.String(), "device/dev-a/energy_uj") {
		t.Error("String() omits the device energy series")
	}
}

func TestSamplerStartStop(t *testing.T) {
	prev := obs.Enabled()
	obs.SetEnabled(true)
	t.Cleanup(func() { obs.SetEnabled(prev) })

	reg := NewRegistry()
	reg.Device("d").ObserveWindow(1, 1, 1)
	s := NewSampler(time.Millisecond, 1024, reg)
	s.Start()
	s.Start() // idempotent
	time.Sleep(20 * time.Millisecond)
	s.Stop()
	s.Stop() // idempotent

	var found bool
	for _, ss := range s.Series() {
		if ss.Name == "device/d/windows" && ss.Rollup.Count > 0 {
			found = true
		}
	}
	if !found {
		t.Fatal("running sampler never recorded the device windows series")
	}
}
