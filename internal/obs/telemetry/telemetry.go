// Package telemetry turns the repo's aggregate metrics into
// time-resolved operator signals: a registry of per-device resource
// telemetry (VM cycles per window, SRAM peak watermark, energy use and
// projected battery lifetime — the Table III quantities, but live), a
// bounded ring-buffered time-series type with min/mean/p99 rollups,
// and a periodic Sampler that snapshots obs counters/timers plus every
// registered device into those series. The exposition layer
// (obs/expose) renders both the instantaneous device state and the
// sampled series.
//
// Writers (VM windows finishing on fleet workers) touch only atomics;
// the sampler and any HTTP scraper read concurrently without locks on
// the write path.
package telemetry

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/wiot-security/sift/internal/obs"
)

// Device is one emulated wearable's live resource telemetry. All
// fields are atomics: ObserveWindow runs on fleet worker hot paths.
type Device struct {
	name string

	windows  atomic.Int64 // VM windows classified
	cycles   atomic.Int64 // total VM cycles across those windows
	sramPeak atomic.Int64 // watermark: highest per-window SRAM bill seen

	energyNanoJ       atomic.Int64 // total modeled energy, nanojoules
	lifetimeMicroDays atomic.Int64 // gauge: projected battery lifetime

	scenarios       atomic.Int64 // fleet scenarios completed for this device
	scenarioWindows atomic.Int64 // windows scored by those scenarios
	alerts          atomic.Int64 // altered-window alerts raised
	scenarioNanos   atomic.Int64 // total scenario wall time
}

// Name returns the device label.
func (d *Device) Name() string { return d.name }

// ObserveWindow records one classified VM window: its cycle cost, the
// peak SRAM the run billed, and the modeled energy it consumed.
func (d *Device) ObserveWindow(cycles uint64, sramBytes int, energyMicroJ float64) {
	d.windows.Add(1)
	d.cycles.Add(int64(cycles))
	for {
		old := d.sramPeak.Load()
		if int64(sramBytes) <= old || d.sramPeak.CompareAndSwap(old, int64(sramBytes)) {
			break
		}
	}
	d.energyNanoJ.Add(int64(energyMicroJ * 1e3))
}

// SetLifetimeDays updates the projected-battery-lifetime gauge.
func (d *Device) SetLifetimeDays(days float64) {
	d.lifetimeMicroDays.Store(int64(days * 1e6))
}

// ObserveScenario records one completed fleet scenario for the device:
// how many windows it scored, how many alerts it raised, and its wall
// time.
func (d *Device) ObserveScenario(windows, alerts int, wall time.Duration) {
	d.scenarios.Add(1)
	d.scenarioWindows.Add(int64(windows))
	d.alerts.Add(int64(alerts))
	d.scenarioNanos.Add(int64(wall))
}

// DeviceSnapshot is a point-in-time copy of one device's telemetry.
type DeviceSnapshot struct {
	Name string

	Windows       int64
	Cycles        int64
	SRAMPeakBytes int64
	EnergyMicroJ  float64
	LifetimeDays  float64

	Scenarios       int64
	ScenarioWindows int64
	Alerts          int64
	ScenarioTime    time.Duration
}

// CyclesPerWindow returns the device's mean VM cycle cost per window.
func (s DeviceSnapshot) CyclesPerWindow() float64 {
	if s.Windows == 0 {
		return 0
	}
	return float64(s.Cycles) / float64(s.Windows)
}

// Snapshot copies the device's telemetry (field-wise atomic, so values
// are exact per field and approximately simultaneous across fields).
func (d *Device) Snapshot() DeviceSnapshot {
	return DeviceSnapshot{
		Name:            d.name,
		Windows:         d.windows.Load(),
		Cycles:          d.cycles.Load(),
		SRAMPeakBytes:   d.sramPeak.Load(),
		EnergyMicroJ:    float64(d.energyNanoJ.Load()) / 1e3,
		LifetimeDays:    float64(d.lifetimeMicroDays.Load()) / 1e6,
		Scenarios:       d.scenarios.Load(),
		ScenarioWindows: d.scenarioWindows.Load(),
		Alerts:          d.alerts.Load(),
		ScenarioTime:    time.Duration(d.scenarioNanos.Load()),
	}
}

// Absorb folds a snapshot taken elsewhere into this device: counters
// add, the SRAM watermark takes the maximum, and the lifetime gauge
// keeps the larger projection. It is the merge step for telemetry that
// arrives as snapshots rather than live updates — a remote station
// shipping its device table to the coordinating control plane.
func (d *Device) Absorb(s DeviceSnapshot) {
	d.windows.Add(s.Windows)
	d.cycles.Add(s.Cycles)
	for {
		old := d.sramPeak.Load()
		if s.SRAMPeakBytes <= old || d.sramPeak.CompareAndSwap(old, s.SRAMPeakBytes) {
			break
		}
	}
	d.energyNanoJ.Add(int64(s.EnergyMicroJ * 1e3))
	if days := int64(s.LifetimeDays * 1e6); days > d.lifetimeMicroDays.Load() {
		d.lifetimeMicroDays.Store(days)
	}
	d.scenarios.Add(s.Scenarios)
	d.scenarioWindows.Add(s.ScenarioWindows)
	d.alerts.Add(s.Alerts)
	d.scenarioNanos.Add(int64(s.ScenarioTime))
}

// Registry holds every device, keyed by label. The zero value is not
// usable; construct with NewRegistry.
type Registry struct {
	mu      sync.Mutex
	devices map[string]*Device
}

// NewRegistry returns an empty device registry.
func NewRegistry() *Registry {
	return &Registry{devices: map[string]*Device{}}
}

// Device returns the device registered under name, creating it on
// first use — the same sharing semantics as obs.NewCounter, so a fleet
// slot and an HTTP scraper agree on identity by label alone.
func (r *Registry) Device(name string) *Device {
	r.mu.Lock()
	defer r.mu.Unlock()
	if d, ok := r.devices[name]; ok {
		return d
	}
	d := &Device{name: name}
	r.devices[name] = d
	return d
}

// Len returns the number of registered devices.
func (r *Registry) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.devices)
}

// Snapshot copies every device's telemetry, sorted by name.
func (r *Registry) Snapshot() []DeviceSnapshot {
	r.mu.Lock()
	devices := make([]*Device, 0, len(r.devices))
	for _, d := range r.devices {
		devices = append(devices, d)
	}
	r.mu.Unlock()
	out := make([]DeviceSnapshot, len(devices))
	for i, d := range devices {
		out[i] = d.Snapshot()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Merge folds every device of src into this registry by label,
// creating devices on first sight and Absorb-ing their snapshots
// otherwise. Stations that keep independent registries (per-shard
// backends, future remote stations) merge into one operator view this
// way without sharing memory during the run.
func (r *Registry) Merge(src *Registry) {
	if src == nil || src == r {
		return
	}
	for _, s := range src.Snapshot() {
		r.Device(s.Name).Absorb(s)
	}
}

// Sample is one time-series point; TS is nanoseconds on obs's
// monotonic clock.
type Sample struct {
	TS    int64
	Value float64
}

// Series is a bounded ring of samples: it retains the most recent
// capacity points and computes rollups over the retained window.
type Series struct {
	mu    sync.Mutex
	ring  []Sample
	next  int
	count int // total ever recorded
}

// NewSeries returns a series retaining up to capacity samples
// (minimum 2).
func NewSeries(capacity int) *Series {
	if capacity < 2 {
		capacity = 2
	}
	return &Series{ring: make([]Sample, capacity)}
}

// Record appends one sample, evicting the oldest when full.
func (s *Series) Record(ts int64, v float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ring[s.next] = Sample{TS: ts, Value: v}
	s.next = (s.next + 1) % len(s.ring)
	s.count++
}

// Samples returns the retained window in record order.
func (s *Series) Samples() []Sample {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := s.count
	if n > len(s.ring) {
		n = len(s.ring)
	}
	out := make([]Sample, 0, n)
	start := s.next - n
	if start < 0 {
		start += len(s.ring)
	}
	for i := 0; i < n; i++ {
		out = append(out, s.ring[(start+i)%len(s.ring)])
	}
	return out
}

// Rollup summarizes a series' retained window.
type Rollup struct {
	Count int // samples in the window
	Total int // samples ever recorded (evicted ones included)
	Min   float64
	Max   float64
	Mean  float64
	P50   float64
	P99   float64
	Last  float64
}

// Rollup computes min/mean/p50/p99/max over the retained samples.
func (s *Series) Rollup() Rollup {
	samples := s.Samples()
	s.mu.Lock()
	total := s.count
	s.mu.Unlock()
	r := Rollup{Count: len(samples), Total: total}
	if len(samples) == 0 {
		return r
	}
	vals := make([]float64, len(samples))
	for i, p := range samples {
		vals[i] = p.Value
	}
	r.Last = vals[len(vals)-1]
	sort.Float64s(vals)
	r.Min = vals[0]
	r.Max = vals[len(vals)-1]
	var sum float64
	for _, v := range vals {
		sum += v
	}
	r.Mean = sum / float64(len(vals))
	r.P50 = quantile(vals, 0.50)
	r.P99 = quantile(vals, 0.99)
	return r
}

// quantile interpolates the q-th quantile of sorted values.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// Sampler periodically folds obs.TakeSnapshot plus every registered
// device into named time-series. One goroutine samples; readers pull
// SeriesSnapshots concurrently.
type Sampler struct {
	interval time.Duration
	capacity int
	reg      *Registry

	mu     sync.Mutex
	series map[string]*Series
	order  []string

	stop chan struct{}
	done chan struct{}
}

// NewSampler builds a sampler that, once started, samples every
// interval and retains capacity points per series. reg may be nil for
// an obs-only sampler.
func NewSampler(interval time.Duration, capacity int, reg *Registry) *Sampler {
	if interval <= 0 {
		interval = time.Second
	}
	if capacity < 2 {
		capacity = 128
	}
	return &Sampler{
		interval: interval,
		capacity: capacity,
		reg:      reg,
		series:   map[string]*Series{},
	}
}

// get returns the named series, creating it on first use.
func (s *Sampler) get(name string) *Series {
	s.mu.Lock()
	defer s.mu.Unlock()
	if sr, ok := s.series[name]; ok {
		return sr
	}
	sr := NewSeries(s.capacity)
	s.series[name] = sr
	s.order = append(s.order, name)
	return sr
}

// SampleOnce takes one sample of everything at timestamp ts (pass
// obs.NowNanos(); the parameter exists so tests and benchmarks drive
// deterministic timelines).
func (s *Sampler) SampleOnce(ts int64) {
	snap := obs.TakeSnapshot()
	for _, c := range snap.Counters {
		s.get("obs/"+c.Name).Record(ts, float64(c.Value))
	}
	for _, t := range snap.Timers {
		s.get("obs/"+t.Name+"/count").Record(ts, float64(t.Count))
		s.get("obs/"+t.Name+"/mean_ns").Record(ts, float64(t.Mean()))
	}
	if s.reg == nil {
		return
	}
	for _, d := range s.reg.Snapshot() {
		prefix := "device/" + d.Name + "/"
		s.get(prefix+"cycles_per_window").Record(ts, d.CyclesPerWindow())
		s.get(prefix+"sram_peak_bytes").Record(ts, float64(d.SRAMPeakBytes))
		s.get(prefix+"energy_uj").Record(ts, d.EnergyMicroJ)
		s.get(prefix+"lifetime_days").Record(ts, d.LifetimeDays)
		s.get(prefix+"windows").Record(ts, float64(d.Windows+d.ScenarioWindows))
	}
}

// Start launches the sampling goroutine. Starting a started sampler is
// a no-op.
func (s *Sampler) Start() {
	s.mu.Lock()
	if s.stop != nil {
		s.mu.Unlock()
		return
	}
	s.stop = make(chan struct{})
	s.done = make(chan struct{})
	stop, done := s.stop, s.done
	s.mu.Unlock()

	go func() {
		defer close(done)
		tick := time.NewTicker(s.interval)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				s.SampleOnce(obs.NowNanos())
			case <-stop:
				return
			}
		}
	}()
}

// Running reports whether the sampling goroutine is live (started and
// not yet stopped). The /readyz endpoint uses it: a serving process
// whose sampler died or was never started is exposing stale series.
func (s *Sampler) Running() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stop != nil
}

// Stop halts the sampling goroutine, takes one final sample so the
// series always include the run's end state, and leaves the collected
// series readable.
func (s *Sampler) Stop() {
	s.mu.Lock()
	stop, done := s.stop, s.done
	s.stop, s.done = nil, nil
	s.mu.Unlock()
	if stop == nil {
		return
	}
	close(stop)
	<-done
	s.SampleOnce(obs.NowNanos())
}

// SeriesSnapshot is one series' rollup plus its retained samples.
type SeriesSnapshot struct {
	Name    string
	Rollup  Rollup
	Samples []Sample
}

// Series returns a snapshot of every series in creation order.
func (s *Sampler) Series() []SeriesSnapshot {
	s.mu.Lock()
	names := append([]string(nil), s.order...)
	byName := make(map[string]*Series, len(s.series))
	for k, v := range s.series {
		byName[k] = v
	}
	s.mu.Unlock()
	out := make([]SeriesSnapshot, 0, len(names))
	for _, n := range names {
		sr := byName[n]
		out = append(out, SeriesSnapshot{Name: n, Rollup: sr.Rollup(), Samples: sr.Samples()})
	}
	return out
}

// String renders a compact rollup table, one series per line.
func (s *Sampler) String() string {
	out := ""
	for _, ss := range s.Series() {
		if ss.Rollup.Count == 0 {
			continue
		}
		out += fmt.Sprintf("%-44s n=%-5d min=%-12.4g mean=%-12.4g p99=%-12.4g last=%.4g\n",
			ss.Name, ss.Rollup.Count, ss.Rollup.Min, ss.Rollup.Mean, ss.Rollup.P99, ss.Rollup.Last)
	}
	return out
}
