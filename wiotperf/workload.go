package main

import (
	"context"
	"fmt"
	"net"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/wiot-security/sift/internal/campaign"
	"github.com/wiot-security/sift/internal/dataset"
	"github.com/wiot-security/sift/internal/fleet"
	"github.com/wiot-security/sift/internal/obs"
	"github.com/wiot-security/sift/internal/physio"
	"github.com/wiot-security/sift/internal/wiot"
)

type channelKind int

const (
	channelLossy channelKind = iota
	channelReliable
)

// workload is one way of streaming the cohort: which channel the frames
// cross, which detector scores the windows, and whether the station sits
// behind the authenticated TCP wire.
type workload struct {
	name     string
	onDevice bool
	channel  channelKind
	overTCP  bool
}

var workloads = []workload{
	{name: "cohort-host", channel: channelLossy},
	{name: "cohort-device", onDevice: true, channel: channelLossy},
	{name: "wire-auth", channel: channelReliable, overTCP: true},
}

func lookupWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// digestCampaign names the verdict canonical form; it is fixed so that
// digests of different workloads and transports are comparable.
const digestCampaign = "wiotperf"

func verdictDigest(res *fleet.FleetResult) string {
	return (&campaign.Outcome{Campaign: digestCampaign, Fleet: res}).VerdictDigest()
}

// cpuSeconds returns the process's user+system CPU time, all threads.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err)) // cannot fail for RUSAGE_SELF
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

var epoch = time.Now()

// nowNs is monotonic nanoseconds since start-up.
func nowNs() int64 { return int64(time.Since(epoch)) }

// harness runs one workload's fleet over a built cohort.
type harness struct {
	wl     workload
	cohort *cohort
	// wrapDetector, when set, interposes on every wearer's detector; the
	// benchmark's test uses it to prove the verdict gate bites.
	wrapDetector func(wiot.Detector) wiot.Detector

	// clocks[i] is slot i's verdict clock in the current fleet run; a
	// slot's Source and Runner run in turn on one worker.
	clocks []*verdictClock

	latMu     sync.Mutex
	latencies []int64 // ns, completing frame's arrival to Classify return
	wireBytes atomic.Int64
}

// detector returns wearer i's station-facing detector.
func (h *harness) detector(i int) wiot.Detector {
	var d wiot.Detector = hostVerdict{h.cohort.wearers[i].host}
	if h.wl.onDevice {
		d = deviceVerdict{h.cohort.wearers[i].device}
	}
	if h.wrapDetector != nil {
		d = h.wrapDetector(d)
	}
	return d
}

// config builds the fleet configuration for one run. channel overrides
// the workload's channel (the wire reference runs in-process over a
// reliable one); tr, when set, traces every layer boundary.
func (h *harness) config(channel channelKind, overTCP bool, tr *tracer) fleet.Config {
	src := func(index int, seed int64) (wiot.Scenario, error) {
		var sp *scope
		if tr != nil {
			sp = tr.openScope(index)
		}
		det := h.detector(index)
		sc, err := h.cohort.scenario(index, seed, channel, det)
		if err != nil {
			return sc, err
		}
		clk := newVerdictClock(overTCP, sc.Record)
		inner := sc.Channel
		if sp != nil {
			inner = &tracedChannel{inner: inner, sp: sp, tr: tr}
			sc.Attack = &tracedInterceptor{inner: sc.Attack, sp: sp}
			det = &tracedDetector{inner: det, sp: sp, tr: tr}
		}
		if !overTCP {
			inner = &stampedChannel{inner: inner, clk: clk}
		}
		sc.Channel = inner
		h.clocks[index] = clk
		sc.Detector = &stampedDetector{inner: det, clk: clk, h: h}
		return sc, nil
	}
	cfg := fleet.Config{
		Scenarios: cohortSize,
		Workers:   1,
		BaseSeed:  h.cohort.seed,
		FailFast:  true,
		Source:    src,
	}
	if overTCP {
		master := campaign.AuthMaster(h.cohort.seed)
		cfg.Runner = func(ctx context.Context, slot fleet.Slot, sc wiot.Scenario) (wiot.ScenarioResult, error) {
			sl := &stationListener{h: h, clk: h.clocks[slot.Index]}
			if tr != nil {
				sl.sp = tr.scopeOf(slot.Index)
			}
			return wiot.RunScenarioOverTCP(ctx, sc, wiot.NetConfig{
				Seed: slot.Seed,
				Auth: &wiot.AuthProvision{Master: master},
				WrapListener: func(l net.Listener) net.Listener {
					sl.Listener = l
					return sl
				},
			})
		}
	}
	if tr != nil {
		cfg.Runner = tr.wrapRunner(cfg.Runner)
	}
	return cfg
}

// runFleet runs the cohort once and returns the result and its digest.
func (h *harness) runFleet(ctx context.Context, cfg fleet.Config) (fleet.FleetResult, string, error) {
	res, err := fleet.Run(ctx, cfg)
	if err != nil {
		return res, "", err
	}
	if err := res.Err(); err != nil {
		return res, "", err
	}
	return res, verdictDigest(&res), nil
}

// The wire's auth rejection counters: wiot.auth.reject.<kind>.
const authRejectPrefix = "wiot.auth.reject."

var authRejectKinds = []string{"handshake", "nosession", "session", "mac", "plain"}

// authRejects sums the wire's auth rejection counters.
func authRejects() int64 {
	var n int64
	for _, c := range obs.TakeSnapshot().Counters {
		if strings.HasPrefix(c.Name, authRejectPrefix) {
			n += c.Value
		}
	}
	return n
}

// verdictClock pairs each verdict with the arrival of the frame that
// completed its window. In process the station runs synchronously under
// Transmit's caller, so that frame is simply the last one Transmit
// returned. Over TCP the sender runs ahead of the station, so Transmit
// times would measure socket backlog; there the frame's arrival is the
// return of the station's read that delivered its last byte, and window
// w completes with frame ceil((w+1)·wlen/chunk)−1 of whichever sensor
// delivered it later.
type verdictClock struct {
	overTCP  bool
	wlen     int
	last     int64             // in process: the last Transmit return
	arrivals [3][]atomic.Int64 // over TCP: [sensor][seq] first arrival
}

func newVerdictClock(overTCP bool, rec *physio.Record) *verdictClock {
	c := &verdictClock{overTCP: overTCP, wlen: int(dataset.WindowSec * rec.SampleRate)}
	if overTCP {
		frames := (len(rec.ABP) + wiot.DefaultChunkSize - 1) / wiot.DefaultChunkSize
		c.arrivals[wiot.SensorECG] = make([]atomic.Int64, frames)
		c.arrivals[wiot.SensorABP] = make([]atomic.Int64, frames)
	}
	return c
}

// arrived records a data frame's first arrival at the station.
func (c *verdictClock) arrived(sensor wiot.SensorID, seq uint32, at int64) {
	if sensor.Valid() && int(seq) < len(c.arrivals[sensor]) {
		c.arrivals[sensor][seq].CompareAndSwap(0, at)
	}
}

// completedAt returns when window's completing frame arrived (0 when
// unknown).
func (c *verdictClock) completedAt(window int) int64 {
	if !c.overTCP {
		return c.last
	}
	k := ((window+1)*c.wlen+wiot.DefaultChunkSize-1)/wiot.DefaultChunkSize - 1
	ecg, abp := c.arrivals[wiot.SensorECG], c.arrivals[wiot.SensorABP]
	if k < 0 || k >= len(ecg) {
		return 0
	}
	e, a := ecg[k].Load(), abp[k].Load()
	if e == 0 || a == 0 {
		return 0
	}
	return max(e, a)
}

// stampedChannel stamps each in-process Transmit return on the clock.
type stampedChannel struct {
	inner wiot.ChannelEffect
	clk   *verdictClock
}

func (c *stampedChannel) Transmit(f wiot.Frame) []wiot.Frame {
	out := c.inner.Transmit(f)
	c.clk.last = nowNs()
	return out
}

type stampedDetector struct {
	inner wiot.Detector
	clk   *verdictClock
	h     *harness
}

func (d *stampedDetector) Classify(w dataset.Window) (bool, error) {
	v, err := d.inner.Classify(w)
	done := nowNs()
	if sent := d.clk.completedAt(w.Index); sent > 0 && err == nil {
		d.h.latMu.Lock()
		d.h.latencies = append(d.h.latencies, done-sent)
		d.h.latMu.Unlock()
	}
	return v, err
}

// percentile returns the q-quantile (0..1) of sorted by nearest rank.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
