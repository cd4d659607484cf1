package main

import (
	"context"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/wiot-security/sift/internal/dataset"
	"github.com/wiot-security/sift/internal/fleet"
	"github.com/wiot-security/sift/internal/wiot"
)

// The traced run records a span around every call the benchmark makes
// into a layer's extension point — fleet Source and Runner, the channel,
// the interceptor, the detector and the station's connections — with
// the slot's scope as the parent. When a slot's runner returns its
// children are folded into per-layer totals: self time is the runner
// span minus the union of its children's intervals.

type spanKind int

const (
	spanTransmit spanKind = iota
	spanIntercept
	spanClassify
	spanRead
	numSpanKinds
)

type span struct {
	kind       spanKind
	start, end int64
}

// scope is one fleet slot: the parent of every span its scenario makes.
type scope struct {
	sourceStart int64
	runStart    int64
	firstRead   atomic.Int64

	// Transmit and Intercept run on the runner's goroutine; over TCP the
	// detector and the station's reads run on the station's, hence mu.
	mu       sync.Mutex
	children []span
	reads    int64
	connNs   int64

	sent, lost, dup, delivered int64
}

func (s *scope) add(k spanKind, start, end int64) {
	s.mu.Lock()
	s.children = append(s.children, span{k, start, end})
	s.mu.Unlock()
}

func (s *scope) stationRead(start, end int64, n int) {
	s.mu.Lock()
	s.children = append(s.children, span{spanRead, start, end})
	s.reads++
	s.mu.Unlock()
	if n > 0 {
		s.firstRead.CompareAndSwap(0, end)
	}
}

func (s *scope) connLifetime(ns int64) {
	s.mu.Lock()
	s.connNs += ns
	s.mu.Unlock()
}

// traceTotals are the folded per-layer sums over every traced slot.
type traceTotals struct {
	slots                 int64
	slotNs                int64
	stationSelfNs         int64
	kindN, kindNs         [numSpanKinds]int64
	sent, lost, dup       int64
	delivered             int64
	windows, concealed    int64
	stale                 int64
	connects, connectNs   int64
	reads, readNs, connNs int64
	fleetRunNs            int64 // fleet.Run calls
	fleetRunnerNs         int64 // Runner calls inside them
	capturedWindows       []dataset.Window
	capturedFrames        []wiot.Frame
}

// The replay sample: windows 2, 7, 12, … of the first traced slots and
// every 37th transmitted frame, 48 of each.
const (
	captureCap        = 48
	captureWindowStep = 5
	captureFrameEvery = 37
)

type tracer struct {
	mu     sync.Mutex
	scopes map[int]*scope
	tot    traceTotals
	frames atomic.Int64 // transmitted frames, for sampling captures
}

func newTracer() *tracer {
	return &tracer{scopes: map[int]*scope{}}
}

func (t *tracer) openScope(index int) *scope {
	s := &scope{sourceStart: nowNs()}
	t.mu.Lock()
	t.scopes[index] = s
	t.mu.Unlock()
	return s
}

func (t *tracer) scopeOf(index int) *scope {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.scopes[index]
}

// wrapRunner times each slot's scenario run and folds its span tree.
func (t *tracer) wrapRunner(inner fleet.Runner) fleet.Runner {
	return func(ctx context.Context, slot fleet.Slot, sc wiot.Scenario) (wiot.ScenarioResult, error) {
		s := t.scopeOf(slot.Index)
		s.runStart = nowNs()
		var res wiot.ScenarioResult
		var err error
		if inner == nil {
			res, err = wiot.RunScenarioContext(ctx, sc)
		} else {
			res, err = inner(ctx, slot, sc)
		}
		t.fold(s, nowNs(), res)
		return res, err
	}
}

// timeFleetRun records one fleet.Run call as the root span.
func (t *tracer) timeFleetRun(start, end int64) {
	t.mu.Lock()
	t.tot.fleetRunNs += end - start
	t.mu.Unlock()
}

// fold closes a slot's scope: self time of the runner span is its
// duration minus the union of its children's intervals within it.
func (t *tracer) fold(s *scope, runEnd int64, res wiot.ScenarioResult) {
	s.mu.Lock()
	children := s.children
	s.children = nil
	reads, connNs := s.reads, s.connNs
	s.mu.Unlock()

	sort.Slice(children, func(i, j int) bool { return children[i].start < children[j].start })
	var covered, curLo, curHi int64
	curLo, curHi = -1, -1
	var kindN, kindNs [numSpanKinds]int64
	for _, c := range children {
		kindN[c.kind]++
		kindNs[c.kind] += c.end - c.start
		lo, hi := max(c.start, s.runStart), min(c.end, runEnd)
		if hi <= lo {
			continue
		}
		if lo > curHi {
			covered += curHi - curLo
			curLo, curHi = lo, hi
		} else if hi > curHi {
			curHi = hi
		}
	}
	covered += curHi - curLo

	t.mu.Lock()
	defer t.mu.Unlock()
	tot := &t.tot
	tot.slots++
	tot.slotNs += runEnd - s.sourceStart
	runner := runEnd - s.runStart
	tot.fleetRunnerNs += runner
	tot.stationSelfNs += runner - covered
	for k := range kindN {
		tot.kindN[k] += kindN[k]
		tot.kindNs[k] += kindNs[k]
	}
	tot.readNs += kindNs[spanRead]
	tot.reads += reads
	tot.connNs += connNs
	if fr := s.firstRead.Load(); fr > 0 {
		tot.connects++
		tot.connectNs += fr - s.runStart
	}
	tot.sent += s.sent
	tot.lost += s.lost
	tot.dup += s.dup
	tot.delivered += s.delivered
	tot.windows += int64(res.Windows)
	tot.concealed += int64(res.Concealed)
	tot.stale += int64(res.Stale)
}

func (t *tracer) captureWindow(w dataset.Window) {
	if w.Index%captureWindowStep != 2 {
		return
	}
	t.mu.Lock()
	if len(t.tot.capturedWindows) < captureCap {
		t.tot.capturedWindows = append(t.tot.capturedWindows, w)
	}
	t.mu.Unlock()
}

func (t *tracer) captureFrame(f wiot.Frame) {
	if t.frames.Add(1)%captureFrameEvery != 0 {
		return
	}
	t.mu.Lock()
	if len(t.tot.capturedFrames) < captureCap {
		f.Samples = append(f.Samples[:0:0], f.Samples...)
		t.tot.capturedFrames = append(t.tot.capturedFrames, f)
	}
	t.mu.Unlock()
}

// totals returns a copy of the folded totals once every run has ended.
func (t *tracer) totals() traceTotals {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.tot
}

type tracedChannel struct {
	inner wiot.ChannelEffect
	sp    *scope
	tr    *tracer
}

func (c *tracedChannel) Transmit(f wiot.Frame) []wiot.Frame {
	start := nowNs()
	out := c.inner.Transmit(f)
	c.sp.add(spanTransmit, start, nowNs())
	c.sp.sent++
	switch len(out) {
	case 0:
		c.sp.lost++
	case 1:
	default:
		c.sp.dup++
	}
	c.sp.delivered += int64(len(out))
	c.tr.captureFrame(f)
	return out
}

type tracedInterceptor struct {
	inner wiot.Interceptor
	sp    *scope
}

func (i *tracedInterceptor) Intercept(f wiot.Frame) wiot.Frame {
	start := nowNs()
	out := i.inner.Intercept(f)
	i.sp.add(spanIntercept, start, nowNs())
	return out
}

type tracedDetector struct {
	inner wiot.Detector
	sp    *scope
	tr    *tracer
}

func (d *tracedDetector) Classify(w dataset.Window) (bool, error) {
	start := nowNs()
	v, err := d.inner.Classify(w)
	d.sp.add(spanClassify, start, nowNs())
	d.tr.captureWindow(w)
	return v, err
}
