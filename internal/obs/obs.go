// Package obs is the repo's lightweight observability layer: named
// counters, span timers with self-time accounting, and CPU/heap profile
// hooks. It exists so the hot paths the paper's Table III measures on
// hardware — VM opcode dispatch, feature extraction, the frame codec,
// and the fleet engine — can be instrumented permanently without paying
// for it in production runs.
//
// Cost model: instrumentation sites hold package-level *Counter/*Timer
// handles (registration happens once, at init). When collection is
// disabled (the default), every operation is a single atomic load and an
// early return — no allocation, no time syscall, no contention. When
// enabled, counters are one atomic add and spans are two monotonic clock
// reads plus a handful of atomic adds. Either way the layer is safe for
// concurrent use from any number of goroutines.
package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// enabled gates every collection site. Off by default: the zero state of
// the package must cost nothing on hot paths.
var enabled atomic.Bool

// SetEnabled turns collection on or off globally. Sites are gated
// individually, so flipping this mid-run is safe (counts recorded while
// enabled are kept).
func SetEnabled(on bool) { enabled.Store(on) }

// Enabled reports whether collection is currently on.
func Enabled() bool { return enabled.Load() }

// EventSink receives event-level telemetry from every instrumentation
// site while attached: one SpanBegin/SpanEnd pair per live span and one
// CounterSample per Counter.Add. Implementations must be safe for
// concurrent use from any goroutine and must not allocate or block —
// they sit directly on the hot paths (the flight recorder in obs/trace
// is the canonical implementation). Metric IDs resolve to names via
// MetricName; timestamps are NowNanos offsets.
type EventSink interface {
	SpanBegin(metricID int32, spanID, parentID uint64, startNS int64)
	SpanEnd(metricID int32, spanID, parentID uint64, startNS, endNS int64)
	CounterSample(metricID int32, tsNS int64, total int64)
}

// sinkBox wraps the sink interface so hot paths can load it with a
// single atomic pointer read.
type sinkBox struct{ s EventSink }

var sink atomic.Pointer[sinkBox]

// AttachSink routes event-level telemetry to s (detaching any previous
// sink). Events only fire while collection is enabled — a sink without
// SetEnabled(true) sees nothing.
func AttachSink(s EventSink) {
	if s == nil {
		sink.Store(nil)
		return
	}
	sink.Store(&sinkBox{s: s})
}

// DetachSink stops event emission. Aggregate counters and timers keep
// collecting as long as the package is enabled.
func DetachSink() { sink.Store(nil) }

// SinkAttached reports whether an event sink is currently attached.
func SinkAttached() bool { return sink.Load() != nil }

// nextSpanID allocates trace-wide unique span IDs. ID 0 is reserved to
// mean "no span" (roots have parent 0; disabled spans have ID 0).
var nextSpanID atomic.Uint64

// registry holds every metric ever created, keyed by name, so snapshots
// and resets can enumerate them. Creation is rare (package init);
// lookups on the hot path never touch it. Every metric also gets a
// small sequential ID so event sinks can record a metric as one int32
// and resolve the name only at export time.
var registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	timers   map[string]*Timer
	names    []string // metric ID -> name, counters and timers interleaved
}

// assignID registers a metric name and returns its ID. Caller holds
// registry.mu.
func assignID(name string) int32 {
	registry.names = append(registry.names, name)
	return int32(len(registry.names) - 1)
}

// MetricName resolves a metric ID (as delivered to an EventSink) back
// to its registered name; unknown IDs yield "".
func MetricName(id int32) string {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	if id < 0 || int(id) >= len(registry.names) {
		return ""
	}
	return registry.names[id]
}

// MaxMetricID returns the highest metric ID assigned so far (-1 when no
// metric exists yet). Sinks size their ID-indexed caches from it.
func MaxMetricID() int32 {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	return int32(len(registry.names) - 1)
}

// Counter is a named monotonic counter. The zero value is unusable;
// construct with NewCounter.
type Counter struct {
	name string
	id   int32
	v    atomic.Int64
}

// NewCounter returns the counter registered under name, creating it on
// first use. Calling NewCounter twice with the same name returns the
// same counter, so independent packages can share a metric.
func NewCounter(name string) *Counter {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	if registry.counters == nil {
		registry.counters = map[string]*Counter{}
	}
	if c, ok := registry.counters[name]; ok {
		return c
	}
	c := &Counter{name: name, id: assignID(name)}
	registry.counters[name] = c
	return c
}

// Name returns the counter's registered name.
func (c *Counter) Name() string { return c.name }

// ID returns the counter's metric ID (the value an EventSink sees).
func (c *Counter) ID() int32 { return c.id }

// Add increments the counter by n when collection is enabled.
func (c *Counter) Add(n int64) {
	if !enabled.Load() {
		return
	}
	v := c.v.Add(n)
	if sb := sink.Load(); sb != nil {
		sb.s.CounterSample(c.id, nowNanos(), v)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Timer aggregates span durations under one name: invocation count,
// total wall time, self time (total minus time spent in child spans),
// and the maximum single duration. The zero value is unusable; construct
// with NewTimer.
type Timer struct {
	name   string
	id     int32
	count  atomic.Int64
	totalN atomic.Int64 // nanoseconds, wall time
	selfN  atomic.Int64 // nanoseconds, wall time minus child spans
	maxN   atomic.Int64 // nanoseconds, slowest single span
}

// NewTimer returns the timer registered under name, creating it on first
// use (same sharing semantics as NewCounter).
func NewTimer(name string) *Timer {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	if registry.timers == nil {
		registry.timers = map[string]*Timer{}
	}
	if t, ok := registry.timers[name]; ok {
		return t
	}
	t := &Timer{name: name, id: assignID(name)}
	registry.timers[name] = t
	return t
}

// Name returns the timer's registered name.
func (t *Timer) Name() string { return t.name }

// ID returns the timer's metric ID (the value an EventSink sees).
func (t *Timer) ID() int32 { return t.id }

func (t *Timer) record(total, self time.Duration) {
	t.count.Add(1)
	t.totalN.Add(int64(total))
	t.selfN.Add(int64(self))
	for {
		old := t.maxN.Load()
		if int64(total) <= old || t.maxN.CompareAndSwap(old, int64(total)) {
			return
		}
	}
}

// TimerStats is one timer's aggregate in a snapshot.
type TimerStats struct {
	Name  string        `json:"name"`
	Count int64         `json:"count"`
	Total time.Duration `json:"totalNs"`
	Self  time.Duration `json:"selfNs"`
	Max   time.Duration `json:"maxNs"`
}

// Mean returns the average span duration (0 if the timer never fired).
func (s TimerStats) Mean() time.Duration {
	if s.Count == 0 {
		return 0
	}
	return s.Total / time.Duration(s.Count)
}

// CounterStats is one counter's value in a snapshot.
type CounterStats struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// Snapshot is a point-in-time copy of every registered metric, sorted by
// name. Each field is read atomically, so values are exact per metric
// but only approximately simultaneous across metrics.
type Snapshot struct {
	Counters []CounterStats `json:"counters"`
	Timers   []TimerStats   `json:"timers"`
}

// TakeSnapshot copies every registered counter and timer.
func TakeSnapshot() Snapshot {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	var s Snapshot
	for _, c := range registry.counters {
		s.Counters = append(s.Counters, CounterStats{Name: c.name, Value: c.v.Load()})
	}
	for _, t := range registry.timers {
		s.Timers = append(s.Timers, TimerStats{
			Name:  t.name,
			Count: t.count.Load(),
			Total: time.Duration(t.totalN.Load()),
			Self:  time.Duration(t.selfN.Load()),
			Max:   time.Duration(t.maxN.Load()),
		})
	}
	sort.Slice(s.Counters, func(i, j int) bool { return s.Counters[i].Name < s.Counters[j].Name })
	sort.Slice(s.Timers, func(i, j int) bool { return s.Timers[i].Name < s.Timers[j].Name })
	return s
}

// Reset zeroes every registered metric (the registrations themselves
// survive, so held handles stay valid). Benchmark harnesses call this
// between suites.
func Reset() {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	for _, c := range registry.counters {
		c.v.Store(0)
	}
	for _, t := range registry.timers {
		t.count.Store(0)
		t.totalN.Store(0)
		t.selfN.Store(0)
		t.maxN.Store(0)
	}
}

// String renders the snapshot as an aligned table, omitting metrics that
// never fired.
func (s Snapshot) String() string {
	var sb strings.Builder
	for _, c := range s.Counters {
		if c.Value == 0 {
			continue
		}
		fmt.Fprintf(&sb, "counter %-28s %d\n", c.Name, c.Value)
	}
	for _, t := range s.Timers {
		if t.Count == 0 {
			continue
		}
		fmt.Fprintf(&sb, "timer   %-28s n=%-8d mean=%-12v self=%-12v max=%v\n",
			t.Name, t.Count, t.Mean().Round(time.Nanosecond), t.Self.Round(time.Nanosecond), t.Max.Round(time.Nanosecond))
	}
	return sb.String()
}
