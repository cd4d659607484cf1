// Package trace is the repo's flight recorder: a bounded, sharded,
// lock-free ring buffer of fixed-size event records fed by the obs
// layer's spans and counters, and by nothing else. Attach a Recorder
// with obs.AttachSink and, while obs is enabled, every live obs.Span
// emits begin/end events and every obs.Counter.Add emits a sample —
// all with monotonic timestamps on obs's clock, zero allocations on
// the hot path, and per-shard drop accounting when the ring wraps.
// Every event names an obs metric.
//
// The recorder keeps the most recent events (flight-recorder
// semantics: old records are overwritten, never new ones refused), so
// a crash or a slow fleet run can always be examined from its tail.
// Exporters render the retained window as Chrome trace_event JSON
// (chrome://tracing / Perfetto) or as JSONL for ad-hoc tooling.
package trace

import (
	"fmt"
	"runtime"
	"sort"
	"sync/atomic"

	"github.com/wiot-security/sift/internal/obs"
)

// Kind discriminates event records.
type Kind uint8

const (
	// KindSpanBegin marks a span opening (obs.Timer.Start,
	// StartChildOf or Span.Child). TS is the start time.
	KindSpanBegin Kind = iota + 1
	// KindSpanEnd marks a span closing. TS is the end time, TS2 the
	// start time, so the record alone reconstructs the interval.
	KindSpanEnd
	// KindCounter is one counter sample; Value is the counter's total
	// after the Add that emitted it.
	KindCounter
)

// String names the kind for exports.
func (k Kind) String() string {
	switch k {
	case KindSpanBegin:
		return "spanBegin"
	case KindSpanEnd:
		return "spanEnd"
	case KindCounter:
		return "counter"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Event is one decoded flight-recorder record.
type Event struct {
	Kind     Kind
	Name     string
	TS       int64 // nanoseconds on obs's monotonic clock
	TS2      int64 // span end events: start time; otherwise 0
	SpanID   uint64
	ParentID uint64
	Value    int64 // counter total; otherwise 0
}

// slot is one ring entry. Every field is accessed atomically so
// concurrent writers and snapshot readers never data-race; seq is
// stored last (idx+1) and checked before/after a read, seqlock style,
// so a record torn by a wrap-around overwrite is detected and dropped
// instead of surfacing half of each write.
type slot struct {
	seq    atomic.Uint64
	kind   atomic.Int64
	name   atomic.Int64
	ts     atomic.Int64
	ts2    atomic.Int64
	span   atomic.Uint64
	parent atomic.Uint64
	value  atomic.Int64
}

// shard is one independent ring. The cursor is the only cross-writer
// contention point; padding keeps neighbouring shards' cursors off the
// same cache line.
type shard struct {
	cursor atomic.Uint64
	_      [56]byte
	ring   []slot
}

// Recorder is the sharded flight recorder. It implements obs.EventSink;
// attach it with obs.AttachSink and detach it with obs.DetachSink. The
// zero value is unusable; construct with New.
type Recorder struct {
	shards  []shard
	mask    uint64 // per-shard capacity - 1 (capacity is a power of two)
	filter  func(name string) bool
	verdict []atomic.Int32 // obs metric ID -> 0 unknown, 1 record, 2 skip
}

// New builds a recorder with perShard event slots in each of shards
// rings. perShard is rounded up to a power of two (minimum 16);
// shards <= 0 picks a power of two near GOMAXPROCS. Memory cost is
// 64 B per slot.
func New(perShard, shards int) *Recorder {
	if shards <= 0 {
		shards = 1
		for shards < runtime.GOMAXPROCS(0) {
			shards <<= 1
		}
	}
	capacity := 16
	for capacity < perShard {
		capacity <<= 1
	}
	r := &Recorder{
		shards: make([]shard, shards),
		mask:   uint64(capacity - 1),
	}
	for i := range r.shards {
		r.shards[i].ring = make([]slot, capacity)
	}
	return r
}

// SetFilter installs a per-metric predicate: span and counter events
// whose metric name fails it are not recorded. Verdicts are cached per
// metric ID, so the predicate itself runs at most a handful of times
// per metric. Must be called before the recorder is attached; a nil
// filter records everything.
func (r *Recorder) SetFilter(keep func(name string) bool) {
	r.filter = keep
	r.verdict = make([]atomic.Int32, int(obs.MaxMetricID())+1024)
}

// keeps reports whether metric id passes the filter, consulting the
// cached verdict first. IDs beyond the cache (metrics registered after
// SetFilter) are evaluated every time — rare, and still correct.
func (r *Recorder) keeps(id int32) bool {
	if r.filter == nil {
		return true
	}
	if int(id) < len(r.verdict) {
		switch r.verdict[id].Load() {
		case 1:
			return true
		case 2:
			return false
		}
	}
	ok := r.filter(obs.MetricName(id))
	if int(id) < len(r.verdict) {
		v := int32(2)
		if ok {
			v = 1
		}
		r.verdict[id].Store(v)
	}
	return ok
}

// mix spreads writers across shards: a cheap xorshift-multiply hash of
// the event identity. Events need no shard affinity (snapshots merge
// and sort globally), so all that matters is that concurrent writers
// rarely share a cursor.
func mix(a uint64, b int64) uint64 {
	x := a ^ uint64(b)
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	return x
}

// emit claims the next slot of a shard and writes the record. All
// stores are atomic; seq goes last so readers can detect torn records.
func (r *Recorder) emit(k Kind, name int32, ts, ts2 int64, span, parent uint64, value int64) {
	sh := &r.shards[mix(span+uint64(uint32(name)), ts)%uint64(len(r.shards))]
	idx := sh.cursor.Add(1) - 1
	s := &sh.ring[idx&r.mask]
	s.seq.Store(0)
	s.kind.Store(int64(k))
	s.name.Store(int64(name))
	s.ts.Store(ts)
	s.ts2.Store(ts2)
	s.span.Store(span)
	s.parent.Store(parent)
	s.value.Store(value)
	s.seq.Store(idx + 1)
}

// SpanBegin implements obs.EventSink.
func (r *Recorder) SpanBegin(metricID int32, spanID, parentID uint64, startNS int64) {
	if !r.keeps(metricID) {
		return
	}
	r.emit(KindSpanBegin, metricID, startNS, 0, spanID, parentID, 0)
}

// SpanEnd implements obs.EventSink.
func (r *Recorder) SpanEnd(metricID int32, spanID, parentID uint64, startNS, endNS int64) {
	if !r.keeps(metricID) {
		return
	}
	r.emit(KindSpanEnd, metricID, endNS, startNS, spanID, parentID, 0)
}

// CounterSample implements obs.EventSink.
func (r *Recorder) CounterSample(metricID int32, tsNS int64, total int64) {
	if !r.keeps(metricID) {
		return
	}
	r.emit(KindCounter, metricID, tsNS, 0, 0, 0, total)
}

// Written returns the total number of events ever accepted (including
// ones since overwritten).
func (r *Recorder) Written() uint64 {
	var n uint64
	for i := range r.shards {
		n += r.shards[i].cursor.Load()
	}
	return n
}

// ShardDrops returns, per shard, how many events the ring wrap has
// overwritten so far.
func (r *Recorder) ShardDrops() []uint64 {
	out := make([]uint64, len(r.shards))
	capacity := r.mask + 1
	for i := range r.shards {
		if c := r.shards[i].cursor.Load(); c > capacity {
			out[i] = c - capacity
		}
	}
	return out
}

// Drops returns the total number of overwritten (lost) events.
func (r *Recorder) Drops() uint64 {
	var n uint64
	for _, d := range r.ShardDrops() {
		n += d
	}
	return n
}

// Snapshot decodes every retained, untorn event, merged across shards
// and sorted by timestamp (span ID breaking ties). It is safe to call
// while writers are active; records overwritten mid-read are detected
// by their sequence numbers and skipped.
func (r *Recorder) Snapshot() []Event {
	var out []Event
	capacity := r.mask + 1
	for i := range r.shards {
		sh := &r.shards[i]
		cur := sh.cursor.Load()
		lo := uint64(0)
		if cur > capacity {
			lo = cur - capacity
		}
		for idx := lo; idx < cur; idx++ {
			s := &sh.ring[idx&r.mask]
			if s.seq.Load() != idx+1 {
				continue
			}
			ev := Event{
				Kind:     Kind(s.kind.Load()),
				TS:       s.ts.Load(),
				TS2:      s.ts2.Load(),
				SpanID:   s.span.Load(),
				ParentID: s.parent.Load(),
				Value:    s.value.Load(),
			}
			name := int32(s.name.Load())
			if s.seq.Load() != idx+1 {
				continue
			}
			ev.Name = obs.MetricName(name)
			out = append(out, ev)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].TS != out[j].TS {
			return out[i].TS < out[j].TS
		}
		return out[i].SpanID < out[j].SpanID
	})
	return out
}
