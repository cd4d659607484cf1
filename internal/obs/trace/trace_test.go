package trace

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"sync"
	"testing"

	"github.com/wiot-security/sift/internal/dataset"
	"github.com/wiot-security/sift/internal/obs"
	"github.com/wiot-security/sift/internal/physio"
	"github.com/wiot-security/sift/internal/wiot"
)

// withRecorder enables obs collection, attaches a fresh recorder, and
// restores the previous state when the test ends.
func withRecorder(t *testing.T, perShard, shards int) *Recorder {
	t.Helper()
	prev := obs.Enabled()
	obs.SetEnabled(true)
	r := New(perShard, shards)
	obs.AttachSink(r)
	t.Cleanup(func() {
		obs.DetachSink()
		obs.SetEnabled(prev)
	})
	return r
}

func TestSpanAndCounterEventsRecorded(t *testing.T) {
	r := withRecorder(t, 256, 1)
	tm := obs.NewTimer("trace.test.span")
	ctr := obs.NewCounter("trace.test.counter")

	s := tm.Start()
	if s.TraceID() == 0 {
		t.Fatal("span started under an attached recorder has trace ID 0")
	}
	ctr.Add(3)
	child := s.Child(tm)
	childID := child.TraceID()
	child.End()
	s.End()

	events := r.Snapshot()
	var begins, ends, counters int
	var childParent uint64
	for _, e := range events {
		switch e.Kind {
		case KindSpanBegin:
			begins++
		case KindSpanEnd:
			ends++
			if e.SpanID == childID {
				childParent = e.ParentID
			}
		case KindCounter:
			counters++
			if e.Name != "trace.test.counter" {
				t.Errorf("counter event name %q", e.Name)
			}
		}
	}
	if begins != 2 || ends != 2 || counters != 1 {
		t.Fatalf("got %d begins, %d ends, %d counters; want 2, 2, 1", begins, ends, counters)
	}
	if childParent != s.TraceID() {
		t.Errorf("child's recorded parent = %d, want %d", childParent, s.TraceID())
	}
}

func TestStartChildOfLinksAcrossGoroutines(t *testing.T) {
	r := withRecorder(t, 256, 2)
	tm := obs.NewTimer("trace.test.remote")

	root := tm.Start()
	rootID := root.TraceID()
	done := make(chan uint64)
	go func() {
		s := tm.StartChildOf(rootID)
		id := s.TraceID()
		s.End()
		done <- id
	}()
	remoteID := <-done
	root.End()

	for _, e := range r.Snapshot() {
		if e.Kind == KindSpanEnd && e.SpanID == remoteID {
			if e.ParentID != rootID {
				t.Fatalf("remote child parent = %d, want %d", e.ParentID, rootID)
			}
			return
		}
	}
	t.Fatal("remote child span end never recorded")
}

func TestConcurrentWritersAcrossShards(t *testing.T) {
	r := withRecorder(t, 128, 4)
	tm := obs.NewTimer("trace.test.race.span")
	ctr := obs.NewCounter("trace.test.race.counter")

	const goroutines = 8
	const perG = 500
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				s := tm.Start()
				ctr.Add(1)
				c := s.Child(tm)
				c.End()
				s.End()
			}
		}()
	}
	wg.Wait()

	// 5 events per iteration: 2 begins, 2 ends, 1 counter sample.
	wantWritten := uint64(goroutines * perG * 5)
	if w := r.Written(); w != wantWritten {
		t.Fatalf("written %d events, want %d", w, wantWritten)
	}
	kept := len(r.Snapshot())
	if kept == 0 {
		t.Fatal("snapshot is empty after a write storm")
	}
	if capTotal := 128 * 4; kept > capTotal {
		t.Fatalf("snapshot holds %d events, exceeds total capacity %d", kept, capTotal)
	}
	if r.Written() != r.Drops()+uint64(kept) {
		// Torn records at wrap are skipped, so kept may fall short of
		// written-drops; it must never exceed it.
		if uint64(kept) > r.Written()-r.Drops() {
			t.Fatalf("kept %d > written %d - drops %d", kept, r.Written(), r.Drops())
		}
	}
}

func TestDropCounterAccuracyAtWrap(t *testing.T) {
	r := withRecorder(t, 16, 1) // capacity rounds to exactly 16
	ctr := obs.NewCounter("trace.test.wrap")
	const extra = 5
	for i := 0; i < 16+extra; i++ {
		ctr.Add(1)
	}
	if d := r.Drops(); d != extra {
		t.Fatalf("Drops() = %d after wrapping by %d, want %d", d, extra, extra)
	}
	if sd := r.ShardDrops(); len(sd) != 1 || sd[0] != extra {
		t.Fatalf("ShardDrops() = %v, want [%d]", sd, extra)
	}
	events := r.Snapshot()
	if len(events) != 16 {
		t.Fatalf("snapshot retained %d events, want the full capacity 16", len(events))
	}
	// Flight-recorder semantics: the *oldest* events are the ones lost.
	if got := r.Written(); got != 16+extra {
		t.Fatalf("Written() = %d, want %d", got, 16+extra)
	}
}

func TestNoEventsBeforeWrapMeansNoDrops(t *testing.T) {
	r := withRecorder(t, 16, 1)
	ctr := obs.NewCounter("trace.test.nowrap")
	for i := 0; i < 10; i++ {
		ctr.Add(1)
	}
	if d := r.Drops(); d != 0 {
		t.Fatalf("Drops() = %d without a wrap, want 0", d)
	}
	if got := len(r.Snapshot()); got != 10 {
		t.Fatalf("snapshot retained %d events, want 10", got)
	}
}

func TestAttachedRecorderSpanEmissionAllocatesZero(t *testing.T) {
	_ = withRecorder(t, 1024, 2)
	tm := obs.NewTimer("trace.test.alloc.span")
	ctr := obs.NewCounter("trace.test.alloc.counter")
	allocs := testing.AllocsPerRun(1000, func() {
		s := tm.Start()
		ctr.Add(1)
		c := s.Child(tm)
		c.End()
		s.End()
	})
	if allocs != 0 {
		t.Errorf("attached-recorder span emission allocates %.1f per op, want 0", allocs)
	}
}

func TestDetachedRecorderRecordsNothing(t *testing.T) {
	r := withRecorder(t, 256, 1)
	tm := obs.NewTimer("trace.test.detach.span")
	ctr := obs.NewCounter("trace.test.detach.counter")

	s := tm.Start()
	s.End()
	ctr.Add(1)
	obs.DetachSink()

	after := tm.Start()
	if after.TraceID() != 0 {
		t.Errorf("span started with no sink attached has trace ID %d, want 0", after.TraceID())
	}
	remote := tm.StartChildOf(s.TraceID())
	remote.End()
	after.End() // must not panic
	ctr.Add(1)

	if got := len(r.Snapshot()); got != 3 { // span begin + end + counter sample
		t.Fatalf("recorder holds %d events, want the 3 emitted before detach", got)
	}
	// Aggregates keep collecting while obs is enabled.
	if got := ctr.Value(); got < 2 {
		t.Errorf("counter = %d after detach, want it still counting", got)
	}
}

func TestRecorderAttachedWhileDisabledRecordsNothing(t *testing.T) {
	prev := obs.Enabled()
	obs.SetEnabled(false)
	r := New(256, 1)
	obs.AttachSink(r)
	t.Cleanup(func() {
		obs.DetachSink()
		obs.SetEnabled(prev)
	})
	tm := obs.NewTimer("trace.test.disabled.span")

	s := tm.Start()
	if s.TraceID() != 0 {
		t.Errorf("span started while disabled has trace ID %d, want 0", s.TraceID())
	}
	c := tm.StartChildOf(42)
	c.End()
	s.End()
	obs.NewCounter("trace.test.disabled.counter").Add(1)

	if got := r.Snapshot(); len(got) != 0 {
		t.Fatalf("recorder attached while obs is disabled holds %d events, want 0", len(got))
	}
}

// cleanWindows is a wiot.Detector that passes every window.
type cleanWindows struct{}

func (cleanWindows) Classify(dataset.Window) (bool, error) { return false, nil }

func TestFilterSkipsMetrics(t *testing.T) {
	prev := obs.Enabled()
	obs.SetEnabled(true)
	t.Cleanup(func() {
		obs.DetachSink()
		obs.SetEnabled(prev)
	})
	noisy := obs.NewCounter("trace.test.filter.noisy")
	kept := obs.NewCounter("trace.test.filter.kept")
	r := New(1<<14, 1)
	r.SetFilter(func(name string) bool {
		return !strings.HasSuffix(name, ".noisy") && name != "wiot.sink.conn"
	})
	obs.AttachSink(r)

	noisy.Add(1)
	kept.Add(1)
	// A sensor connection's span passes the filter like every other span:
	// rejecting wiot.sink.conn drops it, while the station's own
	// connection span, parented under it over the wire, still records.
	rec, err := physio.Generate(physio.DefaultSubject(), 6, physio.DefaultSampleRate, 1)
	if err != nil {
		t.Fatal(err)
	}
	sc := wiot.Scenario{Record: rec, Detector: cleanWindows{}}
	if _, err := wiot.RunScenarioOverTCP(context.Background(), sc, wiot.NetConfig{Seed: 1, TraceParent: 1}); err != nil {
		t.Fatal(err)
	}
	if d := r.Drops(); d != 0 {
		t.Fatalf("recorder dropped %d events; ring too small for the test", d)
	}

	seen := map[string]bool{}
	for _, e := range r.Snapshot() {
		seen[e.Name] = true
	}
	for _, name := range []string{"trace.test.filter.noisy", "wiot.sink.conn"} {
		if seen[name] {
			t.Errorf("filtered metric %s recorded anyway", name)
		}
	}
	for _, name := range []string{"trace.test.filter.kept", "wiot.station.conn"} {
		if !seen[name] {
			t.Errorf("kept metric %s not recorded", name)
		}
	}
}

func TestChromeTraceGolden(t *testing.T) {
	r := New(64, 1)
	slot := obs.NewTimer("fleet.slot").ID()
	run := obs.NewTimer("fleet.scenario.run").ID()
	vm := obs.NewTimer("amulet.vm.run").ID()
	cyc := obs.NewCounter("amulet.vm.cycles").ID()

	// A hand-built slot tree: slot #1 contains run #2 contains vm #3,
	// plus a counter sample and a still-open span #9.
	r.emit(KindSpanBegin, slot, 1000, 0, 1, 0, 0)
	r.emit(KindSpanBegin, run, 2000, 0, 2, 1, 0)
	r.emit(KindSpanBegin, vm, 3000, 0, 3, 2, 0)
	r.emit(KindCounter, cyc, 3500, 0, 0, 0, 4242)
	r.emit(KindSpanEnd, vm, 4000, 3000, 3, 2, 0)
	r.emit(KindSpanEnd, run, 5000, 2000, 2, 1, 0)
	r.emit(KindSpanEnd, slot, 6000, 1000, 1, 0, 0)
	r.emit(KindSpanBegin, run, 7000, 0, 9, 0, 0)

	var buf bytes.Buffer
	if err := r.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	got := buf.String()
	want := `{"traceEvents":[` +
		`{"name":"thread_name","ph":"M","ts":0,"pid":1,"tid":1,"args":{"name":"fleet.slot #1"}},` +
		`{"name":"thread_name","ph":"M","ts":0,"pid":1,"tid":9,"args":{"name":"fleet.scenario.run #9"}},` +
		`{"name":"fleet.slot","ph":"X","ts":1,"dur":5,"pid":1,"tid":1},` +
		`{"name":"fleet.scenario.run","ph":"X","ts":2,"dur":3,"pid":1,"tid":1},` +
		`{"name":"amulet.vm.run","ph":"X","ts":3,"dur":1,"pid":1,"tid":1},` +
		`{"name":"amulet.vm.cycles","ph":"C","ts":3.5,"pid":1,"tid":0,"args":{"value":4242}},` +
		`{"name":"fleet.scenario.run","ph":"B","ts":7,"pid":1,"tid":9}` +
		`],"displayTimeUnit":"ms"}` + "\n"
	if got != want {
		t.Errorf("chrome trace mismatch:\n got: %s\nwant: %s", got, want)
	}

	// And the golden output must be loadable as the trace_event schema.
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("golden trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) != 7 {
		t.Fatalf("parsed %d traceEvents, want 7", len(doc.TraceEvents))
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	r := withRecorder(t, 64, 1)
	g := obs.NewTimer("trace.test.jsonl.span").Start()
	g.End()
	obs.NewCounter("trace.test.jsonl.counter").Add(1)

	var buf bytes.Buffer
	if err := r.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	lines := 0
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var obj map[string]any
		if err := json.Unmarshal(sc.Bytes(), &obj); err != nil {
			t.Fatalf("line %d is not JSON: %v", lines+1, err)
		}
		if _, ok := obj["kind"]; !ok {
			t.Fatalf("line %d missing kind: %s", lines+1, sc.Text())
		}
		lines++
	}
	if lines != 3 { // span begin + end + counter sample
		t.Fatalf("JSONL emitted %d lines, want 3", lines)
	}
}
