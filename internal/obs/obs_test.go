package obs

import (
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// withCollection enables collection for one test, restoring the prior
// state and clearing accumulated values afterwards so tests compose.
func withCollection(t *testing.T) {
	t.Helper()
	prev := Enabled()
	SetEnabled(true)
	Reset()
	t.Cleanup(func() {
		SetEnabled(prev)
		Reset()
	})
}

func TestRegistryDeduplicates(t *testing.T) {
	c1 := NewCounter("test.dedup.counter")
	c2 := NewCounter("test.dedup.counter")
	if c1 != c2 {
		t.Error("NewCounter with the same name must return the same counter")
	}
	t1 := NewTimer("test.dedup.timer")
	t2 := NewTimer("test.dedup.timer")
	if t1 != t2 {
		t.Error("NewTimer with the same name must return the same timer")
	}
}

func TestCounterRespectsEnabled(t *testing.T) {
	c := NewCounter("test.gate.counter")
	SetEnabled(false)
	Reset()
	c.Add(5)
	if got := c.Value(); got != 0 {
		t.Errorf("disabled counter recorded %d, want 0", got)
	}
	withCollection(t)
	c.Add(5)
	c.Add(2)
	if got := c.Value(); got != 7 {
		t.Errorf("enabled counter = %d, want 7", got)
	}
}

func TestSpansNest(t *testing.T) {
	withCollection(t)
	parent := NewTimer("test.nest.parent")
	child := NewTimer("test.nest.child")

	sleep := 2 * time.Millisecond
	p := parent.Start()
	c := p.Child(child)
	time.Sleep(sleep)
	c.End()
	p.End()

	snap := TakeSnapshot()
	var ps, cs TimerStats
	for _, ts := range snap.Timers {
		switch ts.Name {
		case "test.nest.parent":
			ps = ts
		case "test.nest.child":
			cs = ts
		}
	}
	if ps.Count != 1 || cs.Count != 1 {
		t.Fatalf("counts parent=%d child=%d, want 1/1", ps.Count, cs.Count)
	}
	if cs.Total < sleep {
		t.Errorf("child total %v shorter than its %v sleep", cs.Total, sleep)
	}
	if ps.Total < cs.Total {
		t.Errorf("parent total %v shorter than child total %v", ps.Total, cs.Total)
	}
	// The sleep happened inside the child, so the parent's self time must
	// exclude it: self = total - child, which leaves well under the sleep.
	if ps.Self >= ps.Total {
		t.Errorf("parent self %v not reduced below total %v by child span", ps.Self, ps.Total)
	}
	if ps.Self >= sleep {
		t.Errorf("parent self %v still contains the child's %v sleep", ps.Self, sleep)
	}
	// The child had no children of its own: self == total.
	if cs.Self != cs.Total {
		t.Errorf("leaf child self %v != total %v", cs.Self, cs.Total)
	}
}

func TestSpanEndIdempotentAndZeroSafe(t *testing.T) {
	withCollection(t)
	tm := NewTimer("test.idem")
	s := tm.Start()
	if !s.Running() {
		t.Error("started span should report Running")
	}
	s.End()
	s.End() // second End must not double-count
	if s.Running() {
		t.Error("ended span should not report Running")
	}
	var zero Span
	zero.End() // zero Span End is a no-op, not a panic
	if n := TakeSnapshot(); timerByName(n, "test.idem").Count != 1 {
		t.Errorf("double End recorded %d spans, want 1", timerByName(n, "test.idem").Count)
	}
}

func timerByName(s Snapshot, name string) TimerStats {
	for _, ts := range s.Timers {
		if ts.Name == name {
			return ts
		}
	}
	return TimerStats{}
}

func TestDisabledModeAllocatesZero(t *testing.T) {
	SetEnabled(false)
	Reset()
	c := NewCounter("test.alloc.counter")
	tm := NewTimer("test.alloc.timer")

	allocs := testing.AllocsPerRun(1000, func() {
		c.Add(1)
		s := tm.Start()
		ch := s.Child(tm)
		ch.End()
		s.End()
	})
	if allocs != 0 {
		t.Errorf("disabled-mode instrumentation allocates %.1f per op, want 0", allocs)
	}
	if c.Value() != 0 {
		t.Errorf("disabled counter accumulated %d", c.Value())
	}
}

func TestEnabledSpanAllocatesZero(t *testing.T) {
	withCollection(t)
	tm := NewTimer("test.alloc.enabled")
	allocs := testing.AllocsPerRun(1000, func() {
		s := tm.Start()
		s.End()
	})
	if allocs != 0 {
		t.Errorf("enabled root span allocates %.1f per op, want 0", allocs)
	}
}

func TestCountersRaceClean(t *testing.T) {
	withCollection(t)
	c := NewCounter("test.race.counter")
	tm := NewTimer("test.race.timer")

	const goroutines = 8
	const perG = 500
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				c.Add(1)
				s := tm.Start()
				ch := s.Child(tm)
				ch.End()
				s.End()
				if i%100 == 0 {
					_ = TakeSnapshot() // observe while writers are in flight
				}
			}
		}()
	}
	wg.Wait()

	if got := c.Value(); got != goroutines*perG {
		t.Errorf("counter = %d, want %d", got, goroutines*perG)
	}
	snap := TakeSnapshot()
	if got := timerByName(snap, "test.race.timer").Count; got != 2*goroutines*perG {
		t.Errorf("timer count = %d, want %d", got, 2*goroutines*perG)
	}
}

func TestResetZeroesButKeepsHandles(t *testing.T) {
	withCollection(t)
	c := NewCounter("test.reset.counter")
	tm := NewTimer("test.reset.timer")
	c.Add(3)
	s := tm.Start()
	s.End()
	Reset()
	if c.Value() != 0 {
		t.Errorf("counter survived Reset with %d", c.Value())
	}
	if got := timerByName(TakeSnapshot(), "test.reset.timer"); got.Count != 0 || got.Total != 0 {
		t.Errorf("timer survived Reset with count=%d total=%v", got.Count, got.Total)
	}
	c.Add(1) // the handle must still work
	if c.Value() != 1 {
		t.Errorf("counter handle dead after Reset")
	}
}

func TestSnapshotSortedAndStringRenders(t *testing.T) {
	withCollection(t)
	NewCounter("test.zz").Add(1)
	NewCounter("test.aa").Add(2)
	snap := TakeSnapshot()
	for i := 1; i < len(snap.Counters); i++ {
		if snap.Counters[i-1].Name > snap.Counters[i].Name {
			t.Fatalf("counters not sorted: %q before %q", snap.Counters[i-1].Name, snap.Counters[i].Name)
		}
	}
	if snap.String() == "" {
		t.Error("snapshot with live counters rendered empty")
	}
}

func TestProfileHooks(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	if err := StartCPUProfile(cpu); err != nil {
		t.Fatalf("StartCPUProfile: %v", err)
	}
	if err := StartCPUProfile(cpu); err == nil {
		_ = StopCPUProfile() // clean up before failing
		t.Fatal("second StartCPUProfile should fail while one is running")
	}
	if err := StopCPUProfile(); err != nil {
		t.Fatalf("StopCPUProfile: %v", err)
	}
	if err := StopCPUProfile(); err != nil {
		t.Fatalf("idle StopCPUProfile should be a no-op, got %v", err)
	}
	if fi, err := os.Stat(cpu); err != nil || fi.Size() == 0 {
		t.Errorf("CPU profile missing or empty: %v", err)
	}
}
