package fleet

import (
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/wiot-security/sift/internal/wiot"
)

func TestMetricsSnapshotCounts(t *testing.T) {
	m := &Metrics{}
	m.ScenarioStarted()
	m.ScenarioStarted()
	m.ScenarioCompleted(4 * time.Millisecond)
	m.ScenarioFailed(40 * time.Millisecond)
	m.FrameDelivered(2)
	m.FrameDelivered(1)
	m.FrameLost()
	m.FrameDuplicated()
	m.WindowsScored(10, 3)

	s := m.Snapshot()
	if s.ScenariosStarted != 2 || s.ScenariosCompleted != 1 || s.ScenariosFailed != 1 {
		t.Errorf("scenarios = %d/%d/%d", s.ScenariosStarted, s.ScenariosCompleted, s.ScenariosFailed)
	}
	if s.FramesDelivered != 3 || s.FramesLost != 1 || s.FramesDuplicated != 1 {
		t.Errorf("frames = %d/%d/%d", s.FramesDelivered, s.FramesLost, s.FramesDuplicated)
	}
	if s.WindowsScored != 10 || s.AlertsRaised != 3 {
		t.Errorf("windows = %d alerts = %d", s.WindowsScored, s.AlertsRaised)
	}
	if s.LatencyCount() != 2 {
		t.Errorf("latency count = %d, want 2", s.LatencyCount())
	}
	if got := s.MeanLatency(); got != 22*time.Millisecond {
		t.Errorf("mean latency = %v, want 22ms", got)
	}
}

func TestMetricsLatencyBucketPlacement(t *testing.T) {
	cases := []struct {
		d      time.Duration
		bucket int
	}{
		{500 * time.Microsecond, 0},     // <= 1ms
		{1 * time.Millisecond, 0},       // boundary lands in its bucket
		{3 * time.Millisecond, 2},       // <= 5ms
		{time.Hour, len(latencyBounds)}, // +Inf overflow
		{-time.Second, 0},               // clamped to zero
	}
	for _, c := range cases {
		m := &Metrics{}
		m.ScenarioCompleted(c.d)
		s := m.Snapshot()
		for i, b := range s.Latency {
			want := int64(0)
			if i == c.bucket {
				want = 1
			}
			if b.Count != want {
				t.Errorf("d=%v: bucket %d count = %d, want %d", c.d, i, b.Count, want)
			}
		}
	}
}

func TestMetricsSnapshotIsolation(t *testing.T) {
	m := &Metrics{}
	m.ScenarioCompleted(time.Millisecond)
	s := m.Snapshot()
	s.Latency[0].Count = 99
	if m.Snapshot().Latency[0].Count != 1 {
		t.Error("mutating a snapshot leaked into the metrics")
	}
}

func TestMetricsConcurrentUpdatesAreExact(t *testing.T) {
	m := &Metrics{}
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() { // concurrent observer, checked by -race
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = m.Snapshot()
			}
		}
	}()
	var upd sync.WaitGroup
	for w := 0; w < workers; w++ {
		upd.Add(1)
		go func() {
			defer upd.Done()
			for i := 0; i < per; i++ {
				m.ScenarioStarted()
				m.ScenarioCompleted(time.Duration(i%7) * time.Millisecond)
				m.FrameDelivered(1)
				m.WindowsScored(2, 1)
			}
		}()
	}
	upd.Wait()
	close(stop)
	wg.Wait()

	s := m.Snapshot()
	if s.ScenariosStarted != workers*per || s.ScenariosCompleted != workers*per {
		t.Errorf("scenarios = %d/%d, want %d", s.ScenariosStarted, s.ScenariosCompleted, workers*per)
	}
	if s.LatencyCount() != workers*per {
		t.Errorf("latency count = %d, want %d", s.LatencyCount(), workers*per)
	}
	if s.FramesDelivered != workers*per || s.WindowsScored != 2*workers*per || s.AlertsRaised != workers*per {
		t.Errorf("frames/windows/alerts = %d/%d/%d", s.FramesDelivered, s.WindowsScored, s.AlertsRaised)
	}
}

func TestSnapshotString(t *testing.T) {
	m := &Metrics{}
	m.ScenarioStarted()
	m.ScenarioCompleted(3 * time.Millisecond)
	m.FrameDelivered(5)
	m.FrameLost()
	m.WindowsScored(4, 2)
	out := m.Snapshot().String()
	for _, want := range []string{"scenarios:", "channel:", "windows:", "latency:", "<= 5ms"} {
		if !strings.Contains(out, want) {
			t.Errorf("snapshot %q missing %q", out, want)
		}
	}
	// An empty snapshot renders without histogram rows.
	if empty := (&Metrics{}).Snapshot().String(); strings.Contains(empty, "<=") {
		t.Errorf("empty snapshot should have no buckets: %q", empty)
	}
}

// TestObservedReliableChannelAllocs: with metrics on, a Reliable channel
// is wrapped in observedChannel, which must keep Reliable's
// allocation-free delivery and still count every frame.
func TestObservedReliableChannelAllocs(t *testing.T) {
	m := &Metrics{}
	ch := &observedChannel{inner: wiot.Reliable{}, m: m}
	f := wiot.FrameFromFloats(wiot.SensorECG, 5, []float64{1, 2})
	const calls = 1000
	allocs := testing.AllocsPerRun(calls, func() {
		out := ch.Transmit(f)
		if len(out) != 1 || out[0].Seq != f.Seq || &out[0].Samples[0] != &f.Samples[0] {
			t.Fatalf("delivered %+v, want the sent frame", out)
		}
	})
	if allocs != 0 {
		t.Errorf("%.2f allocations per Transmit, want 0", allocs)
	}
	if s := m.Snapshot(); s.FramesDelivered != calls+1 || s.FramesLost != 0 || s.FramesDuplicated != 0 {
		t.Errorf("metrics delivered/lost/dup = %d/%d/%d, want %d/0/0", s.FramesDelivered, s.FramesLost, s.FramesDuplicated, calls+1)
	}
}
