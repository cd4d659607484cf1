package wiot

import (
	"context"
	"errors"
	"math/rand"
	"net"
	"testing"
	"time"
)

// TestComputeBackoffDeterministic: same seed, same schedule — and every
// delay stays inside [base/2, max].
func TestComputeBackoffDeterministic(t *testing.T) {
	base, max := 10*time.Millisecond, 200*time.Millisecond
	a := rand.New(rand.NewSource(7))
	b := rand.New(rand.NewSource(7))
	var prevCeil time.Duration
	for attempt := 0; attempt < 10; attempt++ {
		da := computeBackoff(base, max, attempt, a)
		db := computeBackoff(base, max, attempt, b)
		if da != db {
			t.Fatalf("attempt %d: %v != %v with identical seeds", attempt, da, db)
		}
		if da < base/2 || da > max {
			t.Fatalf("attempt %d: %v outside [%v, %v]", attempt, da, base/2, max)
		}
		// The ceiling (2^attempt * base, capped) must not shrink.
		ceil := base << uint(attempt)
		if ceil > max || ceil <= 0 {
			ceil = max
		}
		if ceil < prevCeil {
			t.Fatalf("attempt %d: ceiling shrank", attempt)
		}
		prevCeil = ceil
	}
}

// reliableHarness stands up a station and returns it with its address.
func reliableHarness(t *testing.T, det Detector) (*TCPStation, *MemorySink, string) {
	t.Helper()
	sink := &MemorySink{}
	station := newTestStation(t, det, sink)
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	st, err := ServeTCP(context.Background(), lis, station)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = st.Close() })
	return st, sink, lis.Addr().String()
}

// TestReconnectSinkDeliversAndFlushes: the happy path — every frame is
// acknowledged, and Close drains cleanly.
func TestReconnectSinkDeliversAndFlushes(t *testing.T) {
	st, _, addr := reliableHarness(t, &flagEveryOther{})
	sink, err := NewReconnectSink(ReconnectConfig{Addr: addr, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	const frames = 40
	for seq := uint32(0); seq < frames; seq++ {
		if err := sink.HandleFrame(FrameFromFloats(SensorECG, seq, make([]float64, 90))); err != nil {
			t.Fatal(err)
		}
	}
	if err := sink.Close(); err != nil {
		t.Fatalf("Close after full ack = %v", err)
	}
	stats := st.Stats()
	if stats.Acks < frames {
		t.Errorf("station acked %d frames, want >= %d", stats.Acks, frames)
	}
	if got := sink.Stats().Connects; got != 1 {
		t.Errorf("connects = %d, want 1", got)
	}
	if err := sink.HandleFrame(Frame{Sensor: SensorECG}); !errors.Is(err, ErrSinkClosed) {
		t.Errorf("HandleFrame after Close = %v, want ErrSinkClosed", err)
	}
}

// TestReconnectSinkResumesAfterConnKill: severing every live connection
// mid-stream forces redials, and go-back-N replay still delivers every
// frame exactly once.
func TestReconnectSinkResumesAfterConnKill(t *testing.T) {
	det := &flagEveryOther{}
	st, memSink, addr := reliableHarness(t, det)
	sink, err := NewReconnectSink(ReconnectConfig{
		Addr:        addr,
		Seed:        11,
		BackoffBase: time.Millisecond,
		BackoffMax:  10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	// 24 frames of 90 samples = 2160 samples; with ABP fed separately
	// below, that is two complete 1080-sample windows.
	for seq := uint32(0); seq < 24; seq++ {
		if err := sink.HandleFrame(FrameFromFloats(SensorECG, seq, make([]float64, 90))); err != nil {
			t.Fatal(err)
		}
		if seq == 8 || seq == 16 {
			// Wait for a live connection, then kill it; the sink must
			// redial and replay its unacknowledged window.
			waitUntil(t, 2*time.Second, func() bool {
				st.mu.Lock()
				defer st.mu.Unlock()
				return len(st.conns) > 0
			}, "a sensor connection to be live")
			st.mu.Lock()
			for conn := range st.conns {
				_ = conn.Close()
			}
			st.mu.Unlock()
		}
	}
	abp, err := NewReconnectSink(ReconnectConfig{Addr: addr, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	for seq := uint32(0); seq < 24; seq++ {
		if err := abp.HandleFrame(FrameFromFloats(SensorABP, seq, make([]float64, 90))); err != nil {
			t.Fatal(err)
		}
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	if err := abp.Close(); err != nil {
		t.Fatal(err)
	}
	if got := sink.Stats().Connects; got < 2 {
		t.Errorf("connects = %d, want >= 2 (reconnect after kill)", got)
	}
	alerts := memSink.Alerts()
	if len(alerts) != 2 {
		t.Fatalf("windows classified = %d, want 2", len(alerts))
	}
	// Exactly once: no duplicate or phantom windows despite replays.
	for i, a := range alerts {
		if a.WindowIndex != i {
			t.Errorf("alert %d has window index %d", i, a.WindowIndex)
		}
	}
}

// deadAddr returns an address nothing is listening on.
func deadAddr(t *testing.T) string {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := lis.Addr().String()
	_ = lis.Close()
	return addr
}

// TestReconnectSinkDropPolicies pins the three full-buffer behaviors.
func TestReconnectSinkDropPolicies(t *testing.T) {
	addr := deadAddr(t)
	mk := func(policy DropPolicy) *ReconnectSink {
		t.Helper()
		s, err := NewReconnectSink(ReconnectConfig{
			Addr:           addr,
			Seed:           5,
			Buffer:         4,
			Drop:           policy,
			EnqueueTimeout: 20 * time.Millisecond,
			BackoffBase:    time.Millisecond,
			CloseTimeout:   50 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() {
			s.abort()
			_ = s.Close()
		})
		return s
	}
	fill := func(s *ReconnectSink) {
		t.Helper()
		for seq := uint32(0); seq < 4; seq++ {
			if err := s.HandleFrame(FrameFromFloats(SensorECG, seq, nil)); err != nil {
				t.Fatal(err)
			}
		}
	}
	extra := FrameFromFloats(SensorECG, 4, nil)

	blocking := mk(DropBlock)
	fill(blocking)
	if err := blocking.HandleFrame(extra); !errors.Is(err, ErrBufferFull) {
		t.Errorf("DropBlock timeout = %v, want ErrBufferFull", err)
	}

	oldest := mk(DropOldest)
	fill(oldest)
	if err := oldest.HandleFrame(extra); err != nil {
		t.Errorf("DropOldest = %v, want eviction instead", err)
	}
	if d := oldest.Stats().FramesDropped; d != 1 {
		t.Errorf("DropOldest dropped = %d, want 1", d)
	}
	oldest.mu.Lock()
	gap := oldest.gapPend[SensorECG]
	front := oldest.queue[0].seq
	oldest.mu.Unlock()
	if !gap {
		t.Error("DropOldest should schedule a gap declaration")
	}
	if front != 1 {
		t.Errorf("front of queue seq = %d, want 1 (seq 0 evicted)", front)
	}

	newest := mk(DropNewest)
	fill(newest)
	if err := newest.HandleFrame(extra); !errors.Is(err, ErrBufferFull) {
		t.Errorf("DropNewest = %v, want ErrBufferFull", err)
	}
}

// TestReconnectSinkMaxAttempts: exhausted dials fail the sink
// terminally, and Close reports the undelivered frames.
func TestReconnectSinkMaxAttempts(t *testing.T) {
	sink, err := NewReconnectSink(ReconnectConfig{
		Addr:         deadAddr(t),
		Seed:         9,
		MaxAttempts:  2,
		BackoffBase:  time.Millisecond,
		BackoffMax:   2 * time.Millisecond,
		CloseTimeout: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sink.HandleFrame(FrameFromFloats(SensorECG, 0, nil)); err != nil {
		t.Fatal(err)
	}
	// The supervisor gives up quickly; later enqueues surface the
	// terminal dial error.
	deadline := time.Now().Add(2 * time.Second)
	for {
		err := sink.HandleFrame(FrameFromFloats(SensorECG, 1, nil))
		if err != nil {
			if errors.Is(err, ErrSinkClosed) || errors.Is(err, ErrBufferFull) {
				t.Fatalf("HandleFrame = %v, want the terminal dial error", err)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("sink never failed terminally")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := sink.Close(); err == nil {
		t.Error("Close with undelivered frames should report them")
	}
	if r := sink.Stats().DialRetries; r != 2 {
		t.Errorf("dial retries = %d, want 2", r)
	}
}

// TestReconnectSinkGapDeclaration: when the station asks for a frame
// the sink has dropped, the sink declares the gap and the station's
// cursor jumps so the stream keeps flowing (with concealment).
func TestReconnectSinkGapDeclaration(t *testing.T) {
	st, memSink, addr := reliableHarness(t, &flagEveryOther{})
	sink, err := NewReconnectSink(ReconnectConfig{Addr: addr, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	// Skip seqs 0 and 1 entirely: the station nacks for 0, the sink has
	// nothing below 2, so it must declare a gap at 2.
	for seq := uint32(2); seq < 14; seq++ {
		if err := sink.HandleFrame(FrameFromFloats(SensorECG, seq, make([]float64, 90))); err != nil {
			t.Fatal(err)
		}
	}
	abp, err := NewReconnectSink(ReconnectConfig{Addr: addr, Seed: 22})
	if err != nil {
		t.Fatal(err)
	}
	for seq := uint32(0); seq < 12; seq++ {
		if err := abp.HandleFrame(FrameFromFloats(SensorABP, seq, make([]float64, 90))); err != nil {
			t.Fatal(err)
		}
	}
	if err := sink.Close(); err != nil {
		t.Fatalf("Close = %v (gap should unblock delivery)", err)
	}
	if err := abp.Close(); err != nil {
		t.Fatal(err)
	}
	if g := sink.Stats().GapsDeclared; g < 1 {
		t.Errorf("gaps declared = %d, want >= 1", g)
	}
	if n := st.Stats().Nacks; n < 1 {
		t.Errorf("station nacks = %d, want >= 1", n)
	}
	// 12 ECG frames delivered + 2 concealed = 14*90 = 1260 samples; ABP
	// 12*90 = 1080 → exactly one complete window.
	if len(memSink.Alerts()) != 1 {
		t.Errorf("windows = %d, want 1", len(memSink.Alerts()))
	}
}
