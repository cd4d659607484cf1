package wiot

import (
	"context"
	"errors"
	"math/rand"
	"net"
	"testing"
	"time"

	"github.com/wiot-security/sift/internal/dataset"
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

// rampFrame returns the sensor's frame seq of 90 samples counting up
// from seq*90, so a window's samples show which frames filled it, and in
// which order.
func rampFrame(sensor SensorID, seq uint32) Frame {
	samples := make([]float64, 90)
	for i := range samples {
		samples[i] = float64(int(seq)*90 + i)
	}
	return FrameFromFloats(sensor, seq, samples)
}

// fullBuffer is a Buffer: 4 ECG sink whose station is not yet serving:
// the listener's backlog accepts the dial, so frames sit in the socket
// until serve starts the station.
type fullBuffer struct {
	lis  net.Listener
	sink *ReconnectSink
	log  windowLog
}

// newFullBuffer fills the sink with ECG frames 0..3.
func newFullBuffer(t *testing.T, enqueueTimeout time.Duration) *fullBuffer {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	sink, err := NewReconnectSink(ReconnectConfig{
		Addr:           lis.Addr().String(),
		Seed:           5,
		Buffer:         4,
		EnqueueTimeout: enqueueTimeout,
		BackoffBase:    time.Millisecond,
		BackoffMax:     10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		sink.abort()
		_ = sink.Close()
	})
	for seq := uint32(0); seq < 4; seq++ {
		if err := sink.HandleFrame(rampFrame(SensorECG, seq)); err != nil {
			t.Fatal(err)
		}
	}
	return &fullBuffer{lis: lis, sink: sink}
}

func (h *fullBuffer) serve(t *testing.T) *TCPStation {
	t.Helper()
	st, err := ServeTCP(t.Context(), h.lis, newTestStation(t, &h.log, &MemorySink{}))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = st.Close() })
	return st
}

// finishWindow streams ECG frames from..11 and a whole window of ABP,
// closes both sinks, and returns the one window the station classified.
func (h *fullBuffer) finishWindow(t *testing.T, from uint32) dataset.Window {
	t.Helper()
	for seq := from; seq < 12; seq++ {
		if err := h.sink.HandleFrame(rampFrame(SensorECG, seq)); err != nil {
			t.Fatalf("frame %d: %v", seq, err)
		}
	}
	abp, err := NewReconnectSink(ReconnectConfig{Addr: h.lis.Addr().String(), Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	for seq := uint32(0); seq < 12; seq++ {
		if err := abp.HandleFrame(rampFrame(SensorABP, seq)); err != nil {
			t.Fatal(err)
		}
	}
	if err := h.sink.Close(); err != nil {
		t.Fatalf("ECG Close = %v", err)
	}
	if err := abp.Close(); err != nil {
		t.Fatal(err)
	}
	h.log.mu.Lock()
	defer h.log.mu.Unlock()
	if len(h.log.windows) != 1 {
		t.Fatalf("windows classified = %d, want 1", len(h.log.windows))
	}
	return h.log.windows[0]
}

// TestReconnectSinkFullBuffer pins the sink's one full-buffer rule: a
// HandleFrame at capacity waits up to EnqueueTimeout for an ack to free
// a slot, then refuses the frame with ErrBufferFull and keeps no record
// of it. A caller that streams on leaves a hole the station nacks, and
// the nack declares the gap.
func TestReconnectSinkFullBuffer(t *testing.T) {
	t.Run("an ack unblocks a waiting frame", func(t *testing.T) {
		h := newFullBuffer(t, 10*time.Second)
		done := make(chan error, 1)
		go func() { done <- h.sink.HandleFrame(rampFrame(SensorECG, 4)) }()
		select {
		case err := <-done:
			t.Fatalf("HandleFrame on a full buffer returned %v before any ack", err)
		case <-time.After(50 * time.Millisecond):
		}
		h.serve(t)
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("HandleFrame after an ack freed a slot = %v, want nil", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("HandleFrame still blocked after the station started acking")
		}
		w := h.finishWindow(t, 5)
		for i, v := range w.ECG {
			if v != float64(i) {
				t.Fatalf("ECG[%d] = %v, want %d: frames delivered out of order", i, v, i)
			}
		}
		if d := h.sink.Stats().FramesDropped; d != 0 {
			t.Errorf("frames dropped = %d, want 0", d)
		}
	})

	t.Run("a timed-out frame is refused and recorded nowhere", func(t *testing.T) {
		h := newFullBuffer(t, 250*time.Millisecond)
		if err := h.sink.HandleFrame(rampFrame(SensorECG, 4)); !errors.Is(err, ErrBufferFull) {
			t.Fatalf("HandleFrame past EnqueueTimeout = %v, want ErrBufferFull", err)
		}
		stats := h.sink.Stats()
		if stats.FramesDropped != 1 || stats.GapsDeclared != 0 {
			t.Fatalf("after the refusal: dropped %d, gaps %d; want 1, 0", stats.FramesDropped, stats.GapsDeclared)
		}
		h.sink.mu.Lock()
		pend, queued, next := len(h.sink.gapPend), len(h.sink.queue), h.sink.nextSeq[SensorECG]
		h.sink.mu.Unlock()
		if pend != 0 || queued != 4 || next != 4 {
			t.Fatalf("refusal left %d gaps pending, %d queued, next seq %d; want 0, 4, 4", pend, queued, next)
		}
	})

	t.Run("a stream past a refused frame converges through the nack gap", func(t *testing.T) {
		h := newFullBuffer(t, 250*time.Millisecond)
		if err := h.sink.HandleFrame(rampFrame(SensorECG, 4)); !errors.Is(err, ErrBufferFull) {
			t.Fatalf("HandleFrame past EnqueueTimeout = %v, want ErrBufferFull", err)
		}
		// Stream on past the hole: the station nacks seq 4 when seq 5
		// arrives, the sink no longer holds it and declares the gap, and
		// the station conceals the frame with hold-last samples.
		st := h.serve(t)
		w := h.finishWindow(t, 5)
		for i, v := range w.ECG {
			want := float64(i)
			if i >= 4*90 && i < 5*90 {
				want = 4*90 - 1
			}
			if v != want {
				t.Fatalf("ECG[%d] = %v, want %v (frame 4 concealed, the rest in order)", i, v, want)
			}
		}
		if g := h.sink.Stats().GapsDeclared; g < 1 {
			t.Errorf("gaps declared = %d, want >= 1", g)
		}
		if n := st.Stats().Nacks; n < 1 {
			t.Errorf("station nacks = %d, want >= 1", n)
		}
		if c := st.Station.Stats().Concealed; c != 90 {
			t.Errorf("samples concealed = %d, want 90 (the refused frame)", c)
		}
	})
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
