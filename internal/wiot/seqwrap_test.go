package wiot

import (
	"net"
	"testing"
	"time"
)

// TestSerialArithmetic pins the RFC 1982 comparisons at the u32 wrap
// boundary, where plain unsigned compares invert their answer.
func TestSerialArithmetic(t *testing.T) {
	cases := []struct {
		a, b  uint32
		after bool
	}{
		{1, 0, true},
		{0, 1, false},
		{0, 0xFFFFFFFF, true},  // 0 comes after max: the wrap case
		{2, 0xFFFFFFFE, true},  // spans the boundary by a few steps
		{0xFFFFFFFE, 2, false}, // and the mirror image
		{0x80000000, 0, false}, // exactly half the space is "before"
		{0x7FFFFFFF, 0, true},  // just under half is still "after"
		{0xFFFFFFFF, 0xFFFFFFFE, true},
	}
	for _, tc := range cases {
		if got := seqAfter(tc.a, tc.b); got != tc.after {
			t.Errorf("seqAfter(%#x, %#x) = %v, want %v", tc.a, tc.b, got, tc.after)
		}
		if tc.a != tc.b {
			if got := seqBefore(tc.a, tc.b); got == tc.after {
				t.Errorf("seqBefore(%#x, %#x) must be the inverse of seqAfter", tc.a, tc.b)
			}
		}
	}
}

// TestSeqWrapStationCursor drives the station's two comparison sites
// across the wrap with raw wire records: a gap announcement whose target
// has wrapped must still advance the sensor's cursor, and a pre-wrap
// duplicate must be re-acked as stale rather than nacked as future.
func TestSeqWrapStationCursor(t *testing.T) {
	st, _, addr := reliableHarness(t, &flagEveryOther{})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(appendGapWalk(appendCtrl(nil, ctrlRecord{Kind: ctrlHello}), SensorECG, 0, 0xFFFFFFFE)); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, 2*time.Second, func() bool {
		return cursorOf(st.Station, SensorECG) == 0xFFFFFFFE
	}, "the gap walk to reach the wrap")

	// The sensor dropped everything below seq 2 (post-wrap). With raw
	// unsigned compares 2 > 0xFFFFFFFE is false and the cursor would
	// stall forever at the boundary.
	if _, err := conn.Write(appendCtrl(nil, ctrlRecord{Kind: ctrlGap, Sensor: SensorECG, Seq: 2})); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, 2*time.Second, func() bool {
		return cursorOf(st.Station, SensorECG) == 2
	}, "the wrapped gap to advance the cursor")

	// In-order delivery resumes at 2.
	f := FrameFromFloats(SensorECG, 2, make([]float64, 4))
	payload, err := f.EncodeChecksummed()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(payload); err != nil {
		t.Fatal(err)
	}
	sc := newFrameScanner(conn)
	rec, err := sc.next()
	if err != nil {
		t.Fatal(err)
	}
	if !rec.isCtrl || rec.ctrl.Kind != ctrlAck || rec.ctrl.Seq != 2 {
		t.Fatalf("frame 2 reply = %+v, want ack 2", rec.ctrl)
	}

	// A duplicate from before the wrap is stale, not future: it must be
	// re-acked at the cursor's predecessor, never nacked (a nack here would rewind the
	// sender into an endless retransmit loop).
	dup := FrameFromFloats(SensorECG, 0xFFFFFFFF, make([]float64, 4))
	payload, err = dup.EncodeChecksummed()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(payload); err != nil {
		t.Fatal(err)
	}
	rec, err = sc.next()
	if err != nil {
		t.Fatal(err)
	}
	if !rec.isCtrl || rec.ctrl.Kind != ctrlAck || rec.ctrl.Seq != 2 {
		t.Fatalf("pre-wrap duplicate reply = %+v, want re-ack 2", rec.ctrl)
	}
	if got := st.Stats().Nacks; got != 0 {
		t.Errorf("nacks = %d, want 0 (the duplicate was misread as future)", got)
	}
}

// TestSeqWrapSinkCursor drives the sink's ack/nack bookkeeping across
// the wrap white-box: a post-wrap ack must advance the high-water mark,
// and a post-wrap nack must not be discarded as stale.
func TestSeqWrapSinkCursor(t *testing.T) {
	mk := func(t *testing.T) *ReconnectSink {
		t.Helper()
		r, err := NewReconnectSink(ReconnectConfig{
			Addr:        deadAddr(t),
			Seed:        5,
			BackoffBase: time.Millisecond,
			BackoffMax:  10 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() {
			r.abort()
			_ = r.Close()
		})
		return r
	}

	t.Run("ack advances across wrap", func(t *testing.T) {
		r := mk(t)
		for _, seq := range []uint32{0xFFFFFFFE, 0xFFFFFFFF, 0, 1} {
			if err := r.HandleFrame(FrameFromFloats(SensorECG, seq, make([]float64, 4))); err != nil {
				t.Fatal(err)
			}
		}
		r.onAck(SensorECG, 0xFFFFFFFF)
		r.mu.Lock()
		buffered, acked := len(r.queue), r.acked[SensorECG]
		r.mu.Unlock()
		if buffered != 2 || acked != 0xFFFFFFFF {
			t.Fatalf("after pre-wrap ack: %d buffered, acked %#x; want 2, 0xFFFFFFFF", buffered, acked)
		}
		// Acks for 0 and 1 arrive post-wrap. Raw unsigned "seq > acked"
		// would refuse both, pinning the high-water mark at 0xFFFFFFFF
		// and freezing the retransmit-staleness check below.
		r.onAck(SensorECG, 0)
		r.onAck(SensorECG, 1)
		r.mu.Lock()
		buffered, acked = len(r.queue), r.acked[SensorECG]
		r.mu.Unlock()
		if buffered != 0 || acked != 1 {
			t.Fatalf("after post-wrap acks: %d buffered, acked %#x; want 0, 1", buffered, acked)
		}
	})

	t.Run("nack is not stale across wrap", func(t *testing.T) {
		r := mk(t)
		for _, seq := range []uint32{0, 1} {
			if err := r.HandleFrame(FrameFromFloats(SensorECG, seq, make([]float64, 4))); err != nil {
				t.Fatal(err)
			}
		}
		// The station acked up to 0xFFFFFFFF just before the wrap, both
		// post-wrap frames went out, and now the station nacks seq 1.
		// "1 <= 0xFFFFFFFF" calls that nack stale and ignores it — the
		// window would stall until the retransmit timer rescued it.
		r.mu.Lock()
		r.hasAck[SensorECG] = true
		r.acked[SensorECG] = 0xFFFFFFFF
		r.cursor = 2
		r.mu.Unlock()
		r.onNack(SensorECG, 1)
		r.mu.Lock()
		cursor := r.cursor
		r.mu.Unlock()
		if cursor != 1 {
			t.Fatalf("cursor = %d after post-wrap nack, want 1 (rewound to the nacked frame)", cursor)
		}
	})
}

// TestSeqWrapEndToEnd streams two full windows whose sequence numbers
// cross the u32 wrap, with connections killed mid-stream on both sides
// of the boundary so retransmits, acks, and nacks all operate across the
// wrap. Every window must still be classified exactly once.
func TestSeqWrapEndToEnd(t *testing.T) {
	const start = uint32(0xFFFFFFF4) // wraps after 12 of the 24 frames
	st, memSink, addr := reliableHarness(t, &flagEveryOther{})
	// Walk both cursors to the start with gap records on a throwaway
	// connection; neither sensor has sent a frame, so the first frame at
	// the start sets its origin.
	walk, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := walk.Write(appendGapWalk(appendGapWalk(nil, SensorECG, 0, start), SensorABP, 0, start)); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, 2*time.Second, func() bool {
		return cursorOf(st.Station, SensorECG) == start && cursorOf(st.Station, SensorABP) == start
	}, "both cursors to reach the start")
	_ = walk.Close()

	ecg, err := NewReconnectSink(ReconnectConfig{
		Addr: addr, Seed: 21, BackoffBase: time.Millisecond, BackoffMax: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 24; i++ {
		if err := ecg.HandleFrame(FrameFromFloats(SensorECG, start+uint32(i), make([]float64, 90))); err != nil {
			t.Fatal(err)
		}
		if i == 8 || i == 16 {
			// Kill the live connections just before and just after the
			// wrap: the resume path re-acks and rewinds across it.
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
	abp, err := NewReconnectSink(ReconnectConfig{
		Addr: addr, Seed: 22, BackoffBase: time.Millisecond, BackoffMax: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 24; i++ {
		if err := abp.HandleFrame(FrameFromFloats(SensorABP, start+uint32(i), make([]float64, 90))); err != nil {
			t.Fatal(err)
		}
	}
	if err := ecg.Close(); err != nil {
		t.Fatal(err)
	}
	if err := abp.Close(); err != nil {
		t.Fatal(err)
	}
	alerts := memSink.Alerts()
	if len(alerts) != 2 {
		t.Fatalf("windows classified = %d, want 2 (exactly-once across the wrap)", len(alerts))
	}
	for i, a := range alerts {
		if a.WindowIndex != i {
			t.Errorf("alert %d has window index %d (a window was lost or duplicated at the wrap)", i, a.WindowIndex)
		}
	}
}
