package wiot

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"github.com/wiot-security/sift/internal/dataset"
	"github.com/wiot-security/sift/internal/fixedpoint"
	"github.com/wiot-security/sift/internal/physio"
)

// waitUntil polls cond until it holds or the deadline passes.
func waitUntil(t *testing.T, d time.Duration, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", msg)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// errDetector fails every classification, driving HandleFrame errors.
type errDetector struct{}

func (errDetector) Classify(dataset.Window) (bool, error) {
	return false, errors.New("detector down")
}

// TestServeTCPWatcherNoLeak is the regression test for the context
// watcher leak: Close before context cancellation must release the
// watcher goroutine, not park it on ctx.Done forever.
func TestServeTCPWatcherNoLeak(t *testing.T) {
	station := newTestStation(t, &flagEveryOther{}, &MemorySink{})
	before := runtime.NumGoroutine()
	for i := 0; i < 8; i++ {
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		// The background context is never cancelled — exactly the case
		// that used to leak one goroutine per ServeTCP/Close cycle.
		st, err := ServeTCP(context.Background(), lis, station)
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}
	waitUntil(t, 2*time.Second, func() bool {
		runtime.Gosched()
		return runtime.NumGoroutine() <= before+1
	}, "watcher goroutines to exit")
}

// TestServeConnSurvivesHandleFrameError pins the bugfix for serveConn
// killing the whole connection on the first HandleFrame error: a
// failing detector must not cost the sensor its link.
func TestServeConnSurvivesHandleFrameError(t *testing.T) {
	station := newTestStation(t, errDetector{}, &MemorySink{})
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	st, err := ServeTCP(context.Background(), lis, station)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	rec, err := physio.Generate(physio.DefaultSubject(), 6, physio.DefaultSampleRate, 9)
	if err != nil {
		t.Fatal(err)
	}
	sink, err := NewReconnectSink(ReconnectConfig{Addr: lis.Addr().String(), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()
	// Interleave both channels on one connection so windows complete (and
	// the detector fails) while later frames are still in flight.
	ecg, _ := NewSensor(SensorECG, rec, 90)
	abp, _ := NewSensor(SensorABP, rec, 90)
	for {
		ef, okE := ecg.Next()
		af, okA := abp.Next()
		if !okE && !okA {
			break
		}
		if okE {
			if err := sink.HandleFrame(ef); err != nil {
				t.Fatalf("connection died after a HandleFrame error: %v", err)
			}
		}
		if okA {
			if err := sink.HandleFrame(af); err != nil {
				t.Fatalf("connection died after a HandleFrame error: %v", err)
			}
		}
	}
	// 6 s at a 3 s window = 2 windows, so 2 distinct classify failures;
	// seeing the second proves the connection outlived the first.
	waitUntil(t, 2*time.Second, func() bool {
		return st.Stats().FrameErrors >= 2
	}, "both windows' classify failures to be recorded")
}

// TestErrorRingBounded pins the bounded error ring: the station keeps
// only the newest MaxErrors errors and counts what it evicts.
func TestErrorRingBounded(t *testing.T) {
	s := &TCPStation{cfg: TCPConfig{MaxErrors: 4}.withDefaults()}
	for i := 0; i < 10; i++ {
		s.recordErr(fmt.Errorf("err %d", i))
	}
	got := s.Errors()
	if len(got) != 4 {
		t.Fatalf("ring kept %d errors, want 4", len(got))
	}
	for i, err := range got {
		if want := fmt.Sprintf("err %d", i+6); err.Error() != want {
			t.Errorf("ring[%d] = %q, want %q (newest-4, oldest first)", i, err, want)
		}
	}
	if d := s.Stats().DroppedErrors; d != 6 {
		t.Errorf("dropped = %d, want 6", d)
	}
}

func testFrame(t *testing.T, seq uint32, n int) (Frame, []byte) {
	t.Helper()
	samples := make([]float64, n)
	for i := range samples {
		samples[i] = float64(i%7) - 3
	}
	f := FrameFromFloats(SensorECG, seq, samples)
	buf, err := f.EncodeChecksummed()
	if err != nil {
		t.Fatal(err)
	}
	return f, buf
}

// TestFrameScannerResyncAfterCorruption: a corrupted checksummed frame
// costs bytes, not the stream — the scanner skips to the next record
// and keeps going.
func TestFrameScannerResyncAfterCorruption(t *testing.T) {
	_, b1 := testFrame(t, 0, 24)
	f2, b2 := testFrame(t, 1, 24)

	var stream []byte
	stream = append(stream, 0x00, 0x13, 0x37) // leading junk
	corrupt := append([]byte(nil), b1...)
	corrupt[5] ^= 0xFF // damage the sequence field; CRC catches it
	stream = append(stream, corrupt...)
	stream = append(stream, b2...)

	sc := newFrameScanner(bytes.NewReader(stream))
	rec, err := sc.next()
	if err != nil {
		t.Fatal(err)
	}
	if !rec.isFrame || rec.frame.Seq != f2.Seq {
		t.Fatalf("scanner surfaced %+v, want checksummed frame seq %d", rec, f2.Seq)
	}
	if _, err := sc.next(); !errors.Is(err, io.EOF) {
		t.Fatalf("after last frame err = %v, want EOF", err)
	}
	if sc.resyncs < 1 {
		t.Errorf("resyncs = %d, want >= 1", sc.resyncs)
	}
	if sc.skipped != int64(3+len(corrupt)) {
		t.Errorf("skipped = %d bytes, want %d", sc.skipped, 3+len(corrupt))
	}
}

// TestFrameScannerMidRecordEOF: a disconnect partway through a frame is
// io.ErrUnexpectedEOF, distinguishable from a graceful close.
func TestFrameScannerMidRecordEOF(t *testing.T) {
	_, b1 := testFrame(t, 0, 24)
	sc := newFrameScanner(bytes.NewReader(b1[:len(b1)/2]))
	if _, err := sc.next(); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("mid-frame EOF surfaced as %v, want io.ErrUnexpectedEOF", err)
	}
}

// TestFrameScannerControlRecords: control traffic parses, and a
// CRC-damaged control record is junk.
func TestFrameScannerControlRecords(t *testing.T) {
	good := appendCtrl(nil, ctrlRecord{Kind: ctrlAck, Sensor: SensorABP, Seq: 41})
	bad := appendCtrl(nil, ctrlRecord{Kind: ctrlNack, Sensor: SensorECG, Seq: 7})
	bad[3] ^= 0x01
	sc := newFrameScanner(bytes.NewReader(append(bad, good...)))
	rec, err := sc.next()
	if err != nil {
		t.Fatal(err)
	}
	if !rec.isCtrl || rec.ctrl.Kind != ctrlAck || rec.ctrl.Sensor != SensorABP || rec.ctrl.Seq != 41 {
		t.Fatalf("ctrl = %+v, want ack ABP 41", rec.ctrl)
	}
	if _, err := sc.next(); !errors.Is(err, io.EOF) {
		t.Fatalf("want EOF, got %v", err)
	}
}

// TestFrameScannerSkipsBareFrameBody: a well-formed 0xA5 frame body has
// no CRC, so the scanner discards it whole as junk, whether it comes
// before or after a CRC-framed record, and the record still surfaces.
func TestFrameScannerSkipsBareFrameBody(t *testing.T) {
	body, err := (&Frame{Sensor: SensorECG, Seq: 0}).Encode()
	if err != nil {
		t.Fatal(err)
	}
	f, rec := testFrame(t, 1, 4)
	for _, tc := range []struct {
		name   string
		stream []byte
	}{
		{"before", append(append([]byte{}, body...), rec...)},
		{"after", append(append([]byte{}, rec...), body...)},
	} {
		sc := newFrameScanner(bytes.NewReader(tc.stream))
		got, err := sc.next()
		if err != nil || !got.isFrame || got.frame.Seq != f.Seq {
			t.Fatalf("%s: scanner surfaced %+v, err=%v; want the CRC-framed seq %d", tc.name, got, err, f.Seq)
		}
		if _, err := sc.next(); !errors.Is(err, io.EOF) {
			t.Fatalf("%s: want EOF, got %v", tc.name, err)
		}
		if sc.skipped != int64(len(body)) || sc.resyncs != 1 {
			t.Errorf("%s: skipped %d bytes in %d runs, want the whole body (%d) in one", tc.name, sc.skipped, sc.resyncs, len(body))
		}
	}
}

// TestPeekRecord pins the header-level classification table.
func TestPeekRecord(t *testing.T) {
	_, v2 := testFrame(t, 0, 4)
	body, _ := (&Frame{Sensor: SensorABP, Seq: 0}).Encode()
	ctrl := appendCtrl(nil, ctrlRecord{Kind: ctrlHello})
	cases := []struct {
		name    string
		buf     []byte
		kind    RecordKind
		length  int
		wantErr error
	}{
		{"empty", nil, 0, 0, ErrShortFrame},
		{"v2", v2, RecordFrameChecksummed, len(v2), nil},
		{"bare frame body", body, 0, 0, ErrBadMagic},
		{"ctrl", ctrl, RecordControl, ctrlRecordSize, nil},
		{"short header", v2[:4], 0, 0, ErrShortFrame},
		{"junk", []byte{0x42, 0, 0, 0, 0, 0, 0, 0}, 0, 0, ErrBadMagic},
		{"bad sensor", []byte{frameMagicV2, 9, 0, 0, 0, 0, 0, 0}, 0, 0, ErrBadSensor},
		{"oversize", []byte{frameMagicV3, 1, 0, 0, 0, 0, 0xFF, 0xFF}, 0, 0, ErrFrameSize},
		{"bad ctrl kind", []byte{ctrlMagic, 0xEE}, 0, 0, ErrBadControl},
	}
	for _, tc := range cases {
		info, err := PeekRecord(tc.buf)
		if tc.wantErr != nil {
			if !errors.Is(err, tc.wantErr) {
				t.Errorf("%s: err = %v, want %v", tc.name, err, tc.wantErr)
			}
			continue
		}
		if err != nil || info.Kind != tc.kind || info.Len != tc.length {
			t.Errorf("%s: info = %+v err = %v, want kind %d len %d", tc.name, info, err, tc.kind, tc.length)
		}
	}
}

// TestTCPStationMidFrameDisconnect: a peer dying mid-frame is recorded
// as an error, and the station stays up for other sensors.
func TestTCPStationMidFrameDisconnect(t *testing.T) {
	station := newTestStation(t, &flagEveryOther{}, &MemorySink{})
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	st, err := ServeTCP(context.Background(), lis, station)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	conn, err := net.Dial("tcp", lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	_, buf := testFrame(t, 0, 64)
	if _, err := conn.Write(buf[:len(buf)/2]); err != nil {
		t.Fatal(err)
	}
	_ = conn.Close()
	waitUntil(t, 2*time.Second, func() bool {
		for _, err := range st.Errors() {
			if errors.Is(err, io.ErrUnexpectedEOF) {
				return true
			}
		}
		return false
	}, "mid-frame disconnect to be recorded")
}

// flakyListener fails its first errs Accept calls, then blocks until
// closed — exercising the accept-loop backoff path end to end.
type flakyListener struct {
	errs int32
	n    int32
	once sync.Once
	stop chan struct{}
}

func newFlakyListener(errs int32) *flakyListener {
	return &flakyListener{errs: errs, stop: make(chan struct{})}
}

func (l *flakyListener) Accept() (net.Conn, error) {
	select {
	case <-l.stop:
		return nil, net.ErrClosed
	default:
	}
	if l.n < l.errs {
		l.n++
		return nil, errors.New("transient accept failure")
	}
	<-l.stop
	return nil, net.ErrClosed
}

func (l *flakyListener) Close() error {
	l.once.Do(func() { close(l.stop) })
	return nil
}

func (l *flakyListener) Addr() net.Addr {
	return &net.TCPAddr{IP: net.IPv4(127, 0, 0, 1)}
}

// TestAcceptLoopBackoff: transient Accept errors are retried with
// backoff, recorded, and never kill the accept loop.
func TestAcceptLoopBackoff(t *testing.T) {
	station := newTestStation(t, &flagEveryOther{}, &MemorySink{})
	lis := newFlakyListener(3)
	st, err := ServeTCPConfig(context.Background(), lis, station, TCPConfig{
		AcceptBackoffBase: time.Millisecond,
		AcceptBackoffMax:  4 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	waitUntil(t, 2*time.Second, func() bool {
		return st.Stats().AcceptErrors == 3
	}, "accept errors to be retried through")
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if n := len(st.Errors()); n != 3 {
		t.Errorf("recorded %d errors, want 3", n)
	}
}

// TestTCPStationConcurrentClose races Close against in-flight frames
// from several sensors; the only requirement is a clean, prompt
// shutdown with no panics or leaks (run under -race).
func TestTCPStationConcurrentClose(t *testing.T) {
	station := newTestStation(t, &flagEveryOther{}, &MemorySink{})
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	st, err := ServeTCP(context.Background(), lis, station)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// One dial attempt: once the station is gone the sink fails
			// terminally and HandleFrame reports it.
			sink, err := NewReconnectSink(ReconnectConfig{
				Addr:         lis.Addr().String(),
				Seed:         int64(w + 1),
				MaxAttempts:  1,
				CloseTimeout: 50 * time.Millisecond,
			})
			if err != nil {
				t.Error(err)
				return
			}
			defer sink.Close()
			for seq := uint32(0); ; seq++ {
				f := FrameFromFloats(SensorECG, seq, make([]float64, 90))
				if sink.HandleFrame(f) != nil {
					return
				}
			}
		}(w)
	}
	time.Sleep(20 * time.Millisecond)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	// Close is idempotent.
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestReconnectSinkWriteDeadline: a station that stops reading trips
// the sink's write deadline instead of blocking it forever; the write
// fails with ErrWriteTimeout and is counted.
func TestReconnectSinkWriteDeadline(t *testing.T) {
	client, server := net.Pipe()
	defer server.Close()
	defer client.Close()
	sink := &ReconnectSink{cfg: ReconnectConfig{WriteTimeout: 30 * time.Millisecond}}
	// net.Pipe is unbuffered and the server never reads, so the first
	// write blocks until the deadline fires.
	_, rec := testFrame(t, 0, 128)
	if err := sink.writeRaw(client, rec); !errors.Is(err, ErrWriteTimeout) {
		t.Fatalf("write to a stalled peer = %v, want ErrWriteTimeout", err)
	}
	if got := sink.Stats().WriteTimeouts; got != 1 {
		t.Errorf("write timeouts = %d, want 1", got)
	}
}

// TestReconnectSinkDialTimeout: a dial that outlives DialTimeout fails
// the sink with ErrDialTimeout. The nanosecond deadline has passed
// before the dial starts, so the timeout fires without a packet sent.
func TestReconnectSinkDialTimeout(t *testing.T) {
	sink, err := NewReconnectSink(ReconnectConfig{
		Addr:         deadAddr(t),
		DialTimeout:  time.Nanosecond,
		MaxAttempts:  1,
		CloseTimeout: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()
	f := FrameFromFloats(SensorECG, 0, make([]float64, 90))
	waitUntil(t, 2*time.Second, func() bool {
		err = sink.HandleFrame(f)
		f.Seq++
		return err != nil
	}, "the sink to fail its dial")
	if !errors.Is(err, ErrDialTimeout) {
		t.Fatalf("HandleFrame after a timed-out dial = %v, want ErrDialTimeout", err)
	}
}

// TestBareFrameBodyNeverReachesStation: a well-formed 0xA5 frame body
// carries no CRC, so it is not a wire record. On a plain station and on
// an auth station alike, its bytes are skipped as junk and no frame
// reaches the base station.
func TestBareFrameBodyNeverReachesStation(t *testing.T) {
	body, err := (&Frame{Sensor: SensorECG, Seq: 0, Samples: make([]fixedpoint.Q, 90)}).Encode()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		cfg  TCPConfig
	}{
		{"plain", TCPConfig{}},
		{"auth", TCPConfig{Keys: KeyStoreFromMaster(testMaster, SensorECG, SensorABP)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			station := newTestStation(t, &flagEveryOther{}, &MemorySink{})
			lis, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			st, err := ServeTCPConfig(context.Background(), lis, station, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			conn, err := net.Dial("tcp", lis.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			if _, err := conn.Write(body); err != nil {
				t.Fatal(err)
			}
			// Closing the connection ends the scan, which flushes the
			// skip counters into the station stats.
			_ = conn.Close()
			waitUntil(t, 2*time.Second, func() bool {
				return st.Stats().SkippedBytes == int64(len(body))
			}, "the frame body to be skipped as junk")
			if got := st.Stats(); got.Resyncs != 1 || got.Acks != 0 || got.Nacks != 0 || got.AuthRejectPlain != 0 {
				t.Errorf("transport stats %+v: want one resync and no frame surfaced", got)
			}
			station.mu.Lock()
			reached := station.cur[SensorECG-1].synced
			station.mu.Unlock()
			if reached || station.Stats() != (StationStats{}) {
				t.Errorf("the frame body reached the station: %+v", station.Stats())
			}
		})
	}
}
