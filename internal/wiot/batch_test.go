package wiot

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"sync"
	"testing"
	"time"
)

// chunkReader hands out at most n bytes per Read, so a scanner's reads
// end mid-record at shifting offsets.
type chunkReader struct {
	data []byte
	n    int
}

func (c *chunkReader) Read(p []byte) (int, error) {
	if len(c.data) == 0 {
		return 0, io.EOF
	}
	k := min(len(p), c.n, len(c.data))
	copy(p, c.data[:k])
	c.data = c.data[k:]
	return k, nil
}

// TestFrameScannerSteadyStateAllocs: streaming N well-formed records
// through one scanner allocates a fixed set-up (scanner, backing array,
// reader, sample scratch), whatever N is — the buffer rewinds to its
// backing array instead of sliding forward and regrowing, and every
// record's samples decode into the one scratch buffer.
func TestFrameScannerSteadyStateAllocs(t *testing.T) {
	_, rec := testFrame(t, 0, 90)
	const setup = 4
	for _, n := range []int{16, 256} {
		stream := bytes.Repeat(rec, n)
		allocs := testing.AllocsPerRun(20, func() {
			sc := newFrameScanner(&chunkReader{data: stream, n: 1000})
			for i := 0; i < n; i++ {
				if _, err := sc.next(); err != nil {
					t.Fatal(err)
				}
			}
		})
		if allocs > setup {
			t.Errorf("N=%d: %.0f allocations, want <= %d (set-up only)", n, allocs, setup)
		}
	}
}

// TestFrameScannerMacMsgAcrossRewind: a v3 record's macMsg aliases the
// scanner's buffer and must hold the record's bytes until the next call
// to next, even when reads end mid-record and the buffer rewinds.
func TestFrameScannerMacMsgAcrossRewind(t *testing.T) {
	sess := ForgeSession(9, SensorECG, MACHMAC, []byte("rewind"))
	var stream []byte
	var want [][]byte
	for seq := uint32(0); seq < 64; seq++ {
		f, _ := testFrame(t, seq, 1+int(seq*7)%90)
		rec, err := sess.SealFrame(&f)
		if err != nil {
			t.Fatal(err)
		}
		stream = append(stream, rec...)
		want = append(want, rec[:len(rec)-authTagSize-crcSize])
	}
	sc := newFrameScanner(&chunkReader{data: stream, n: 1500})
	for i, w := range want {
		rec, err := sc.next()
		if err != nil {
			t.Fatal(err)
		}
		if !rec.authed || !bytes.Equal(rec.macMsg, w) {
			t.Fatalf("record %d: macMsg %x, want %x", i, rec.macMsg, w)
		}
	}
}

// TestFrameScannerReady: ready holds exactly when next can return
// without reading — a complete record with a valid CRC at the head.
func TestFrameScannerReady(t *testing.T) {
	_, rec := testFrame(t, 0, 24)
	corrupt := append([]byte(nil), rec...)
	corrupt[len(corrupt)-1] ^= 0xFF
	for _, tc := range []struct {
		name   string
		stream []byte
		want   bool
	}{
		{"complete", rec, true},
		{"partial", rec[:len(rec)-1], false},
		{"corrupt", corrupt, false},
		{"junk first", append([]byte{0x00}, rec...), false},
	} {
		sc := newFrameScanner(bytes.NewReader(tc.stream))
		if sc.ready() {
			t.Fatalf("%s: ready before any read", tc.name)
		}
		if err := sc.fill(); err != nil {
			t.Fatal(err)
		}
		if got := sc.ready(); got != tc.want {
			t.Errorf("%s: ready = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// rawStationConn dials a plain station and returns the conn and a
// scanner over the station's control stream.
func rawStationConn(t *testing.T, addr string) (net.Conn, *frameScanner) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = conn.Close() })
	if err := conn.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	return conn, newFrameScanner(conn)
}

// frameRecords encodes ECG frames from..to-1 as one v2 byte stream.
func frameRecords(t *testing.T, from, to uint32) []byte {
	t.Helper()
	var out []byte
	for seq := from; seq < to; seq++ {
		_, rec := testFrame(t, seq, 90)
		out = append(out, rec...)
	}
	return out
}

// readCtrlUntil reads control records until stop accepts one, and
// returns every record read, the accepted one last.
func readCtrlUntil(t *testing.T, sc *frameScanner, stop func(ctrlRecord) bool) []ctrlRecord {
	t.Helper()
	var got []ctrlRecord
	for {
		rec, err := sc.next()
		if err != nil {
			t.Fatalf("after %d control records %+v: %v", len(got), got, err)
		}
		if !rec.isCtrl {
			t.Fatalf("station sent a non-control record: %+v", rec)
		}
		got = append(got, rec.ctrl)
		if stop(rec.ctrl) {
			return got
		}
	}
}

// TestCoalescedAcksBurst: a burst of N in-order frames in one write is
// acknowledged by fewer than N cumulative ack records, the last naming
// N−1, while Acks still counts every frame acknowledged.
func TestCoalescedAcksBurst(t *testing.T) {
	const n = 64
	st, _, addr := reliableHarness(t, &flagEveryOther{})
	conn, sc := rawStationConn(t, addr)
	if _, err := conn.Write(frameRecords(t, 0, n)); err != nil {
		t.Fatal(err)
	}
	acks := readCtrlUntil(t, sc, func(c ctrlRecord) bool { return c.Seq == n-1 })
	var prev uint32
	for i, c := range acks {
		if c.Kind != ctrlAck || c.Sensor != SensorECG || (i > 0 && !seqAfter(c.Seq, prev)) {
			t.Fatalf("control record %d = %+v, want increasing ECG acks", i, c)
		}
		prev = c.Seq
	}
	if len(acks) >= n {
		t.Errorf("%d ack records for %d frames, want fewer (one per read batch)", len(acks), n)
	}
	if got := st.Stats().Acks; got != n {
		t.Errorf("Stats().Acks = %d, want %d (frames acknowledged)", got, n)
	}
}

// TestCoalescedAcksThenNack: frames k…k+3 followed by a frame past a gap
// draw the cumulative ack k+3 first and then the nack k+4 — the nack
// flushes the pending ack ahead of itself.
func TestCoalescedAcksThenNack(t *testing.T) {
	const k = 5
	st, _, addr := reliableHarness(t, &flagEveryOther{})
	conn, sc := rawStationConn(t, addr)
	if _, err := conn.Write(frameRecords(t, 0, k)); err != nil {
		t.Fatal(err)
	}
	readCtrlUntil(t, sc, func(c ctrlRecord) bool { return c.Kind == ctrlAck && c.Seq == k-1 })

	burst := frameRecords(t, k, k+4)
	burst = append(burst, frameRecords(t, k+5, k+6)...)
	if _, err := conn.Write(burst); err != nil {
		t.Fatal(err)
	}
	got := readCtrlUntil(t, sc, func(c ctrlRecord) bool { return c.Kind == ctrlNack })
	if len(got) < 2 {
		t.Fatalf("control records %+v, want acks then a nack", got)
	}
	if last := got[len(got)-2]; last.Kind != ctrlAck || last.Seq != k+3 {
		t.Errorf("record before the nack = %+v, want ack %d", last, k+3)
	}
	if nack := got[len(got)-1]; nack.Seq != k+4 {
		t.Errorf("nack = %+v, want seq %d", nack, k+4)
	}
	if s := st.Stats(); s.Acks != k+4 || s.Nacks != 1 {
		t.Errorf("Acks/Nacks = %d/%d, want %d/1", s.Acks, s.Nacks, k+4)
	}
}

// TestCoalescedAcksFlushBeforeBlockingRead: a client that sends N frames
// and then only reads gets ack N−1 well inside the station's idle
// timeout — the pending ack is flushed before the station blocks on its
// next read, never held for more input.
func TestCoalescedAcksFlushBeforeBlockingRead(t *testing.T) {
	const n = 7
	_, _, addr := reliableHarness(t, &flagEveryOther{})
	conn, sc := rawStationConn(t, addr)
	if err := conn.SetReadDeadline(time.Now().Add(2 * time.Second)); err != nil {
		t.Fatal(err)
	}
	for seq := uint32(0); seq < n; seq++ {
		if _, err := conn.Write(frameRecords(t, seq, seq+1)); err != nil {
			t.Fatal(err)
		}
	}
	readCtrlUntil(t, sc, func(c ctrlRecord) bool { return c.Kind == ctrlAck && c.Seq == n-1 })
}

// captureListener records every byte its connections read.
type captureListener struct {
	net.Listener
	mu  sync.Mutex
	got []byte
}

func (l *captureListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return c, err
	}
	return &captureConn{Conn: c, l: l}, nil
}

func (l *captureListener) bytes() []byte {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]byte(nil), l.got...)
}

type captureConn struct {
	net.Conn
	l *captureListener
}

func (c *captureConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.l.mu.Lock()
	c.l.got = append(c.l.got, p[:n]...)
	c.l.mu.Unlock()
	return n, err
}

// TestSinkBatchBytesMatchRecords: batching changes how many writes carry
// the stream, not a byte of it. After the opening control records, the
// bytes the station reads equal the per-frame records concatenated:
// checksummed v2 records, or v3 records sealed under the negotiated
// session (rebuilt here with ForgeSession from the negotiated key).
func TestSinkBatchBytesMatchRecords(t *testing.T) {
	for _, alg := range []MACAlg{0, MACHMAC, MACCMAC} {
		station := newTestStation(t, &flagEveryOther{}, &MemorySink{})
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		capture := &captureListener{Listener: lis}
		var cfg TCPConfig
		// A long retransmit timer: the comparison needs each frame once.
		rc := ReconnectConfig{Addr: lis.Addr().String(), Seed: 5, RetransmitTimeout: time.Minute}
		if alg != 0 {
			cfg.Keys = KeyStoreFromMaster(testMaster, SensorECG)
			ac := ecgAuth()
			ac.Alg = alg
			rc.Auth = &ac
		}
		st, err := ServeTCPConfig(context.Background(), capture, station, cfg)
		if err != nil {
			t.Fatal(err)
		}
		sink, err := NewReconnectSink(rc)
		if err != nil {
			t.Fatal(err)
		}
		frames := make([]Frame, 200)
		for i := range frames {
			frames[i], _ = testFrame(t, uint32(i), 1+i%90)
			if err := sink.HandleFrame(frames[i]); err != nil {
				t.Fatal(err)
			}
		}
		var seal *Session
		if alg != 0 {
			waitUntil(t, 2*time.Second, func() bool {
				sink.mu.Lock()
				defer sink.mu.Unlock()
				return sink.sess != nil
			}, "the sink's session")
			sink.mu.Lock()
			seal = ForgeSession(sink.sess.ID, SensorECG, alg, sink.sess.key)
			sink.mu.Unlock()
		}
		if err := sink.Close(); err != nil {
			t.Fatal(err)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}

		var want []byte
		for i := range frames {
			var rec []byte
			if seal != nil {
				rec, err = seal.SealFrame(&frames[i])
			} else {
				rec, err = frames[i].EncodeChecksummed()
			}
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, rec...)
		}
		got := capture.bytes()
		for len(got) > 0 && got[0] == ctrlMagic {
			info, err := PeekRecord(got)
			if err != nil {
				t.Fatal(err)
			}
			got = got[info.Len:]
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("alg %v: station read %d frame bytes, want the %d bytes of the per-frame records", alg, len(got), len(want))
		}
	}
}

// TestSinkBatchNackRewindRetransmits: a nack that rewinds inside an
// already-sent run of frames re-sends them in one batch and counts each
// re-sent frame in Retransmits.
func TestSinkBatchNackRewindRetransmits(t *testing.T) {
	const n, nackAt = 10, 3
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	stationErr := make(chan error, 1)
	go func() {
		stationErr <- func() error {
			conn, err := lis.Accept()
			if err != nil {
				return err
			}
			defer conn.Close()
			_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
			sc := newFrameScanner(conn)
			// readThrough consumes frames until the one with seq last.
			readThrough := func(last uint32) error {
				for {
					rec, err := sc.next()
					if err != nil {
						return err
					}
					if rec.isFrame && rec.frame.Seq == last {
						return nil
					}
				}
			}
			if err := readThrough(n - 1); err != nil {
				return err
			}
			if _, err := conn.Write(appendCtrl(nil, ctrlRecord{Kind: ctrlNack, Sensor: SensorECG, Seq: nackAt})); err != nil {
				return err
			}
			if err := readThrough(n - 1); err != nil {
				return err
			}
			_, err = conn.Write(appendCtrl(nil, ctrlRecord{Kind: ctrlAck, Sensor: SensorECG, Seq: n - 1}))
			return err
		}()
	}()

	// A long retransmit timer: only the nack may cause re-sends.
	sink, err := NewReconnectSink(ReconnectConfig{Addr: lis.Addr().String(), Seed: 1, RetransmitTimeout: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	for seq := uint32(0); seq < n; seq++ {
		if err := sink.HandleFrame(FrameFromFloats(SensorECG, seq, make([]float64, 90))); err != nil {
			t.Fatal(err)
		}
	}
	if err := <-stationErr; err != nil && !errors.Is(err, io.EOF) {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	if got := sink.Stats().Retransmits; got != n-nackAt {
		t.Errorf("Retransmits = %d, want %d (frames %d…%d re-sent)", got, n-nackAt, nackAt, n-1)
	}
}
