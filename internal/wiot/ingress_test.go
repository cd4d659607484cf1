package wiot

import (
	"bytes"
	"context"
	"io"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"
)

// scriptConn is a station-side net.Conn that plays a fixed byte stream
// one byte per read, so at most one record completes between reads, and
// keeps what the station writes back. Every read first checks the base
// station's cursors against the previous read's: one record may only
// move them forward in serial order.
type scriptConn struct {
	t       *testing.T
	station *BaseStation
	src     []byte
	out     []byte
	last    [2]uint32
	eof     chan struct{} // closed once the stream is exhausted
}

func (c *scriptConn) Read(p []byte) (int, error) {
	for i, id := range []SensorID{SensorECG, SensorABP} {
		now := cursorOf(c.station, id)
		if seqBefore(now, c.last[i]) {
			c.t.Errorf("%v cursor moved back from %#x to %#x", id, c.last[i], now)
		}
		c.last[i] = now
	}
	if len(c.src) == 0 {
		if c.eof != nil {
			close(c.eof)
			c.eof = nil
		}
		return 0, io.EOF
	}
	if len(p) == 0 {
		return 0, nil
	}
	p[0], c.src = c.src[0], c.src[1:]
	return 1, nil
}

func (c *scriptConn) Write(p []byte) (int, error) {
	c.out = append(c.out, p...)
	return len(p), nil
}

func (c *scriptConn) Close() error                     { return nil }
func (c *scriptConn) LocalAddr() net.Addr              { return &net.TCPAddr{IP: net.IPv4(127, 0, 0, 1)} }
func (c *scriptConn) RemoteAddr() net.Addr             { return &net.TCPAddr{IP: net.IPv4(127, 0, 0, 1)} }
func (c *scriptConn) SetDeadline(time.Time) error      { return nil }
func (c *scriptConn) SetReadDeadline(time.Time) error  { return nil }
func (c *scriptConn) SetWriteDeadline(time.Time) error { return nil }

// scriptListener hands the station one connection, then blocks until
// closed.
type scriptListener struct {
	conns chan net.Conn
	done  chan struct{}
	once  sync.Once
}

func (l *scriptListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *scriptListener) Close() error {
	l.once.Do(func() { close(l.done) })
	return nil
}

func (l *scriptListener) Addr() net.Addr { return &net.TCPAddr{IP: net.IPv4(127, 0, 0, 1)} }

// stationGoroutines counts the goroutines running TCPStation code (its
// accept loop, connection handlers and context watcher), so goroutines
// of the test runner or the fuzz engine cannot read as a leak.
func stationGoroutines() int {
	// runtime.Stack truncates to the buffer, so grow it until the dump
	// fits: a cut dump would drop goroutines from the count.
	buf := make([]byte, 1<<16)
	for {
		k := runtime.Stack(buf, true)
		if k < len(buf) {
			buf = buf[:k]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	n := 0
	for _, g := range bytes.Split(buf, []byte("\n\n")) {
		if bytes.Contains(g, []byte("wiot.(*TCPStation)")) || bytes.Contains(g, []byte("wiot.ServeTCPConfig")) {
			n++
		}
	}
	return n
}

// FuzzStationIngress feeds fuzzed bytes through one connection of a
// TCPStation — scanner, auth, control and go-back-N admission into the
// base station, as a sensor's socket would. Nothing may panic, no frame
// may fail (a reliable link resyncs rather than refusing a jump; the
// detector, flagEveryOther, fails a frame whose window carries a range
// that is not dsp.MinMax of its samples), the
// cursors move only forward in serial order, each sensor's partial and
// queued windows together stay within one window plus a frame's
// concealment and samples per admitted frame, the station writes back
// only control records, and Close leaves no goroutine behind. With keyed
// set the station requires auth; a static byte stream cannot answer its
// challenge, so no frame may be accepted or get an ack or nack.
func FuzzStationIngress(f *testing.F) {
	hello := appendCtrl(nil, ctrlRecord{Kind: ctrlHello})
	frames := func(buf []byte, from, to uint32) []byte {
		for seq := from; seq != to; seq++ {
			for _, id := range []SensorID{SensorECG, SensorABP} {
				f := FrameFromFloats(id, seq, make([]float64, 90))
				rec, err := f.EncodeChecksummed()
				if err != nil {
					panic(err)
				}
				buf = append(buf, rec...)
			}
		}
		return buf
	}
	f.Add(false, []byte{})
	f.Add(false, frames(append([]byte(nil), hello...), 0, 14))
	// A long declared gap and the resync at its target.
	long := frames(append([]byte(nil), hello...), 0, 2)
	long = append(long, EncodeGapRecord(SensorECG, 300)...)
	long = append(long, EncodeGapRecord(SensorABP, 300)...)
	f.Add(false, frames(long, 300, 314))
	// Varied samples and a short declared ECG gap: window ranges come
	// from frame samples and from the hold that conceals the gap.
	varied := append([]byte(nil), hello...)
	for seq := uint32(0); seq < 18; seq++ {
		for _, id := range []SensorID{SensorECG, SensorABP} {
			if id == SensorECG && seq == 7 {
				varied = append(varied, EncodeGapRecord(SensorECG, 8)...)
				continue
			}
			samples := make([]float64, 70)
			for i := range samples {
				samples[i] = float64((int(seq)*31+i*7)%23) - 11
			}
			fr := FrameFromFloats(id, seq, samples)
			rec, err := fr.EncodeChecksummed()
			if err != nil {
				f.Fatal(err)
			}
			varied = append(varied, rec...)
		}
	}
	f.Add(false, varied)
	// Both cursors walked to the wrap, a duplicate, and junk.
	wrap := appendGapWalk(appendGapWalk(append([]byte(nil), hello...), SensorECG, 0, 0xFFFFFFF8), SensorABP, 0, 0xFFFFFFF8)
	wrap = frames(wrap, 0xFFFFFFF8, 4)
	wrap = frames(wrap, 2, 3)
	f.Add(false, append(wrap, 0xA7, 0x01, 0x13, 0x37))
	// Auth traffic: a hello, a forged response, and frames sealed under a
	// guessed session.
	fr := FrameFromFloats(SensorECG, 0, make([]float64, 90))
	v3, err := ForgeSession(1, SensorECG, MACHMAC, []byte("guess")).SealFrame(&fr)
	if err != nil {
		f.Fatal(err)
	}
	auth := appendCtrl(append([]byte(nil), hello...), ctrlRecord{Kind: ctrlAuthHello, Sensor: SensorECG, Alg: MACHMAC, Nonce: 7})
	auth = appendCtrl(auth, ctrlRecord{Kind: ctrlAuthResponse, Sensor: SensorECG, SID: 1})
	auth = append(append(auth, v3...), EncodeGapRecord(SensorECG, 50)...)
	f.Add(true, auth)
	f.Add(true, frames(append([]byte(nil), hello...), 0, 4))

	f.Fuzz(func(t *testing.T, keyed bool, data []byte) {
		if len(data) > 1<<14 {
			return
		}
		station := newTestStation(t, &flagEveryOther{}, &MemorySink{})
		var cfg TCPConfig
		if keyed {
			cfg.Keys = KeyStoreFromMaster(testMaster, SensorECG, SensorABP)
		}
		conn := &scriptConn{t: t, station: station, src: data, eof: make(chan struct{})}
		eof := conn.eof
		lis := &scriptListener{conns: make(chan net.Conn, 1), done: make(chan struct{})}
		lis.conns <- conn
		goroutines := stationGoroutines()
		st, err := ServeTCPConfig(context.Background(), lis, station, cfg)
		if err != nil {
			t.Fatal(err)
		}
		// The scanner reads EOF only once every record before it has been
		// handled and the pending acks written.
		<-eof
		_ = st.Close()
		// Close waits for the accept loop and the connection's handler; the
		// context watcher exits on its own once Close has closed done.
		for deadline := time.Now().Add(2 * time.Second); stationGoroutines() > goroutines; {
			if time.Now().After(deadline) {
				t.Fatalf("%d station goroutines after Close, %d before ServeTCPConfig", stationGoroutines(), goroutines)
			}
			time.Sleep(time.Millisecond)
		}

		ts, ss := st.Stats(), station.Stats()
		if ts.FrameErrors != 0 {
			t.Errorf("%d frames refused: %v", ts.FrameErrors, st.Errors())
		}
		bound := station.wlen + int(ts.Acks)*(concealWindows*station.wlen+MaxFrameSamples)
		if ecg, abp := buffered(station, SensorECG), buffered(station, SensorABP); ecg > bound || abp > bound {
			t.Errorf("buffers hold %d ECG / %d ABP samples after %d acks, bound %d", ecg, abp, ts.Acks, bound)
		}
		if keyed && (ts.AuthFrames != 0 || ts.Acks != 0 || ts.Nacks != 0 || ss != (StationStats{})) {
			t.Errorf("a frame got through without a valid MAC: transport %+v, station %+v", ts, ss)
		}
		sc := newFrameScanner(&chunkReader{data: conn.out, n: len(conn.out) + 1})
		for {
			rec, err := sc.next()
			if err != nil {
				break
			}
			if !rec.isCtrl {
				t.Fatalf("station wrote a non-control record: %+v", rec)
			}
			if keyed && (rec.ctrl.Kind == ctrlAck || rec.ctrl.Kind == ctrlNack) {
				t.Errorf("keyed station sent %+v to an unauthenticated peer", rec.ctrl)
			}
		}
		if sc.skipped != 0 {
			t.Errorf("station wrote %d bytes that are not records", sc.skipped)
		}
	})
}
