package main

import (
	"encoding/binary"
	"errors"
	"net"
	"sync"

	"github.com/wiot-security/sift/internal/wiot"
)

// stationListener wraps the station's listener (NetConfig.WrapListener):
// it counts the bytes crossing the station's connections, the radio
// budget; follows each inbound stream's record boundaries, so the verdict
// clock learns when every data frame arrived; and, when traced, times the
// station's reads.
type stationListener struct {
	net.Listener
	h   *harness
	clk *verdictClock
	sp  *scope
}

func (l *stationListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return c, err
	}
	sc := &stationConn{Conn: c, l: l}
	if l.sp != nil {
		sc.opened = nowNs()
	}
	return sc, nil
}

type stationConn struct {
	net.Conn
	l      *stationListener
	scan   recordScanner
	opened int64
	closed sync.Once
}

func (c *stationConn) Read(p []byte) (int, error) {
	var start int64
	if c.l.sp != nil {
		start = nowNs()
	}
	n, err := c.Conn.Read(p)
	end := nowNs()
	if c.l.sp != nil {
		c.l.sp.stationRead(start, end, n)
	}
	c.l.h.wireBytes.Add(int64(n))
	c.scan.feed(p[:n], end, c.l.clk)
	return n, err
}

func (c *stationConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.l.h.wireBytes.Add(int64(n))
	return n, err
}

func (c *stationConn) Close() error {
	if c.l.sp != nil {
		c.closed.Do(func() { c.l.sp.connLifetime(nowNs() - c.opened) })
	}
	return c.Conn.Close()
}

// recordScanner follows record boundaries in one inbound byte stream,
// sizing each record from its header with wiot.PeekRecord. It only
// watches: the station parses the same bytes itself.
type recordScanner struct {
	hdr    [8]byte // a frame header: magic, sensor, seq u32, count u16
	held   int     // header bytes held
	skip   int     // bytes left of the current record after its header
	frame  bool    // the current record is a data frame
	broken bool    // lost sync; the honest wire never does this
}

func (s *recordScanner) feed(p []byte, at int64, clk *verdictClock) {
	for len(p) > 0 && !s.broken {
		if s.skip > 0 {
			k := min(s.skip, len(p))
			s.skip -= k
			p = p[k:]
			if s.skip == 0 {
				s.complete(at, clk)
			}
			continue
		}
		k := min(len(s.hdr)-s.held, len(p))
		copy(s.hdr[s.held:], p[:k])
		info, err := wiot.PeekRecord(s.hdr[:s.held+k])
		if errors.Is(err, wiot.ErrShortFrame) {
			s.held += k
			p = p[k:]
			continue
		}
		if err != nil {
			s.broken = true
			return
		}
		used := min(k, info.Len-s.held) // a short record ends inside the header
		s.skip = info.Len - s.held - used
		s.frame = info.Kind != wiot.RecordControl
		s.held += used
		p = p[used:]
		if s.skip == 0 {
			s.complete(at, clk)
		}
	}
}

// complete ends the current record, which arrived at at.
func (s *recordScanner) complete(at int64, clk *verdictClock) {
	if s.frame {
		clk.arrived(wiot.SensorID(s.hdr[1]), binary.LittleEndian.Uint32(s.hdr[2:6]), at)
	}
	s.held, s.frame = 0, false
}
