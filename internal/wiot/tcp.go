package wiot

import (
	"context"
	"crypto/hmac"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/wiot-security/sift/internal/obs"
	"github.com/wiot-security/sift/internal/obs/logx"
)

// Observability handles for the TCP transport. Counters registered here
// surface automatically in the /metrics exposition.
var (
	obsTCPConns        = obs.NewCounter("wiot.tcp.conns")
	obsTCPResyncs      = obs.NewCounter("wiot.tcp.resyncs")
	obsTCPSkippedBytes = obs.NewCounter("wiot.tcp.skippedBytes")
	obsTCPFrameErrors  = obs.NewCounter("wiot.tcp.frameErrors")
	obsTCPAcceptErrors = obs.NewCounter("wiot.tcp.acceptErrors")
	obsTCPAcks         = obs.NewCounter("wiot.tcp.acks")
	obsTCPNacks        = obs.NewCounter("wiot.tcp.nacks")
	obsStationConn     = obs.NewTimer("wiot.station.conn")
	obsLeadStalls      = obs.NewCounter("wiot.station.lead_stalls")
	obsLeadTimeouts    = obs.NewCounter("wiot.station.lead_timeouts")

	// Auth-layer counters: every handshake and every rejected attempt is
	// accounted for, so an attack campaign can prove zero forged frames
	// were accepted by summing the reject buckets against its attempts.
	obsAuthHandshakes      = obs.NewCounter("wiot.auth.handshakes")
	obsAuthFrames          = obs.NewCounter("wiot.auth.frames")
	obsAuthRejectHandshake = obs.NewCounter("wiot.auth.reject.handshake")
	obsAuthRejectNoSession = obs.NewCounter("wiot.auth.reject.nosession")
	obsAuthRejectSession   = obs.NewCounter("wiot.auth.reject.session")
	obsAuthRejectMAC       = obs.NewCounter("wiot.auth.reject.mac")
	obsAuthRejectPlain     = obs.NewCounter("wiot.auth.reject.plain")
)

// Transport timeouts, shared by the station and its clients. Dial and
// write timeouts are defaults a config may override; every station read
// waits at most DefaultReadIdleTimeout.
const (
	DefaultDialTimeout     = 5 * time.Second
	DefaultWriteTimeout    = 5 * time.Second
	DefaultReadIdleTimeout = 30 * time.Second
)

// Typed transport errors so callers can distinguish a stalled peer from
// a dead one.
var (
	ErrDialTimeout  = errors.New("wiot: dial timeout")
	ErrWriteTimeout = errors.New("wiot: write timeout")
	// ErrPartnerStalled is recorded (Errors) when a lead stall reaches
	// leadStallTimeout; the error names the stalled sensor and its lead.
	ErrPartnerStalled = errors.New("wiot: partner sensor stalled")
)

// leadBound is the most complete windows one sensor may hold that its
// partner lacks before the station stops reading that sensor's
// connection. Over TCP each sensor streams on a connection of its own,
// and without the bound one runs ahead by as much as its sink buffers
// (Buffer frames, 21 windows by default): more window arrays than a
// device base station could hold.
const leadBound = 4

// leadStallTimeout ends a stall whose partner does not catch up. It sits
// well under the sink's default RetransmitTimeout (150 ms), so a stall
// on honest traffic never draws a retransmit. It is a variable only so
// a test can hold a stall open.
var leadStallTimeout = 50 * time.Millisecond

// TCPConfig tunes the hardened station transport. The zero value gets
// sensible defaults everywhere.
type TCPConfig struct {
	// WriteTimeout bounds station→sensor control writes (acks/nacks) so a
	// sensor that stops reading cannot wedge a handler goroutine.
	WriteTimeout time.Duration
	// MaxErrors caps the retained error ring; older errors are dropped
	// and counted rather than accumulated without bound.
	MaxErrors int
	// AcceptBackoffBase / AcceptBackoffMax bound the exponential delay
	// between retries after a transient Accept error.
	AcceptBackoffBase time.Duration
	AcceptBackoffMax  time.Duration
	// Keys enables authenticated wire v3: every connection must complete
	// the onboarding handshake against a provisioned per-sensor PSK, and
	// every frame must carry the live session's id and a verifying MAC.
	// Unauthenticated v2 frames are rejected outright. Nil leaves the
	// station in v2 mode.
	Keys *KeyStore
}

func (c TCPConfig) withDefaults() TCPConfig {
	if c.WriteTimeout == 0 {
		c.WriteTimeout = DefaultWriteTimeout
	}
	if c.MaxErrors <= 0 {
		c.MaxErrors = 64
	}
	if c.AcceptBackoffBase <= 0 {
		c.AcceptBackoffBase = 5 * time.Millisecond
	}
	if c.AcceptBackoffMax <= 0 {
		c.AcceptBackoffMax = time.Second
	}
	return c
}

// TCPStats is a point-in-time snapshot of a station's transport
// counters.
type TCPStats struct {
	Conns         int64 // connections accepted
	Resyncs       int64 // framing recoveries (contiguous junk runs skipped)
	SkippedBytes  int64 // total bytes discarded while resynchronizing
	FrameErrors   int64 // HandleFrame failures survived
	AcceptErrors  int64 // transient Accept failures backed off from
	Acks          int64 // frames acknowledged: one per in-order frame, one per stale re-ack
	Nacks         int64 // nacks sent on reliable connections
	DroppedErrors int64 // errors evicted from the bounded ring
	LeadStalls    int64 // connections stopped at a lead of leadBound windows
	LeadTimeouts  int64 // stalls that reached leadStallTimeout (ErrPartnerStalled)

	AuthHandshakes      int64 // v3 sessions established
	AuthFrames          int64 // v3 frames accepted (MAC verified)
	AuthRejectHandshake int64 // handshake attempts refused
	AuthRejectNoSession int64 // v3 frames on a conn with no live session
	AuthRejectSession   int64 // sid/sensor mismatches (splice, hijack, forged gap)
	AuthRejectMAC       int64 // MAC verification failures
	AuthRejectPlain     int64 // v2 frames refused while auth is required
}

// TCPStation exposes a base station over a TCP listener: each sensor
// dials in and streams frames using the binary wire format. This is the
// network-transparent deployment of Fig 1 — the base station does not
// care whether samples arrive over BLE or a socket.
//
// The transport is supervised: corrupt frames cost bytes, not
// connections (the scanner resynchronizes to the next magic byte), a
// HandleFrame failure is recorded and survived, idle connections are
// reaped by read deadlines, and Close reliably reclaims the accept
// loop, the context watcher, and every connection handler.
type TCPStation struct {
	Station *BaseStation

	cfg  TCPConfig
	lis  net.Listener
	wg   sync.WaitGroup
	done chan struct{}

	mu      sync.Mutex
	closed  bool
	conns   map[net.Conn]struct{}
	errs    []error // ring: errHead is the logical start once full
	errHead int

	gate leadGate

	conns64   atomic.Int64
	resyncs   atomic.Int64
	skipped   atomic.Int64
	frameErrs atomic.Int64
	acceptErr atomic.Int64
	acks      atomic.Int64
	nacks     atomic.Int64
	dropped   atomic.Int64
	stalls    atomic.Int64
	timeouts  atomic.Int64

	sids           atomic.Uint32 // session-id allocator (v3)
	authHandshakes atomic.Int64
	authFrames     atomic.Int64
	authRejHS      atomic.Int64
	authRejNoSess  atomic.Int64
	authRejSession atomic.Int64
	authRejMAC     atomic.Int64
	authRejPlain   atomic.Int64
}

// ServeTCP starts accepting sensor connections on lis until Close (or
// context cancellation). It returns immediately; frame handling runs on
// per-connection goroutines.
func ServeTCP(ctx context.Context, lis net.Listener, station *BaseStation) (*TCPStation, error) {
	return ServeTCPConfig(ctx, lis, station, TCPConfig{})
}

// ServeTCPConfig is ServeTCP with explicit transport tuning.
func ServeTCPConfig(ctx context.Context, lis net.Listener, station *BaseStation, cfg TCPConfig) (*TCPStation, error) {
	if lis == nil || station == nil {
		return nil, errors.New("wiot: ServeTCP needs a listener and a station")
	}
	s := &TCPStation{
		Station: station,
		cfg:     cfg.withDefaults(),
		lis:     lis,
		done:    make(chan struct{}),
		conns:   make(map[net.Conn]struct{}),
	}
	s.wg.Add(1)
	go s.acceptLoop()
	if ctx != nil {
		// The watcher is tied to station lifetime via done, not to the
		// context alone: Close before cancellation must release it. It
		// stays out of the WaitGroup so the Close it triggers cannot
		// deadlock against wg.Wait.
		go func() {
			select {
			case <-ctx.Done():
				_ = s.Close()
			case <-s.done:
			}
		}()
	}
	return s, nil
}

// acceptLoop accepts connections until the listener dies for good,
// backing off exponentially on transient errors (EMFILE, ECONNABORTED)
// instead of spinning or giving up.
func (s *TCPStation) acceptLoop() {
	defer s.wg.Done()
	backoff := s.cfg.AcceptBackoffBase
	for {
		conn, err := s.lis.Accept()
		if err != nil {
			select {
			case <-s.done:
				return
			default:
			}
			if errors.Is(err, net.ErrClosed) {
				return
			}
			s.acceptErr.Add(1)
			obsTCPAcceptErrors.Add(1)
			s.recordErr(fmt.Errorf("wiot: accept: %w", err))
			select {
			case <-s.done:
				return
			case <-time.After(backoff):
			}
			if backoff *= 2; backoff > s.cfg.AcceptBackoffMax {
				backoff = s.cfg.AcceptBackoffMax
			}
			continue
		}
		backoff = s.cfg.AcceptBackoffBase
		if !s.track(conn) {
			_ = conn.Close()
			return
		}
		s.gate.join()
		s.conns64.Add(1)
		obsTCPConns.Add(1)
		logx.L().Debug("station accepted conn", "remote", conn.RemoteAddr().String())
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer s.untrack(conn)
			s.serveConn(conn)
		}()
	}
}

// track registers a live connection so Close can interrupt its reads;
// it refuses (returning false) once the station is closed.
func (s *TCPStation) track(conn net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	s.conns[conn] = struct{}{}
	return true
}

func (s *TCPStation) untrack(conn net.Conn) {
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
	_ = conn.Close()
}

// deadlineReader arms the connection's read deadline before every read:
// a sensor connection silent for DefaultReadIdleTimeout is torn down, so
// an idle sensor cannot pin its handler goroutine forever.
type deadlineReader struct{ conn net.Conn }

func (d deadlineReader) Read(p []byte) (int, error) {
	if err := d.conn.SetReadDeadline(time.Now().Add(DefaultReadIdleTimeout)); err != nil {
		return 0, err
	}
	return d.conn.Read(p)
}

// serveConn runs one sensor connection to completion. Corrupt bytes are
// scanned past, HandleFrame errors are recorded and survived; only I/O
// failure (including the read deadline) ends the connection.
//
// Acks are cumulative and coalesced per read batch: an in-order frame
// only moves its sensor's pending ack, and the pending acks go out in
// one write just before the scanner would block on a read (or ahead of
// any other control record the connection sends).
//
// If the sensor announces trace context (ctrlTrace), the connection's
// lifetime is recorded as a wiot.station.conn span parented under the
// sink-side connection span, joining the coordinator's trace tree across
// the TCP boundary. The deferred End covers every exit path — including
// the teardown of a mid-run reconnect — so no station-side span is left
// open across reconnects.
//
// A connection that carries one sensor's frames stops reading while
// that sensor holds leadBound windows its partner lacks (boundLead).
func (s *TCPStation) serveConn(conn net.Conn) {
	sc := newFrameScanner(deadlineReader{conn})
	cw := &ctrlWriter{conn: conn}
	var connSpan obs.Span
	defer connSpan.End()
	var cl connLead
	defer s.gate.leave(&cl)
	// sess is this connection's v3 handshake state. It is owned by this
	// goroutine: only serveConn's dispatch mutates it.
	var sess stationSession
	var lastResyncs, lastSkipped int64
	for {
		if !sc.ready() {
			s.flushAcks(cw)
		}
		rec, err := sc.next()
		if dr, ds := sc.resyncs-lastResyncs, sc.skipped-lastSkipped; dr > 0 || ds > 0 {
			lastResyncs, lastSkipped = sc.resyncs, sc.skipped
			s.resyncs.Add(dr)
			s.skipped.Add(ds)
			obsTCPResyncs.Add(dr)
			obsTCPSkippedBytes.Add(ds)
		}
		if err != nil {
			if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) && !s.closing() {
				s.recordErr(fmt.Errorf("wiot: read frame: %w", err))
			}
			return
		}
		switch {
		case rec.isCtrl && rec.ctrl.Kind == ctrlTrace:
			// Adopt the announced context once per connection: parent under
			// the sink's connection span when it recorded one, else directly
			// under the fleet-side parent (the sink may have no recorder
			// attached while the station side does).
			if !connSpan.Running() {
				parent := rec.ctrl.Span
				if parent == 0 {
					parent = rec.ctrl.Parent
				}
				connSpan = obsStationConn.StartChildOf(parent)
			}
		case rec.isCtrl && rec.ctrl.Kind >= ctrlAuthHello:
			s.handleAuth(cw, rec.ctrl, &sess)
		case rec.isCtrl:
			s.handleCtrl(rec.ctrl, &sess)
		case rec.authed:
			s.handleAuthFrame(cw, &cl, rec, &sess)
		case s.cfg.Keys != nil:
			// Auth is required on this station: a v2 frame — however
			// well-formed — carries no proof of origin. No ack, no nack:
			// an unauthenticated peer gets no protocol feedback.
			s.authRejPlain.Add(1)
			obsAuthRejectPlain.Add(1)
		default:
			s.handleReliable(cw, &cl, rec.frame)
		}
	}
}

// ctrlWriter is one connection's station→sensor control stream, owned by
// serveConn: the cumulative ack each sensor is owed, not yet written,
// and the buffer the next write is built in.
type ctrlWriter struct {
	conn    net.Conn
	pending []ackMark // first-seen order; at most one per sensor
	buf     []byte
}

// ackMark is one sensor's pending cumulative ack.
type ackMark struct {
	sensor SensorID
	seq    uint32
}

// ack records that every frame of sensor up to seq has been handled.
// Callers pass increasing seqs per sensor (the base station's sequence
// cursor only moves forward), so the latest mark is the cumulative one.
func (w *ctrlWriter) ack(sensor SensorID, seq uint32) {
	for i := range w.pending {
		if w.pending[i].sensor == sensor {
			w.pending[i].seq = seq
			return
		}
	}
	w.pending = append(w.pending, ackMark{sensor, seq})
}

// take appends the pending acks to the write buffer and clears them.
func (w *ctrlWriter) take() {
	for _, m := range w.pending {
		w.buf = appendCtrl(w.buf, ctrlRecord{Kind: ctrlAck, Sensor: m.sensor, Seq: m.seq})
	}
	w.pending = w.pending[:0]
}

// stationSession is the station half of one connection's v3 handshake.
type stationSession struct {
	state        int // 0 idle, 1 challenged, 2 established
	sensor       SensorID
	alg          MACAlg
	sid          uint32
	mac          *frameMAC // keyed under the session key once established
	psk          []byte
	clientNonce  uint64
	stationNonce uint64
}

// reset tears the session down, keyed MAC state included; subsequent
// frames on the connection are rejected until a fresh handshake
// completes, and then verify under the new session key only.
func (ss *stationSession) reset() { *ss = stationSession{} }

// rejectAuth refuses a handshake attempt with a typed reject record and
// resets any in-progress session state.
func (s *TCPStation) rejectAuth(cw *ctrlWriter, sensor SensorID, code uint32, ss *stationSession) {
	ss.reset()
	s.authRejHS.Add(1)
	obsAuthRejectHandshake.Add(1)
	s.sendCtrl(cw, ctrlRecord{Kind: ctrlAuthReject, Sensor: sensor, Seq: code})
}

// handleAuth runs the station side of the onboarding exchange. Any
// out-of-order or malformed step resets the session: an attacker cannot
// leave a half-open handshake in a state that accepts frames.
func (s *TCPStation) handleAuth(cw *ctrlWriter, c ctrlRecord, ss *stationSession) {
	switch c.Kind {
	case ctrlAuthHello:
		if s.cfg.Keys == nil {
			s.rejectAuth(cw, c.Sensor, authRejectNoKeys, ss)
			return
		}
		psk, ok := s.cfg.Keys.Key(c.Sensor)
		if !ok {
			s.rejectAuth(cw, c.Sensor, authRejectUnknown, ss)
			return
		}
		if !c.Alg.valid() {
			s.rejectAuth(cw, c.Sensor, authRejectProto, ss)
			return
		}
		// A hello always restarts the exchange — including a hello
		// replayed into an established session, which forfeits that
		// session rather than coexisting with it.
		ss.reset()
		ss.state = 1
		ss.sensor = c.Sensor
		ss.alg = c.Alg
		ss.sid = s.sids.Add(1)
		ss.psk = psk
		ss.clientNonce = c.Nonce
		ss.stationNonce = deriveNonce(psk, "wiot-snonce-v3")
		s.sendCtrl(cw, ctrlRecord{
			Kind:   ctrlAuthChallenge,
			Sensor: c.Sensor,
			SID:    ss.sid,
			Nonce:  ss.stationNonce,
		})
	case ctrlAuthResponse:
		if ss.state != 1 || c.Sensor != ss.sensor || c.SID != ss.sid {
			s.rejectAuth(cw, c.Sensor, authRejectProto, ss)
			return
		}
		transcript := authTranscript(ss.sensor, ss.alg, ss.sid, ss.clientNonce, ss.stationNonce)
		want := authHandshakeMAC(ss.psk, "wiot-resp-v3", transcript)
		if !hmac.Equal(c.Mac[:], want[:]) {
			s.rejectAuth(cw, c.Sensor, authRejectBadMAC, ss)
			return
		}
		ss.state = 2
		ss.mac = newFrameMAC(deriveSessionKey(ss.psk, transcript), ss.alg)
		s.authHandshakes.Add(1)
		obsAuthHandshakes.Add(1)
		logx.L().Debug("station established v3 session",
			"sensor", ss.sensor.String(), "sid", ss.sid, "alg", ss.alg.String())
		proof := authHandshakeMAC(ss.psk, "wiot-ok-v3", transcript)
		s.sendCtrl(cw, ctrlRecord{
			Kind:   ctrlAuthOK,
			Sensor: ss.sensor,
			SID:    ss.sid,
			Mac:    proof,
		})
	default:
		// ctrlAuthChallenge / ctrlAuthOK / ctrlAuthReject are
		// station→sensor records; a client sending one is off-protocol.
		s.rejectAuth(cw, c.Sensor, authRejectProto, ss)
	}
}

// handleAuthFrame verifies a v3 frame against the connection's session
// before it reaches the go-back-N path. Authentication success does not
// grant blanket acceptance: every frame must name the live session and
// carry a MAC over its exact bytes (sequence number included), so a
// replayed, spliced, or cross-sensor frame dies here even on an
// authenticated connection. Rejected frames get no ack and no nack.
func (s *TCPStation) handleAuthFrame(cw *ctrlWriter, cl *connLead, rec wireRecord, ss *stationSession) {
	switch {
	case ss.state != 2:
		s.authRejNoSess.Add(1)
		obsAuthRejectNoSession.Add(1)
	case rec.sid != ss.sid || rec.frame.Sensor != ss.sensor:
		s.authRejSession.Add(1)
		obsAuthRejectSession.Add(1)
	case ss.mac.tag(rec.macMsg) != rec.mac:
		s.authRejMAC.Add(1)
		obsAuthRejectMAC.Add(1)
	default:
		s.authFrames.Add(1)
		obsAuthFrames.Add(1)
		s.handleReliable(cw, cl, rec.frame)
	}
}

// handleCtrl processes sensor→station control traffic. Only a gap
// declaration changes station state; a hello is a no-op.
func (s *TCPStation) handleCtrl(c ctrlRecord, ss *stationSession) {
	switch c.Kind {
	case ctrlGap:
		// The sender dropped everything below c.Seq; the base station
		// stops waiting for it, and conceals or resyncs when c.Seq
		// arrives. When auth is required, only an established session may
		// declare gaps, and only for its own sensor — a forged gap record
		// would otherwise skip the cursor past frames the real sensor
		// still holds.
		if s.cfg.Keys != nil && (ss.state != 2 || c.Sensor != ss.sensor) {
			s.authRejSession.Add(1)
			obsAuthRejectSession.Add(1)
			return
		}
		s.Station.declareGap(c.Sensor, c.Seq)
	}
}

// handleReliable runs the go-back-N receive side for one checksummed
// frame: the base station admits it against its sensor's cursor. An
// in-order frame is handled and its sensor's cumulative ack moved
// (written with the rest of the read batch), a stale one re-acked, and
// one past the cursor nacked with the sequence still needed. Acks counts
// frames acknowledged. Acks and nacks are counted before they are
// written, so a sensor that has seen one never reads a smaller count.
// An in-order frame then answers to the lead bound (boundLead).
func (s *TCPStation) handleReliable(cw *ctrlWriter, cl *connLead, f Frame) {
	verdict, next, err := s.Station.admit(f)
	s.gate.carry(cl, f.Sensor)
	switch verdict {
	case admitted:
		if err != nil {
			// The frame is consumed either way — retransmitting it would
			// fail identically, so ack and record rather than poison the
			// stream.
			s.frameErrs.Add(1)
			obsTCPFrameErrors.Add(1)
			s.recordErr(err)
		}
		s.acks.Add(1)
		obsTCPAcks.Add(1)
		cw.ack(f.Sensor, f.Seq)
		s.boundLead(cw, cl, f.Sensor)
	case admitStale:
		// Duplicate from a retransmit overlap; re-ack so the sender's
		// window advances.
		s.acks.Add(1)
		obsTCPAcks.Add(1)
		s.sendCtrl(cw, ctrlRecord{Kind: ctrlAck, Sensor: f.Sensor, Seq: next - 1})
	default:
		s.nacks.Add(1)
		obsTCPNacks.Add(1)
		s.sendCtrl(cw, ctrlRecord{Kind: ctrlNack, Sensor: f.Sensor, Seq: next})
	}
}

// leadGate is what a station's connection handlers share to bound the
// lead between the two sensors: which sensors the live connections
// carry, and per sensor the channel that connections stalled on its lead
// wait on.
type leadGate struct {
	mu      sync.Mutex
	idle    int              // live connections that have delivered no frame yet
	senders [2]int           // live connections that have delivered a frame of sensor i+1
	drained [2]chan struct{} // closed once sensor i+1's lead drains to 0 or no live connection may carry its partner; nil while no connection waits
	armed   [2]atomic.Bool   // drained[i] != nil, read without mu after every admitted frame
}

// connLead is one connection's part in the lead bound, owned by its
// handler.
type connLead struct {
	carried [2]bool       // the connection has delivered a frame of sensor i+1
	free    chan struct{} // a stall timed out: read without stalling until this closes
}

// join counts a new connection, which has delivered no frame yet.
func (g *leadGate) join() {
	g.mu.Lock()
	g.idle++
	g.mu.Unlock()
}

// carry records that cl's connection delivered a frame of sensor.
func (g *leadGate) carry(cl *connLead, sensor SensorID) {
	if i := sensor - 1; !cl.carried[i] {
		g.mu.Lock()
		defer g.mu.Unlock()
		if !cl.carried[1-i] {
			g.idle--
		}
		cl.carried[i] = true
		g.senders[i]++
		g.settleLocked()
	}
}

// leave retires a closing connection.
func (g *leadGate) leave(cl *connLead) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if cl.carried == [2]bool{} {
		g.idle--
	}
	for i, carried := range cl.carried {
		if carried {
			g.senders[i]--
		}
	}
	g.settleLocked()
}

// partnerLocked reports whether a live connection may carry the partner
// of sensor i+1: one that has delivered the partner's frames, or one
// that has delivered none yet, such as a sensor still in its handshake.
// Caller holds mu.
func (g *leadGate) partnerLocked(i int) bool { return g.idle+g.senders[1-i] > 0 }

// settleLocked releases the connections stalled on a lead whose partner
// no live connection may carry: they would wait for frames nobody is
// sending. Caller holds mu.
func (g *leadGate) settleLocked() {
	for i := range g.drained {
		if !g.partnerLocked(i) {
			g.releaseLocked(i)
		}
	}
}

// arm returns the channel a connection stalled on sensor's lead waits
// on, or nil when no live connection may carry the partner: a lone
// sensor never stalls.
func (g *leadGate) arm(sensor SensorID) chan struct{} {
	i := int(sensor - 1)
	g.mu.Lock()
	defer g.mu.Unlock()
	if !g.partnerLocked(i) {
		return nil
	}
	if g.drained[i] == nil {
		g.drained[i] = make(chan struct{})
		g.armed[i].Store(true)
	}
	return g.drained[i]
}

// release wakes every connection waiting on sensor's lead.
func (g *leadGate) release(sensor SensorID) {
	g.mu.Lock()
	g.releaseLocked(int(sensor - 1))
	g.mu.Unlock()
}

func (g *leadGate) releaseLocked(i int) {
	if ch := g.drained[i]; ch != nil {
		close(ch)
		g.drained[i] = nil
		g.armed[i].Store(false)
	}
}

// boundLead runs after each in-order frame of sensor. A frame that drains
// its partner's lead to 0 wakes the partner's stalled connections. A
// frame that gives sensor a lead of leadBound windows stalls its own
// connection, once its pending acks are written, until the partner has
// drained the lead to 0, the station closes, or leadStallTimeout passes;
// TCP then pushes back on the sender, and no frame is dropped. Only a
// connection that carries sensor alone stalls, since one that has
// carried both sensors would wait on itself, and only while another
// live connection may carry the partner (partnerLocked). A stall that
// times out is recorded as ErrPartnerStalled, and the connection reads
// freely until its partner catches up.
func (s *TCPStation) boundLead(cw *ctrlWriter, cl *connLead, sensor SensorID) {
	partner := SensorECG + SensorABP - sensor
	if s.gate.armed[partner-1].Load() && s.Station.lead(partner) == 0 {
		s.gate.release(partner)
	}
	if cl.free != nil {
		select {
		case <-cl.free:
			cl.free = nil
		default:
			return
		}
	}
	if cl.carried[partner-1] || s.Station.lead(sensor) < leadBound {
		return
	}
	drained := s.gate.arm(sensor)
	if drained == nil {
		return
	}
	// The partner may have drained the lead before the gate was armed,
	// and then it did not look.
	if s.Station.lead(sensor) == 0 {
		s.gate.release(sensor)
		return
	}
	s.flushAcks(cw)
	s.stalls.Add(1)
	obsLeadStalls.Add(1)
	timer := time.NewTimer(leadStallTimeout)
	defer timer.Stop()
	select {
	case <-drained:
	case <-s.done:
	case <-timer.C:
		s.timeouts.Add(1)
		obsLeadTimeouts.Add(1)
		s.recordErr(fmt.Errorf("%w: sensor %v held a lead of %d windows for %v",
			ErrPartnerStalled, sensor, s.Station.lead(sensor), leadStallTimeout))
		cl.free = drained
	}
}

// flushAcks writes the connection's pending acks, if any, in one write.
func (s *TCPStation) flushAcks(cw *ctrlWriter) {
	if len(cw.pending) > 0 {
		cw.take()
		s.writeCtrl(cw)
	}
}

// sendCtrl writes one control record back to the sensor, behind the
// connection's pending acks in the same write, so the sensor sees acks,
// nacks and handshake replies in the order the station decided them.
func (s *TCPStation) sendCtrl(cw *ctrlWriter, c ctrlRecord) {
	cw.take()
	cw.buf = appendCtrl(cw.buf, c)
	s.writeCtrl(cw)
}

// writeCtrl writes the connection's control buffer under the write
// deadline. A failed ack is recoverable — the sender retransmits and we
// re-ack — so errors are recorded, not escalated.
func (s *TCPStation) writeCtrl(cw *ctrlWriter) {
	buf := cw.buf
	cw.buf = buf[:0]
	if s.cfg.WriteTimeout > 0 {
		if err := cw.conn.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout)); err != nil {
			return
		}
	}
	if _, err := cw.conn.Write(buf); err != nil && !s.closing() {
		s.recordErr(fmt.Errorf("wiot: send ctrl: %w", err))
	}
}

func (s *TCPStation) closing() bool {
	select {
	case <-s.done:
		return true
	default:
		return false
	}
}

// recordErr appends to the bounded error ring, evicting (and counting)
// the oldest entry once MaxErrors is reached, so a hostile or flaky
// sensor cannot grow station memory without bound.
func (s *TCPStation) recordErr(err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.errs) < s.cfg.MaxErrors {
		s.errs = append(s.errs, err)
		return
	}
	s.errs[s.errHead] = err
	s.errHead = (s.errHead + 1) % len(s.errs)
	s.dropped.Add(1)
}

// Errors returns the retained (most recent) per-connection errors,
// oldest first. Use Stats().DroppedErrors for how many older ones were
// evicted from the ring.
func (s *TCPStation) Errors() []error {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]error, 0, len(s.errs))
	out = append(out, s.errs[s.errHead:]...)
	out = append(out, s.errs[:s.errHead]...)
	return out
}

// Stats snapshots the transport counters.
func (s *TCPStation) Stats() TCPStats {
	return TCPStats{
		Conns:         s.conns64.Load(),
		Resyncs:       s.resyncs.Load(),
		SkippedBytes:  s.skipped.Load(),
		FrameErrors:   s.frameErrs.Load(),
		AcceptErrors:  s.acceptErr.Load(),
		Acks:          s.acks.Load(),
		Nacks:         s.nacks.Load(),
		DroppedErrors: s.dropped.Load(),
		LeadStalls:    s.stalls.Load(),
		LeadTimeouts:  s.timeouts.Load(),

		AuthHandshakes:      s.authHandshakes.Load(),
		AuthFrames:          s.authFrames.Load(),
		AuthRejectHandshake: s.authRejHS.Load(),
		AuthRejectNoSession: s.authRejNoSess.Load(),
		AuthRejectSession:   s.authRejSession.Load(),
		AuthRejectMAC:       s.authRejMAC.Load(),
		AuthRejectPlain:     s.authRejPlain.Load(),
	}
}

// Close stops the listener, interrupts every live connection, and waits
// for all transport goroutines (accept loop, handlers, context watcher)
// to drain. It is idempotent.
func (s *TCPStation) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	close(s.done)
	err := s.lis.Close()
	for conn := range s.conns {
		_ = conn.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
	return err
}

func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}
