package wiot

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/wiot-security/sift/internal/obs"
	"github.com/wiot-security/sift/internal/obs/logx"
	"github.com/wiot-security/sift/internal/obs/trace"
)

// Observability handles for the reconnecting sensor client.
var (
	obsSinkConnects      = obs.NewCounter("wiot.sink.connects")
	obsSinkDialRetries   = obs.NewCounter("wiot.sink.dialRetries")
	obsSinkRetransmits   = obs.NewCounter("wiot.sink.retransmits")
	obsSinkFramesDropped = obs.NewCounter("wiot.sink.framesDropped")
	obsSinkWriteTimeouts = obs.NewCounter("wiot.sink.writeTimeouts")
	obsSinkGapsDeclared  = obs.NewCounter("wiot.sink.gapsDeclared")
	obsSinkHandshakes    = obs.NewCounter("wiot.sink.handshakes")
)

// Reconnect-layer errors.
var (
	ErrSinkClosed = errors.New("wiot: sink closed")
	ErrBufferFull = errors.New("wiot: sink buffer full")

	// errStopping is the internal signal that a dial loop was interrupted
	// by Close rather than by exhausting its attempts.
	errStopping = errors.New("wiot: sink stopping")
)

// ReconnectConfig tunes a ReconnectSink. Only Addr is required.
type ReconnectConfig struct {
	Addr         string
	DialTimeout  time.Duration
	WriteTimeout time.Duration

	// BackoffBase/BackoffMax bound the exponential redial delay; jitter
	// is drawn from a rand seeded with Seed, so a fleet of sensors with
	// distinct seeds staggers deterministically.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	Seed        int64
	// MaxAttempts caps consecutive failed dials before the sink fails
	// terminally; 0 = retry forever.
	MaxAttempts int

	// Buffer caps in-flight (unacknowledged) frames. At capacity
	// HandleFrame waits up to EnqueueTimeout for an ack to free a slot,
	// so the producer absorbs the backpressure.
	Buffer         int
	EnqueueTimeout time.Duration

	// CloseTimeout bounds how long Close waits for the station to
	// acknowledge everything still buffered.
	CloseTimeout time.Duration

	// RetransmitTimeout is the go-back-N timer: when frames sit
	// unacknowledged this long with nothing left to send, the sink
	// rewinds and retransmits them all. It covers the losses a nack
	// cannot — a corrupted final frame, or a receiver stalled on a
	// phantom record — at the cost of duplicates the station drops as
	// stale.
	RetransmitTimeout time.Duration

	// TraceParent, when nonzero, is the fleet-side span ID every
	// connection of this sink parents under: each (re)connect opens a
	// wiot.sink.conn region as its child and announces both IDs to the
	// station in a ctrlTrace record, so station-side spans join the same
	// trace tree across the TCP boundary. Zero disables propagation (no
	// extra record, no extra work on the wire).
	TraceParent uint64

	// Auth, when set, upgrades the sink to wire v3: every (re)connection
	// runs the onboarding handshake before any frame bytes, and buffered
	// frames are sealed under the live session at transmit time — so a
	// frame buffered before a reconnect is re-MAC'd under the new
	// session's id and key, preserving go-back-N retransmit semantics
	// across session changes. A rejected handshake (wrong key, unknown
	// sensor) fails the sink terminally; an I/O failure mid-handshake is
	// an ordinary reconnect.
	Auth *AuthConfig
}

func (c ReconnectConfig) withDefaults() ReconnectConfig {
	if c.DialTimeout == 0 {
		c.DialTimeout = DefaultDialTimeout
	}
	if c.WriteTimeout == 0 {
		c.WriteTimeout = DefaultWriteTimeout
	}
	if c.BackoffBase <= 0 {
		c.BackoffBase = 10 * time.Millisecond
	}
	if c.BackoffMax <= 0 {
		c.BackoffMax = 2 * time.Second
	}
	if c.Buffer <= 0 {
		c.Buffer = 256
	}
	if c.EnqueueTimeout <= 0 {
		c.EnqueueTimeout = 5 * time.Second
	}
	if c.CloseTimeout <= 0 {
		c.CloseTimeout = 10 * time.Second
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.RetransmitTimeout <= 0 {
		c.RetransmitTimeout = 150 * time.Millisecond
	}
	return c
}

// ReconnectStats snapshots the sink's transport counters.
type ReconnectStats struct {
	Connects      int64 // successful dials
	DialRetries   int64 // failed dials backed off from
	Retransmits   int64 // frames written more than once
	FramesDropped int64 // frames refused after EnqueueTimeout at capacity
	WriteTimeouts int64 // writes cut short by the deadline
	GapsDeclared  int64 // gap announcements sent for nacked frames the sink no longer holds
	Handshakes    int64 // v3 sessions established (one per authenticated connect)
}

// sinkEntry is one buffered frame, pre-encoded so retransmits cost no
// CPU on the hot path. Its payload goes back to the sink's free list
// once an ack covers the frame.
type sinkEntry struct {
	sensor  SensorID
	seq     uint32
	payload []byte
	sent    bool
}

// ReconnectSink is a FrameSink that keeps a sensor connected to a TCP
// station across failures: it dials with a timeout, redials with
// exponential backoff and deterministic seeded jitter, buffers a bounded
// window of unacknowledged frames, and replays them after corruption
// (station nack) or reconnect. Frames travel as checksummed v2 records,
// so the station can reject corrupted bytes instead of ingesting them.
type ReconnectSink struct {
	cfg ReconnectConfig

	mu   sync.Mutex
	cond *sync.Cond

	queue   []sinkEntry
	free    [][]byte // released payload buffers; with queue's, never more than cfg.Buffer
	cursor  int      // queue index of the next entry to transmit
	acked   map[SensorID]uint32
	hasAck  map[SensorID]bool
	nextSeq map[SensorID]uint32
	gapPend map[SensorID]bool
	sess    *Session // live v3 session, nil when unauthenticated

	conn        net.Conn
	connGen     uint64
	dead        bool // current conn failed; writer should cycle
	closing     bool
	deadlineHit bool
	failedErr   error // terminal dial failure

	abortOnce sync.Once
	abortCh   chan struct{}
	wg        sync.WaitGroup

	connects      atomic.Int64
	dialRetries   atomic.Int64
	retransmits   atomic.Int64
	framesDropped atomic.Int64
	writeTimeouts atomic.Int64
	gapsDeclared  atomic.Int64
	handshakes    atomic.Int64
}

// NewReconnectSink starts the sink's connection supervisor. The sink is
// usable immediately; frames buffer until the first dial succeeds.
func NewReconnectSink(cfg ReconnectConfig) (*ReconnectSink, error) {
	if cfg.Addr == "" {
		return nil, errors.New("wiot: ReconnectSink needs an address")
	}
	r := newReconnectSink(cfg)
	r.wg.Add(1)
	go r.run()
	return r, nil
}

// newReconnectSink builds a sink whose supervisor has not started.
func newReconnectSink(cfg ReconnectConfig) *ReconnectSink {
	r := &ReconnectSink{
		cfg:     cfg.withDefaults(),
		acked:   make(map[SensorID]uint32),
		hasAck:  make(map[SensorID]bool),
		nextSeq: make(map[SensorID]uint32),
		gapPend: make(map[SensorID]bool),
		abortCh: make(chan struct{}),
	}
	r.cond = sync.NewCond(&r.mu)
	return r
}

// computeBackoff returns the redial delay for the given zero-based
// attempt: exponential from base, capped at max, with the upper half
// jittered from the seeded stream.
func computeBackoff(base, max time.Duration, attempt int, rng *rand.Rand) time.Duration {
	d := base
	for i := 0; i < attempt && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	return d/2 + time.Duration(rng.Int63n(int64(d/2)+1))
}

// HandleFrame implements FrameSink: the frame is encoded once, into a
// payload buffer an ack released when there is one, and buffered for
// (re)transmission. At capacity it waits up to EnqueueTimeout for an
// ack to free a slot, then refuses the frame with ErrBufferFull and
// keeps no record of it: a caller that streams on leaves a hole the
// station nacks, and the nack declares the gap (onNack).
func (r *ReconnectSink) HandleFrame(f Frame) error {
	if err := f.check(); err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closing {
		return ErrSinkClosed
	}
	if r.failedErr != nil {
		return r.failedErr
	}
	if len(r.queue) >= r.cfg.Buffer {
		deadline := time.Now().Add(r.cfg.EnqueueTimeout)
		timer := time.AfterFunc(r.cfg.EnqueueTimeout, func() {
			r.mu.Lock()
			r.cond.Broadcast()
			r.mu.Unlock()
		})
		defer timer.Stop()
		for len(r.queue) >= r.cfg.Buffer {
			if r.closing {
				return ErrSinkClosed
			}
			if r.failedErr != nil {
				return r.failedErr
			}
			if !time.Now().Before(deadline) {
				r.framesDropped.Add(1)
				obsSinkFramesDropped.Add(1)
				trace.Instant("wiot.sink.drop")
				return fmt.Errorf("enqueue after %v: %w", r.cfg.EnqueueTimeout, ErrBufferFull)
			}
			r.cond.Wait()
		}
	}
	var buf []byte
	if n := len(r.free); n > 0 {
		buf, r.free = r.free[n-1], r.free[:n-1]
	}
	r.queue = append(r.queue, sinkEntry{sensor: f.Sensor, seq: f.Seq, payload: f.appendChecksummed(buf)})
	r.nextSeq[f.Sensor] = f.Seq + 1
	r.cond.Broadcast()
	return nil
}

// releaseLocked drops the k oldest entries: their payload buffers join
// the free list, and the rest of the queue moves down in place, so
// neither the queue nor its payloads are reallocated in steady state.
// Callers hold mu.
func (r *ReconnectSink) releaseLocked(k int) {
	for _, e := range r.queue[:k] {
		r.free = append(r.free, e.payload[:0])
	}
	n := copy(r.queue, r.queue[k:])
	clear(r.queue[n:])
	r.queue = r.queue[:n]
	r.cursor = max(r.cursor-k, 0)
}

// run is the connection supervisor: dial (with backoff), announce, pump
// the queue, and cycle on failure until closed.
func (r *ReconnectSink) run() {
	defer r.wg.Done()
	rng := rand.New(rand.NewSource(r.cfg.Seed))
	for {
		if r.stopRequested() {
			return
		}
		conn, err := r.connect(rng)
		if err != nil {
			if !errors.Is(err, errStopping) {
				r.fail(err)
			}
			return
		}
		gen := r.install(conn)
		// Every connection opens with a hello record.
		if err := r.writeRaw(conn, appendCtrl(nil, ctrlRecord{Kind: ctrlHello})); err != nil {
			_ = conn.Close()
			continue
		}
		// One scanner serves both the handshake replies and the ack
		// stream: handing the connection to a second reader would strand
		// any station bytes buffered in the first.
		sc := newFrameScanner(conn)
		if r.cfg.Auth != nil {
			sess, err := r.handshake(conn, sc)
			if err != nil {
				_ = conn.Close()
				if errors.Is(err, ErrAuthRejected) || errors.Is(err, ErrAuthFailed) {
					// The station heard us and said no — redialing with the
					// same credentials cannot succeed.
					r.fail(err)
					return
				}
				// I/O failure mid-handshake (station killed mid-dial, read
				// deadline): an ordinary reconnect.
				continue
			}
			r.mu.Lock()
			r.sess = sess
			r.mu.Unlock()
		}
		// Trace-context propagation: the connection interval is a child of
		// the fleet-side parent, and the station learns both IDs from the
		// ctrlTrace record so its own spans parent under this connection.
		// The region spans the connection's lifetime, so it ends at the
		// bottom of the loop body rather than via defer.
		var connRegion trace.Region
		if r.cfg.TraceParent != 0 {
			connRegion = trace.BeginChildOf("wiot.sink.conn", r.cfg.TraceParent) //wiotlint:allow spanend
			rec := ctrlRecord{Kind: ctrlTrace, Span: connRegion.TraceID(), Parent: r.cfg.TraceParent}
			if err := r.writeRaw(conn, appendCtrl(nil, rec)); err != nil {
				connRegion.End()
				_ = conn.Close()
				continue
			}
		}
		r.wg.Add(1)
		go func() {
			defer r.wg.Done()
			r.readAcks(conn, gen, sc)
		}()
		r.writeLoop(conn, gen)
		connRegion.End()
		_ = conn.Close()
	}
}

// stopRequested reports whether the supervisor should exit: closed and
// either fully acknowledged or out of time.
func (r *ReconnectSink) stopRequested() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.closing && (len(r.queue) == 0 || r.deadlineHit)
}

// connect dials until success, interruption, or MaxAttempts.
func (r *ReconnectSink) connect(rng *rand.Rand) (net.Conn, error) {
	for attempt := 0; ; attempt++ {
		select {
		case <-r.abortCh:
			return nil, errStopping
		default:
		}
		conn, err := net.DialTimeout("tcp", r.cfg.Addr, r.cfg.DialTimeout)
		if err == nil {
			r.connects.Add(1)
			obsSinkConnects.Add(1)
			trace.Instant("wiot.sink.connect")
			logx.L().Debug("sink connected", "addr", r.cfg.Addr, "attempt", attempt)
			return conn, nil
		}
		r.dialRetries.Add(1)
		obsSinkDialRetries.Add(1)
		trace.Instant("wiot.sink.retry")
		logx.L().Debug("sink dial failed", "addr", r.cfg.Addr, "attempt", attempt, "err", err)
		if isTimeout(err) {
			err = fmt.Errorf("wiot: dial station %s after %v: %w", r.cfg.Addr, r.cfg.DialTimeout, ErrDialTimeout)
		}
		if r.cfg.MaxAttempts > 0 && attempt+1 >= r.cfg.MaxAttempts {
			return nil, fmt.Errorf("wiot: sink gave up after %d dial attempts: %w", r.cfg.MaxAttempts, err)
		}
		select {
		case <-r.abortCh:
			return nil, errStopping
		case <-time.After(computeBackoff(r.cfg.BackoffBase, r.cfg.BackoffMax, attempt, rng)):
		}
	}
}

// install publishes the new connection and rewinds the transmit cursor
// so every unacknowledged frame is replayed on it.
func (r *ReconnectSink) install(conn net.Conn) uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.conn = conn
	r.connGen++
	r.dead = false
	r.cursor = 0
	r.cond.Broadcast()
	return r.connGen
}

// connDied flags the generation's connection as dead (waking the
// writer) and closes it (waking its reader). Stale generations only
// close their own conn.
func (r *ReconnectSink) connDied(conn net.Conn, gen uint64) {
	r.mu.Lock()
	if gen == r.connGen {
		r.dead = true
		r.cond.Broadcast()
	}
	r.mu.Unlock()
	_ = conn.Close()
}

// sinkBatchBytes caps one writeLoop batch: the pending gap records and
// queued frames gathered into a single write.
const sinkBatchBytes = 16 << 10

// writeLoop pumps queue entries and pending gap announcements onto one
// connection until it dies or the sink drains out. Each pass gathers
// everything sendable — gap records first, then queued frames from the
// cursor — into one reused buffer of up to sinkBatchBytes and writes it
// once. While frames sit unacknowledged with nothing left to send, a
// go-back-N timer arms; on expiry the whole window retransmits.
func (r *ReconnectSink) writeLoop(conn net.Conn, gen uint64) {
	batch := make([]byte, 0, sinkBatchBytes)
	var rtoTimer *time.Timer
	defer func() {
		if rtoTimer != nil {
			rtoTimer.Stop()
		}
	}()
	for {
		r.mu.Lock()
		var rtoDeadline time.Time
		for {
			if r.dead || gen != r.connGen || (r.closing && (len(r.queue) == 0 || r.deadlineHit)) {
				r.mu.Unlock()
				return
			}
			if len(r.gapPend) > 0 || r.cursor < len(r.queue) {
				break
			}
			if len(r.queue) > 0 {
				now := time.Now()
				if rtoDeadline.IsZero() {
					rtoDeadline = now.Add(r.cfg.RetransmitTimeout)
					if rtoTimer == nil {
						rtoTimer = time.AfterFunc(r.cfg.RetransmitTimeout, func() {
							r.mu.Lock()
							r.cond.Broadcast()
							r.mu.Unlock()
						})
					} else {
						rtoTimer.Reset(r.cfg.RetransmitTimeout)
					}
				} else if !now.Before(rtoDeadline) {
					// The station has gone quiet on frames it never acked
					// (lost tail, stalled scanner): resend the window.
					r.cursor = 0
					continue
				}
			}
			r.cond.Wait()
		}
		batch = batch[:0]
		for len(r.gapPend) > 0 {
			batch = r.appendGapLocked(batch)
		}
		var retransmits int64
		for r.cursor < len(r.queue) {
			e := &r.queue[r.cursor]
			size := len(e.payload)
			if r.sess != nil {
				size += authTrailerSize - crcSize
			}
			if len(batch) > 0 && len(batch)+size > sinkBatchBytes {
				break
			}
			if e.sent {
				retransmits++
			}
			e.sent = true
			r.cursor++
			if r.sess == nil {
				batch = append(batch, e.payload...)
				continue
			}
			// Seal at transmit time, not enqueue time: a frame buffered
			// across a reconnect must carry the new session's id and MAC
			// when it is (re)transmitted.
			start := len(batch)
			batch = r.sess.seal(append(batch, e.payload[:len(e.payload)-crcSize]...), start)
		}
		r.mu.Unlock()

		if retransmits > 0 {
			r.retransmits.Add(retransmits)
			obsSinkRetransmits.Add(retransmits)
		}
		if err := r.writeRaw(conn, batch); err != nil {
			r.connDied(conn, gen)
			return
		}
	}
}

// appendGapLocked appends the gap announcement of the lowest sensor with
// one pending and clears its pending flag. Callers hold mu.
func (r *ReconnectSink) appendGapLocked(buf []byte) []byte {
	var sensor SensorID
	for id := range r.gapPend {
		if sensor == 0 || id < sensor {
			sensor = id
		}
	}
	delete(r.gapPend, sensor)
	r.gapsDeclared.Add(1)
	obsSinkGapsDeclared.Add(1)
	trace.Instant("wiot.sink.gap")
	return appendCtrl(buf, ctrlRecord{Kind: ctrlGap, Sensor: sensor, Seq: r.gapTargetLocked(sensor)})
}

// gapTargetLocked returns the lowest sequence the sink can still
// deliver for the sensor — the oldest buffered entry, or the next
// sequence it has seen if nothing is buffered. Callers hold mu.
func (r *ReconnectSink) gapTargetLocked(sensor SensorID) uint32 {
	for _, e := range r.queue {
		if e.sensor == sensor {
			return e.seq
		}
	}
	return r.nextSeq[sensor]
}

// writeRaw writes one record, or one batch of them, under the write
// deadline.
func (r *ReconnectSink) writeRaw(conn net.Conn, payload []byte) error {
	if r.cfg.WriteTimeout > 0 {
		if err := conn.SetWriteDeadline(time.Now().Add(r.cfg.WriteTimeout)); err != nil {
			return err
		}
	}
	if _, err := conn.Write(payload); err != nil {
		if isTimeout(err) {
			r.writeTimeouts.Add(1)
			obsSinkWriteTimeouts.Add(1)
			return fmt.Errorf("wiot: write frame after %v: %w", r.cfg.WriteTimeout, ErrWriteTimeout)
		}
		return err
	}
	return nil
}

// handshake runs the v3 onboarding exchange on a fresh connection,
// bounding the reads with DialTimeout unless the AuthConfig sets its
// own.
func (r *ReconnectSink) handshake(conn net.Conn, sc *frameScanner) (*Session, error) {
	ac := *r.cfg.Auth
	if ac.Timeout <= 0 {
		ac.Timeout = r.cfg.DialTimeout
	}
	sess, err := clientHandshake(conn, sc, ac, r.cfg.WriteTimeout)
	if err != nil {
		return nil, err
	}
	obsSinkHandshakes.Add(1)
	r.handshakes.Add(1)
	trace.Instant("wiot.sink.handshake")
	logx.L().Debug("sink established v3 session",
		"addr", r.cfg.Addr, "sid", sess.ID, "alg", sess.Alg.String())
	return sess, nil
}

// readAcks consumes the station's control stream for one connection.
func (r *ReconnectSink) readAcks(conn net.Conn, gen uint64, sc *frameScanner) {
	for {
		rec, err := sc.next()
		if err != nil {
			r.connDied(conn, gen)
			return
		}
		if !rec.isCtrl {
			continue
		}
		switch rec.ctrl.Kind {
		case ctrlAck:
			r.onAck(rec.ctrl.Sensor, rec.ctrl.Seq)
		case ctrlNack:
			r.onNack(rec.ctrl.Sensor, rec.ctrl.Seq)
		}
	}
}

// onAck releases everything the cumulative ack covers.
func (r *ReconnectSink) onAck(sensor SensorID, seq uint32) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.hasAck[sensor] || seqAfter(seq, r.acked[sensor]) {
		r.hasAck[sensor] = true
		r.acked[sensor] = seq
	}
	k := 0
	for ; k < len(r.queue); k++ {
		e := &r.queue[k]
		if !r.hasAck[e.sensor] || seqAfter(e.seq, r.acked[e.sensor]) {
			break
		}
	}
	r.releaseLocked(k)
	r.cond.Broadcast()
}

// onNack rewinds the cursor to the requested frame if it is still
// buffered; if it was dropped, the gap is (re)declared so the station
// stops waiting for it.
func (r *ReconnectSink) onNack(sensor SensorID, seq uint32) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.hasAck[sensor] && !seqAfter(seq, r.acked[sensor]) {
		return // stale nack from before an ack the station already sent
	}
	for i := range r.queue {
		if r.queue[i].sensor == sensor && r.queue[i].seq == seq {
			if i < r.cursor {
				r.cursor = i
			}
			r.cond.Broadcast()
			return
		}
	}
	r.declareGapLocked(sensor)
	r.cond.Broadcast()
}

// declareGapLocked schedules a gap announcement for the sensor and
// rewinds the cursor to its oldest buffered frame: the station nacks
// everything past its sequence cursor, so frames sent before the gap was
// known need another pass once the cursor jumps forward. Callers hold mu.
func (r *ReconnectSink) declareGapLocked(sensor SensorID) {
	r.gapPend[sensor] = true
	for i, e := range r.queue {
		if e.sensor == sensor {
			if i < r.cursor {
				r.cursor = i
			}
			break
		}
	}
}

// fail marks the sink terminally failed (dial attempts exhausted):
// buffered and future frames are undeliverable.
func (r *ReconnectSink) fail(err error) {
	logx.L().Warn("sink failed terminally", "addr", r.cfg.Addr, "err", err)
	r.mu.Lock()
	r.failedErr = err
	r.cond.Broadcast()
	r.mu.Unlock()
}

// abort forces shutdown: any dial sleep, blocked write, or ack wait is
// interrupted.
func (r *ReconnectSink) abort() {
	r.abortOnce.Do(func() { close(r.abortCh) })
	r.mu.Lock()
	r.deadlineHit = true
	conn := r.conn
	r.cond.Broadcast()
	r.mu.Unlock()
	if conn != nil {
		_ = conn.Close()
	}
}

// Stats snapshots the sink counters.
func (r *ReconnectSink) Stats() ReconnectStats {
	return ReconnectStats{
		Connects:      r.connects.Load(),
		DialRetries:   r.dialRetries.Load(),
		Retransmits:   r.retransmits.Load(),
		FramesDropped: r.framesDropped.Load(),
		WriteTimeouts: r.writeTimeouts.Load(),
		GapsDeclared:  r.gapsDeclared.Load(),
		Handshakes:    r.handshakes.Load(),
	}
}

// Close flushes: it waits (up to CloseTimeout) for the station to
// acknowledge every buffered frame, then tears the connection down and
// reports anything undelivered.
func (r *ReconnectSink) Close() error {
	r.mu.Lock()
	if r.closing {
		r.mu.Unlock()
		r.wg.Wait()
		return r.closeResult()
	}
	r.closing = true
	drained := len(r.queue) == 0
	r.cond.Broadcast()
	r.mu.Unlock()

	var deadline *time.Timer
	if drained {
		r.abort()
	} else {
		deadline = time.AfterFunc(r.cfg.CloseTimeout, r.abort)
	}
	r.wg.Wait()
	if deadline != nil {
		deadline.Stop()
	}
	// All goroutines are gone; make sure any still-open conn is freed and
	// late Close callers see a closed abort channel.
	r.abort()
	return r.closeResult()
}

func (r *ReconnectSink) closeResult() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if n := len(r.queue); n > 0 {
		err := fmt.Errorf("wiot: sink closed with %d frames undelivered", n)
		if r.failedErr != nil {
			err = fmt.Errorf("%w (%v)", err, r.failedErr)
		}
		return err
	}
	return nil
}
