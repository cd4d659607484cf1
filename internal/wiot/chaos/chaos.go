// Package chaos fault-injects the wiot TCP transport: a net.Listener
// middleware that corrupts, cuts, delays, throttles, and partitions the
// sensor→station byte stream from a seeded RNG. It exists to prove the
// transport's reliability layer — tests and `wiotsim -chaos` route a
// fleet scenario through it and require verdicts identical to a clean
// run.
//
// Faults are frame-aware: the injector reassembles wire records with
// wiot.PeekRecord and decides per frame, so a "5% corruption" setting
// means 5% of frames, not 5% of bytes. Control records (acks, hellos,
// gap declarations) pass through unfaulted — the noise knobs model a
// noisy data link, not a byzantine peer. The Adversary schedule is the
// byzantine peer: scheduled (not random) forgeries with repaired CRCs,
// which only the authenticated v3 wire can reject.
//
// Determinism: all randomness comes from rand.New over the configured
// seed (per connection), and the only clock use is time.Sleep for
// latency/bandwidth shaping — the package stays within the detrand
// analyzer's rules for deterministic packages.
package chaos

import (
	"encoding/binary"
	"errors"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/wiot-security/sift/internal/obs"
	"github.com/wiot-security/sift/internal/wiot"
)

// Observability handles; these surface in /metrics like every obs
// counter.
var (
	obsChaosFrames     = obs.NewCounter("wiot.chaos.frames")
	obsChaosCorrupted  = obs.NewCounter("wiot.chaos.corrupted")
	obsChaosCuts       = obs.NewCounter("wiot.chaos.cuts")
	obsChaosPartitions = obs.NewCounter("wiot.chaos.partitions")
	obsChaosTampered   = obs.NewCounter("wiot.chaos.tampered")
	obsChaosReplayed   = obs.NewCounter("wiot.chaos.replayed")
	obsChaosSpliced    = obs.NewCounter("wiot.chaos.spliced")
)

// Config tunes the fault mix. The zero value injects nothing.
type Config struct {
	// Seed drives every probabilistic decision; each accepted connection
	// derives its own rand stream from it.
	Seed int64
	// CorruptProb is the per-frame probability of XOR-flipping one byte
	// somewhere in the record (header, payload, or checksum).
	CorruptProb float64
	// CutProb is the per-frame probability of delivering only a prefix
	// of the record and then severing the connection mid-frame.
	CutProb float64
	// Latency delays each frame's delivery by a fixed amount.
	Latency time.Duration
	// BytesPerSec caps delivery bandwidth (0 = unlimited).
	BytesPerSec int
	// PartitionEvery severs the link after every Nth frame across the
	// listener's lifetime (0 = never) — reconnect storms on a schedule.
	PartitionEvery int
	// Adversary schedules active in-path attacks on top of the noise
	// faults. Unlike the probabilistic knobs above, the adversary fires
	// on fixed frame indices — attack campaigns need the exact same
	// forgeries on every run, not a coin-flip distribution.
	Adversary Adversary
}

// Adversary is a scheduled man-in-the-middle: each knob fires on every
// Nth data frame (0 = never), counted across the listener's lifetime.
// Every forgery it emits carries a valid CRC (wiot.RepairRecordCRC), so
// the checksum layer cannot catch it — only the v3 session MAC can.
// Routing an authenticated scenario through a nonzero Adversary must
// still produce clean-run verdicts: the station rejects each forgery
// without feedback and go-back-N retransmission repairs the stream.
//
// Content forgeries (tamper, splice) fire at most once per distinct
// (sensor, seq) across the listener's lifetime: the adversary models an
// integrity attacker, not a persistent jammer. Without that bound a
// retransmit burst whose length divides the schedule period could be
// forged at the same position every round and starve go-back-N forever.
// Replays carry no such bound — a duplicate is sequence-stale and can
// never block progress.
type Adversary struct {
	// TamperEvery flips a payload byte of every Nth frame and repairs
	// the CRC — a forged measurement the v2 wire accepts silently.
	TamperEvery int
	// ReplayEvery re-delivers every Nth frame verbatim immediately after
	// itself, modelling a captured-and-replayed record.
	ReplayEvery int
	// SpliceEvery rewrites the sensor id of every Nth frame (CRC
	// repaired), splicing one stream's record into the other — a
	// cross-stream forgery only the session binding can reject.
	SpliceEvery int
}

// active reports whether any adversary knob is armed.
func (a Adversary) active() bool {
	return a.TamperEvery > 0 || a.ReplayEvery > 0 || a.SpliceEvery > 0
}

// Stats counts injected faults across a listener's lifetime.
type Stats struct {
	frames     atomic.Int64
	corrupted  atomic.Int64
	cuts       atomic.Int64
	partitions atomic.Int64
	tampered   atomic.Int64
	replayed   atomic.Int64
	spliced    atomic.Int64
}

// Frames returns how many data frames passed through the injector.
func (s *Stats) Frames() int64 { return s.frames.Load() }

// Corrupted returns how many frames had a byte flipped.
func (s *Stats) Corrupted() int64 { return s.corrupted.Load() }

// Cuts returns how many probabilistic mid-frame severs fired.
func (s *Stats) Cuts() int64 { return s.cuts.Load() }

// Partitions returns how many scheduled severs fired.
func (s *Stats) Partitions() int64 { return s.partitions.Load() }

// Tampered returns how many frames were forged in place (CRC repaired).
func (s *Stats) Tampered() int64 { return s.tampered.Load() }

// Replayed returns how many frames were re-delivered verbatim.
func (s *Stats) Replayed() int64 { return s.replayed.Load() }

// Spliced returns how many frames were rewritten onto the other stream.
func (s *Stats) Spliced() int64 { return s.spliced.Load() }

// Listener wraps a net.Listener so every accepted connection reads its
// sensor traffic through the fault injector.
type Listener struct {
	net.Listener
	cfg     Config
	stats   Stats
	adv     advState
	connSeq atomic.Int64
}

// Wrap builds a fault-injecting listener around lis.
func Wrap(lis net.Listener, cfg Config) *Listener {
	return &Listener{
		Listener: lis,
		cfg:      cfg,
		adv: advState{
			tampered: make(map[uint64]struct{}),
			spliced:  make(map[uint64]struct{}),
		},
	}
}

// advState remembers which records the adversary already content-forged,
// shared across every connection the listener accepts (retransmissions
// may arrive on a fresh connection after a sever).
type advState struct {
	mu       sync.Mutex
	tampered map[uint64]struct{}
	spliced  map[uint64]struct{}
}

// claim marks key in set, reporting false when it was already claimed.
func (s *advState) claim(set map[uint64]struct{}, key uint64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := set[key]; dup {
		return false
	}
	set[key] = struct{}{}
	return true
}

// WrapListener returns a middleware closure for hooks that take
// func(net.Listener) net.Listener (e.g. wiot.NetConfig.WrapListener).
func WrapListener(cfg Config) func(net.Listener) net.Listener {
	return func(lis net.Listener) net.Listener { return Wrap(lis, cfg) }
}

// Stats exposes the listener's fault counters.
func (l *Listener) Stats() *Stats { return &l.stats }

// Accept accepts from the inner listener and arms the injector with a
// connection-specific seeded stream.
func (l *Listener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	id := l.connSeq.Add(1)
	return &faultConn{
		Conn:  conn,
		cfg:   l.cfg,
		stats: &l.stats,
		adv:   &l.adv,
		rng:   rand.New(rand.NewSource(l.cfg.Seed*1000003 + id)),
	}, nil
}

// faultConn injects faults on the read path (sensor→station). Writes
// (station→sensor control traffic) pass through untouched.
type faultConn struct {
	net.Conn
	cfg   Config
	stats *Stats
	adv   *advState
	rng   *rand.Rand

	raw []byte // bytes off the wire, not yet record-complete
	out []byte // faulted bytes ready to surface
	cut bool   // sever once out drains
}

// Read surfaces faulted bytes, reassembling records from the underlying
// connection as needed.
func (c *faultConn) Read(p []byte) (int, error) {
	var buf [4096]byte
	for len(c.out) == 0 {
		if c.cut {
			_ = c.Conn.Close()
			return 0, net.ErrClosed
		}
		n, err := c.Conn.Read(buf[:])
		if n > 0 {
			c.raw = append(c.raw, buf[:n]...)
			c.process()
		}
		if err != nil {
			if len(c.out) == 0 && len(c.raw) > 0 {
				// Surface the trailing partial record as-is: the peer died
				// mid-frame and the station should see exactly that.
				c.out, c.raw = c.raw, nil
			}
			if len(c.out) > 0 {
				break
			}
			return 0, err
		}
	}
	n := copy(p, c.out)
	c.out = c.out[n:]
	return n, nil
}

// process moves complete records from raw to out, applying the fault
// mix to data frames.
func (c *faultConn) process() {
	for !c.cut {
		info, err := wiot.PeekRecord(c.raw)
		if err != nil {
			if len(c.raw) == 0 || errors.Is(err, wiot.ErrShortFrame) {
				return
			}
			// A byte that cannot start a record (the sender is already
			// corrupt?) passes through; the station's scanner deals with
			// it.
			c.out = append(c.out, c.raw[0])
			c.raw = c.raw[1:]
			continue
		}
		if len(c.raw) < info.Len {
			return
		}
		rec := c.raw[:info.Len:info.Len]
		c.raw = c.raw[info.Len:]
		if info.Kind == wiot.RecordControl {
			c.out = append(c.out, rec...)
			continue
		}
		c.deliverFrame(rec)
	}
}

// deliverFrame applies the fault mix to one data frame record.
func (c *faultConn) deliverFrame(rec []byte) {
	total := c.stats.frames.Add(1)
	obsChaosFrames.Add(1)

	if c.cfg.Latency > 0 {
		time.Sleep(c.cfg.Latency)
	}
	if c.cfg.BytesPerSec > 0 {
		time.Sleep(time.Duration(len(rec)) * time.Second / time.Duration(c.cfg.BytesPerSec))
	}

	severed := false
	if c.cfg.PartitionEvery > 0 && total%int64(c.cfg.PartitionEvery) == 0 {
		c.stats.partitions.Add(1)
		obsChaosPartitions.Add(1)
		severed = true
	} else if c.cfg.CutProb > 0 && c.rng.Float64() < c.cfg.CutProb {
		c.stats.cuts.Add(1)
		obsChaosCuts.Add(1)
		severed = true
	}
	if severed {
		// Deliver a strict prefix, then sever: the classic mid-frame
		// disconnect. The rest of the buffered stream dies with the
		// connection.
		c.out = append(c.out, rec[:1+c.rng.Intn(len(rec)-1)]...)
		c.raw = nil
		c.cut = true
		return
	}
	if c.cfg.CorruptProb > 0 && c.rng.Float64() < c.cfg.CorruptProb {
		mangled := append([]byte(nil), rec...)
		mangled[c.rng.Intn(len(mangled))] ^= byte(1 + c.rng.Intn(255))
		rec = mangled
		c.stats.corrupted.Add(1)
		obsChaosCorrupted.Add(1)
	}
	if c.cfg.Adversary.active() {
		rec = c.applyAdversary(rec, total)
	}
	c.out = append(c.out, rec...)
	if adv := c.cfg.Adversary; adv.ReplayEvery > 0 && total%int64(adv.ReplayEvery) == 0 {
		// Deliver the record a second time, back to back: a captured and
		// immediately replayed frame.
		c.out = append(c.out, rec...)
		c.stats.replayed.Add(1)
		obsChaosReplayed.Add(1)
	}
}

// applyAdversary runs the scheduled in-place forgeries for frame number
// total. Forgeries keep a valid CRC so only MAC verification can reject
// them. Each forgery type claims a record's (sensor, seq)
// identity before striking, so a retransmitted frame is forged at most
// once per type and delivery always makes progress.
func (c *faultConn) applyAdversary(rec []byte, total int64) []byte {
	adv := c.cfg.Adversary
	key, keyed := frameIdentity(rec)
	if adv.TamperEvery > 0 && total%int64(adv.TamperEvery) == 0 && keyed && c.adv.claim(c.adv.tampered, key) {
		forged := append([]byte(nil), rec...)
		forged[len(forged)/2] ^= 0x55 // lands in the sample payload for any realistic frame
		if wiot.RepairRecordCRC(forged) {
			rec = forged
			c.stats.tampered.Add(1)
			obsChaosTampered.Add(1)
		}
	}
	if adv.SpliceEvery > 0 && total%int64(adv.SpliceEvery) == 0 && keyed && c.adv.claim(c.adv.spliced, key) {
		forged := append([]byte(nil), rec...)
		forged[1] ^= 3 // SensorECG (1) <-> SensorABP (2): cross-stream splice
		if wiot.RepairRecordCRC(forged) {
			rec = forged
			c.stats.spliced.Add(1)
			obsChaosSpliced.Add(1)
		}
	}
	return rec
}

// frameIdentity extracts a data frame record's (sensor, seq) key. Every
// frame layout shares the [magic, sensor, seq u32 LE] header prefix.
func frameIdentity(rec []byte) (uint64, bool) {
	if len(rec) < 6 {
		return 0, false
	}
	return uint64(rec[1])<<32 | uint64(binary.LittleEndian.Uint32(rec[2:6])), true
}
