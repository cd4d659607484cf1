package wiot

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"github.com/wiot-security/sift/internal/dataset"
	"github.com/wiot-security/sift/internal/fixedpoint"
	"github.com/wiot-security/sift/internal/obs"
	"github.com/wiot-security/sift/internal/peaks"
)

// obsStationResyncs counts BaseStation.resync calls; wiot.tcp.resyncs is
// the wire scanner's framing recovery, not this.
var obsStationResyncs = obs.NewCounter("wiot.station.resync")

// ErrSeqGap reports a frame on a lossy link (HandleFrame) whose own
// sequence number jumps further than the station conceals. The frame is
// dropped and the sensor's cursor kept, so one forged or corrupt sequence
// number can neither exhaust memory nor derail the stream. A reliable
// link only declares long jumps, and those resync instead.
var ErrSeqGap = errors.New("wiot: sequence gap exceeds concealment bound")

// concealWindows bounds loss concealment per frame, in windows: a longer
// gap is refused with ErrSeqGap (or, when declared, resynced) rather
// than filled with hold-last samples.
const concealWindows = 8

// Detector is the base station's pluggable classification back end; both
// the host-reference detector and the emulated-device detector satisfy it
// through small adapters.
//
// Windows are lent, as frames are (see Frame): the window handed to
// Classify is valid only while the call runs. The station takes its
// arrays back when Classify returns and fills them with later windows
// (keeping at most freeCap), so a detector copies whatever it keeps of
// ECG, ABP, RPeaks, SysPeaks and Pairs, and never writes to them.
// Ranges are the trap: ECGRange and ABPRange bind to their array's
// address, so an uncopied window still reads its range as valid once
// the array holds another window's samples. A detector that keeps a
// range binds it to its copy (dataset.RangeOf).
type Detector interface {
	// Classify returns whether the window's ECG was altered.
	Classify(w dataset.Window) (bool, error)
}

// Alert is the base station's verdict on one window, forwarded to the sink.
type Alert struct {
	WindowIndex int
	Altered     bool
	SubjectID   string
}

// Sink receives base-station output. The paper's sink is a phone/tablet
// doing storage and visualization; here it is anything that accepts
// alerts.
type Sink interface {
	// Deliver hands one alert to the sink.
	Deliver(Alert)
}

// MemorySink is an in-memory Sink that records every alert.
type MemorySink struct {
	mu     sync.Mutex
	alerts []Alert
}

var _ Sink = (*MemorySink)(nil)

// Deliver implements Sink.
func (s *MemorySink) Deliver(a Alert) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.alerts = append(s.alerts, a)
}

// Alerts returns a copy of everything delivered so far.
func (s *MemorySink) Alerts() []Alert {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Alert, len(s.alerts))
	copy(out, s.alerts)
	return out
}

// StationConfig parameterizes a base station. Its windows are
// dataset.WindowSec long.
type StationConfig struct {
	SubjectID  string
	SampleRate float64 // Hz
	Detector   Detector
	Sink       Sink
}

// BaseStation assembles synchronized ECG/ABP windows from sensor frames
// and runs the detector on each completed window. It is the Amulet's role
// in Fig 1.
//
// Assembly is pipelined per sensor: each sensor's samples fill a window
// of their own, and the moment it fills, that sensor's peak detector runs
// on it and it joins the sensor's queue. Classification runs once both
// queues hold the window of the same index, so a sensor that runs ahead
// pays for its peaks on its own frames, not on its partner's.
type BaseStation struct {
	cfg  StationConfig
	wlen int
	rdet *peaks.RDetector // runtime R detector

	mu    sync.Mutex
	ch    [2]channel   // per sensor, indexed by SensorID-1
	cur   [2]seqCursor // per sensor, indexed by SensorID-1
	free  windowArrays // arrays Classify is done with, for the next windows
	index int          // the next window's index: index·wlen is its first sample's position
	stats StationStats
}

// freeCap bounds a station's free list of window arrays. A lead of at
// most leadBound windows, which the TCP station holds its connections to,
// keeps leadBound+2 arrays in use at its peak (the leader's queued
// windows and both filling ones), and all of them come back once the
// partner catches up, so a steady stream stops making arrays after its
// first leadBound+2. The cap keeps a long-lived station from pinning the
// arrays of a longer lead, as a lossy link or a lone sensor can build.
const freeCap = leadBound + 2

// windowArrays is a station's free list of window arrays, at most
// freeCap of them, the most recently returned first.
type windowArrays struct {
	a [freeCap][]float64
	n int
}

// get returns a free array emptied to length 0, or nil when none is.
func (f *windowArrays) get() []float64 {
	if f.n == 0 {
		return nil
	}
	f.n--
	s := f.a[f.n]
	f.a[f.n] = nil
	return s[:0]
}

// put takes back a window's array once nothing reads it any more,
// keeping it while the list has room. The wiotpoison build fills it
// with NaN first, so a detector that kept it without copying reads NaN.
func (f *windowArrays) put(s []float64) {
	if poisonReturnedWindows {
		s = s[:cap(s)]
		for i := range s {
			s[i] = math.NaN()
		}
	}
	if f.n < freeCap {
		f.a[f.n] = s
		f.n++
	}
}

// channel is one sensor's stage of window assembly: the window its
// samples are filling, with their running minimum, maximum and sum, and
// its complete windows, oldest first, that wait for the other sensor's
// window of the same index.
type channel struct {
	part   []float64    // the filling window: nil until its first sample, then capacity wlen; lent to Classify as is once full
	lo, hi fixedpoint.Q // min and max of part's samples; meaningless while part is empty
	sum    float64      // part's samples added in index order from +0; meaningless while part is empty
	queue  []cutWindow  // queue[head:] waits
	head   int
}

// cutWindow is one sensor's complete window, its minimum and maximum,
// and the peaks its detector found in it, or the error the detector
// returned.
type cutWindow struct {
	samples []float64
	lo, hi  float64
	peaks   []int
	err     error
}

// widen folds lo and hi, the range of samples just written at part[n:],
// into the window's range; n = 0 starts the range afresh.
func (c *channel) widen(n int, lo, hi fixedpoint.Q) {
	if n > 0 {
		lo, hi = min(lo, c.lo), max(hi, c.hi)
	}
	c.lo, c.hi = lo, hi
}

// sumBefore returns the sum that samples written at part[n:] add to in
// turn: +0 at the window's first sample (n = 0), else the sum so far.
func (c *channel) sumBefore(n int) float64 {
	if n == 0 {
		return 0
	}
	return c.sum
}

// waiting returns how many complete windows the channel holds.
func (c *channel) waiting() int { return len(c.queue) - c.head }

// push queues w, reusing the queue's array once its front has drained.
func (c *channel) push(w cutWindow) {
	if c.head > 0 && len(c.queue) == cap(c.queue) {
		n := copy(c.queue, c.queue[c.head:])
		clear(c.queue[n:])
		c.queue, c.head = c.queue[:n], 0
	}
	c.queue = append(c.queue, w)
}

// pop dequeues the oldest waiting window.
func (c *channel) pop() cutWindow {
	w := c.queue[c.head]
	c.queue[c.head] = cutWindow{}
	if c.head++; c.head == len(c.queue) {
		c.queue, c.head = c.queue[:0], 0
	}
	return w
}

// reset drops every waiting window, returning its array to free, and
// empties the partial one.
func (c *channel) reset(free *windowArrays) {
	for _, w := range c.queue[c.head:] {
		free.put(w.samples)
	}
	clear(c.queue)
	c.queue, c.head, c.part = c.queue[:0], 0, c.part[:0]
}

// seqCursor is one sensor's place in its frame sequence, shared by
// HandleFrame (lossy link) and admit (reliable link).
type seqCursor struct {
	next   uint32       // the sequence the sensor's stream continues at
	owed   int          // frames below next a declared gap skipped; concealed when next arrives
	synced bool         // a frame has arrived (or a resync placed the cursor)
	hold   fixedpoint.Q // last sample, the concealment fill
}

// NewBaseStation validates the configuration and builds a station.
func NewBaseStation(cfg StationConfig) (*BaseStation, error) {
	if !(cfg.SampleRate > 0) {
		return nil, fmt.Errorf("wiot: sample rate %.3g must be positive", cfg.SampleRate)
	}
	if cfg.Detector == nil {
		return nil, errors.New("wiot: base station needs a detector")
	}
	if cfg.Sink == nil {
		return nil, errors.New("wiot: base station needs a sink")
	}
	wlen := int(dataset.WindowSec * cfg.SampleRate)
	if wlen <= 0 {
		return nil, fmt.Errorf("wiot: degenerate window of %d samples", wlen)
	}
	rdet, err := peaks.NewRDetector(peaks.DetectorConfig{SampleRate: cfg.SampleRate})
	if err != nil {
		return nil, fmt.Errorf("wiot: runtime R detector: %w", err)
	}
	return &BaseStation{cfg: cfg, wlen: wlen, rdet: rdet}, nil
}

// StationStats is a consistent snapshot of a station's counters, taken
// under one lock so concurrent observers never see torn values.
type StationStats struct {
	Windows   int // complete windows classified
	SeqErrors int // lost frames concealed
	Concealed int // samples synthesized to cover lost frames
	Stale     int // duplicate/out-of-order frames dropped
	Resyncs   int // declared gaps too long to conceal, restarted at their target
	PeakLead  int // most complete windows one sensor held waiting for the other's
}

// Stats returns a consistent snapshot of the station's counters.
func (b *BaseStation) Stats() StationStats {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.stats
}

// lead returns how many complete windows sensor holds that its partner
// lacks.
func (b *BaseStation) lead(sensor SensorID) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.ch[sensor-1].waiting()
}

// HandleFrame ingests one sensor frame from a lossy link, classifying
// any windows that complete as a result. Sequence numbers drive the
// pipeline's loss handling (Insight #1): a gap of k frames is concealed
// by synthesizing k frames' worth of hold-last samples, so the ECG and
// ABP streams stay mutually aligned; stale or duplicate frames are
// dropped. A gap needing more than concealWindows windows of
// concealment drops the frame and returns ErrSeqGap. The samples are
// converted into the sensor's window array; none is kept.
func (b *BaseStation) HandleFrame(f Frame) error {
	if !f.Sensor.Valid() {
		return fmt.Errorf("%w: %d", ErrBadSensor, f.Sensor)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if c := &b.cur[f.Sensor-1]; c.synced && seqBefore(f.Seq, c.next) {
		// Duplicate or reordered-late frame: already accounted for. The
		// comparison is serial (RFC 1982): after the u32 sequence space
		// wraps, post-wrap frames are later than pre-wrap ones, not stale.
		b.stats.Stale++
		return nil
	}
	return b.accept(f, false)
}

// admission is the go-back-N verdict on one frame from a reliable link.
type admission int

const (
	admitted     admission = iota // in order: handled, ack it
	admitStale                    // already handled: re-ack the cursor's predecessor
	admitMissing                  // ahead of the cursor: nack the cursor
)

// admit judges one frame from a reliable link against its sensor's
// cursor, which it returns too; an unsynced sensor expects seq 0. Only an
// in-order frame is handled, as by HandleFrame, except that a declared
// gap too long to conceal resyncs. A handling error still consumes it.
func (b *BaseStation) admit(f Frame) (admission, uint32, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	next := b.cur[f.Sensor-1].next
	switch {
	case seqBefore(f.Seq, next):
		return admitStale, next, nil
	case f.Seq != next:
		return admitMissing, next, nil
	}
	return admitted, next, b.accept(f, true)
}

// declareGap records a reliable sender's word that it will never deliver
// the sensor's frames below seq: the cursor moves up to seq, owing the
// skipped frames concealment (or a resync) when seq arrives.
func (b *BaseStation) declareGap(sensor SensorID, seq uint32) {
	if !sensor.Valid() {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if c := &b.cur[sensor-1]; seqAfter(seq, c.next) {
		c.owed += int(seq - c.next)
		c.next = seq
	}
}

// accept appends f, at or after its sensor's cursor, to its stream after
// concealing the frames in between (and any a declared gap owes), then
// classifies completed windows. A gap past the bound returns ErrSeqGap
// and keeps the cursor, or with resync set restarts both streams at f.
// A first frame sets the origin: a start far from zero is no gap. Caller
// holds mu.
func (b *BaseStation) accept(f Frame, resync bool) error {
	c := &b.cur[f.Sensor-1]
	n := len(f.Samples)
	if c.synced {
		gap := int(f.Seq-c.next) + c.owed
		switch {
		case n == 0 || gap <= concealWindows*b.wlen/n:
			b.stats.SeqErrors += gap
			b.conceal(f.Sensor, gap*n)
		case resync:
			b.resync(f, gap)
		default:
			return fmt.Errorf("%w: sensor %v jumped %d frames of %d samples (bound %d samples)",
				ErrSeqGap, f.Sensor, gap, n, concealWindows*b.wlen)
		}
	}
	c.next, c.owed, c.synced = f.Seq+1, 0, true
	if n > 0 {
		c.hold = f.Samples[n-1]
	}
	ch := &b.ch[f.Sensor-1]
	for samples := f.Samples; len(samples) > 0; {
		b.open(ch)
		n := len(ch.part)
		k := min(len(samples), b.wlen-n)
		ch.part = ch.part[:n+k]
		dst := ch.part[n : n+k]
		lo, hi, sum := samples[0], samples[0], ch.sumBefore(n)
		for i, q := range samples[:k] {
			v := q.Float()
			dst[i] = v
			sum += v
			lo, hi = min(lo, q), max(hi, q)
		}
		ch.widen(n, lo, hi)
		ch.sum = sum
		samples = samples[k:]
		b.cutIfFull(f.Sensor)
	}
	return b.drainWindows()
}

// resync restarts both streams at f, whose declared gap of gap frames is
// too long to conceal. Same seq means same time for both sensors, so f's
// first sample keeps the position the gap implies, counting the windows
// f's sensor holds waiting: the queued and partial windows are dropped,
// the window index moves to the window holding that position, and both
// partial windows are filled with hold-last samples up to it. Every
// cursor behind f moves to it; one past f owes the frames in between.
// Caller holds mu and sets f's cursor.
func (b *BaseStation) resync(f Frame, gap int) {
	ch := &b.ch[f.Sensor-1]
	pos := (b.index+ch.waiting())*b.wlen + len(ch.part) + gap*len(f.Samples)
	b.index = pos / b.wlen
	b.stats.Resyncs++
	obsStationResyncs.Add(1)
	for i := range b.cur {
		c, id := &b.cur[i], SensorID(i+1)
		c.owed, c.synced = 0, true
		if seqAfter(c.next, f.Seq) {
			c.owed = int(c.next - f.Seq)
		} else {
			c.next = f.Seq
		}
		b.ch[i].reset(&b.free)
		b.conceal(id, pos%b.wlen)
	}
}

// conceal appends n of the sensor's hold-last samples. Caller holds mu.
func (b *BaseStation) conceal(sensor SensorID, n int) {
	ch, hold := &b.ch[sensor-1], b.cur[sensor-1].hold
	b.stats.Concealed += n
	for n > 0 {
		b.open(ch)
		k := min(n, b.wlen-len(ch.part))
		ch.widen(len(ch.part), hold, hold)
		v, sum := hold.Float(), ch.sumBefore(len(ch.part))
		for range k {
			ch.part = append(ch.part, v)
			sum += v
		}
		ch.sum = sum
		n -= k
		b.cutIfFull(sensor)
	}
}

// open gives the channel an array for its filling window when it has
// none, when the window's first sample arrives: a free one if there is
// one, else a new one. Caller holds mu.
func (b *BaseStation) open(ch *channel) {
	if ch.part == nil {
		if ch.part = b.free.get(); ch.part == nil {
			ch.part = make([]float64, 0, b.wlen)
		}
	}
}

// cutIfFull queues the sensor's partial window once it holds a window,
// with the peaks the sensor's detector finds in it, and starts
// the next. The filled array is the one Classify is lent: nothing is
// copied. Caller holds mu.
func (b *BaseStation) cutIfFull(sensor SensorID) {
	ch := &b.ch[sensor-1]
	if len(ch.part) < b.wlen {
		return
	}
	w := cutWindow{samples: ch.part, lo: ch.lo.Float(), hi: ch.hi.Float()}
	ch.part = nil
	if sensor == SensorECG {
		if w.peaks, w.err = b.rdet.Detect(w.samples); w.err != nil {
			w.err = fmt.Errorf("wiot: runtime R detection: %w", w.err)
		}
	} else if w.peaks, w.err = peaks.ScanSystolic(w.samples, b.cfg.SampleRate, ch.sum, w.hi); w.err != nil {
		w.err = fmt.Errorf("wiot: runtime systolic detection: %w", w.err)
	}
	ch.push(w)
}

// drainWindows classifies every window both sensors have queued,
// taking back both arrays of each, then records the lead the sensor
// still waiting holds. Caller holds mu.
func (b *BaseStation) drainWindows() error {
	e, a := &b.ch[SensorECG-1], &b.ch[SensorABP-1]
	for e.waiting() > 0 && a.waiting() > 0 {
		ew, aw := e.pop(), a.pop()
		err := b.classify(ew, aw)
		b.free.put(ew.samples)
		b.free.put(aw.samples)
		if err != nil {
			return err
		}
	}
	if lead := max(e.waiting(), a.waiting()); lead > b.stats.PeakLead {
		b.stats.PeakLead = lead
	}
	return nil
}

// classify lends the window ew and aw make up to the detector and
// delivers its verdict. Caller holds mu.
func (b *BaseStation) classify(ew, aw cutWindow) error {
	if ew.err != nil {
		return ew.err
	}
	if aw.err != nil {
		return aw.err
	}
	w := dataset.Window{
		SubjectID: b.cfg.SubjectID,
		Index:     b.index,
		ECG:       ew.samples,
		ABP:       aw.samples,
	}
	w.ECGRange = dataset.RangeOf(w.ECG, ew.lo, ew.hi)
	w.ABPRange = dataset.RangeOf(w.ABP, aw.lo, aw.hi)
	w.RPeaks, w.SysPeaks = ew.peaks, aw.peaks
	w.Pairs = peaks.Pair(w.RPeaks, w.SysPeaks, int(dataset.MaxPairLagSec*b.cfg.SampleRate))

	altered, err := b.cfg.Detector.Classify(w)
	if err != nil {
		return fmt.Errorf("wiot: classify window %d: %w", w.Index, err)
	}
	b.cfg.Sink.Deliver(Alert{WindowIndex: b.index, Altered: altered, SubjectID: b.cfg.SubjectID})
	b.index++
	b.stats.Windows++
	return nil
}
