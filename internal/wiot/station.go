package wiot

import (
	"errors"
	"fmt"
	"sync"

	"github.com/wiot-security/sift/internal/dataset"
	"github.com/wiot-security/sift/internal/peaks"
)

// ErrSeqGap reports a frame whose sequence jump would need more
// concealment than the station synthesizes. The frame is dropped and the
// sensor's cursor kept, so one forged or corrupt sequence number can
// neither exhaust memory nor derail the stream.
var ErrSeqGap = errors.New("wiot: sequence gap exceeds concealment bound")

// concealWindows bounds loss concealment per frame, in windows: a gap
// longer than this many windows' worth of samples is refused with
// ErrSeqGap rather than filled with hold-last samples.
const concealWindows = 8

// Detector is the base station's pluggable classification back end; both
// the host-reference detector and the emulated-device detector satisfy it
// through small adapters.
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

// StationConfig parameterizes a base station.
type StationConfig struct {
	SubjectID  string
	SampleRate float64 // Hz
	WindowSec  float64 // detector window (default 3 s)
	Detector   Detector
	Sink       Sink
	// DetectPeaksAtRuntime switches on the station-side peak detectors
	// (the paper pre-stored peak indexes; the runtime path is the "simple
	// extension" it describes). When false, windows carry no peaks and
	// only matrix features discriminate.
	DetectPeaksAtRuntime bool
}

// BaseStation assembles synchronized ECG/ABP windows from sensor frames
// and runs the detector on each completed window. It is the Amulet's role
// in Fig 1.
type BaseStation struct {
	cfg  StationConfig
	wlen int
	rdet *peaks.RDetector // runtime R detector; nil when off

	mu        sync.Mutex
	ecg       []float64
	abp       []float64
	nextSeq   map[SensorID]uint32
	seqSynced map[SensorID]bool // first frame seen; nextSeq is meaningful
	lastVal   map[SensorID]float64
	seqErrors int
	concealed int // samples synthesized to cover lost frames
	stale     int // duplicate/out-of-order frames dropped
	windows   int
}

// NewBaseStation validates the configuration and builds a station.
func NewBaseStation(cfg StationConfig) (*BaseStation, error) {
	if cfg.SampleRate <= 0 {
		return nil, fmt.Errorf("wiot: sample rate %.3g must be positive", cfg.SampleRate)
	}
	if cfg.WindowSec == 0 {
		cfg.WindowSec = dataset.WindowSec
	}
	if cfg.WindowSec <= 0 {
		return nil, fmt.Errorf("wiot: window %.3g s must be positive", cfg.WindowSec)
	}
	if cfg.Detector == nil {
		return nil, errors.New("wiot: base station needs a detector")
	}
	if cfg.Sink == nil {
		return nil, errors.New("wiot: base station needs a sink")
	}
	wlen := int(cfg.WindowSec * cfg.SampleRate)
	if wlen <= 0 {
		return nil, fmt.Errorf("wiot: degenerate window of %d samples", wlen)
	}
	var rdet *peaks.RDetector
	if cfg.DetectPeaksAtRuntime {
		d, err := peaks.NewRDetector(peaks.DetectorConfig{SampleRate: cfg.SampleRate})
		if err != nil {
			return nil, fmt.Errorf("wiot: runtime R detector: %w", err)
		}
		rdet = d
	}
	return &BaseStation{
		cfg:       cfg,
		wlen:      wlen,
		rdet:      rdet,
		nextSeq:   make(map[SensorID]uint32),
		seqSynced: make(map[SensorID]bool),
		lastVal:   make(map[SensorID]float64),
	}, nil
}

// StationStats is a consistent snapshot of a station's counters, taken
// under one lock so concurrent observers never see torn values.
type StationStats struct {
	Windows   int // complete windows classified
	SeqErrors int // sequence gaps detected
	Concealed int // samples synthesized to cover lost frames
	Stale     int // duplicate/out-of-order frames dropped
}

// Stats returns a consistent snapshot of the station's counters.
func (b *BaseStation) Stats() StationStats {
	b.mu.Lock()
	defer b.mu.Unlock()
	return StationStats{
		Windows:   b.windows,
		SeqErrors: b.seqErrors,
		Concealed: b.concealed,
		Stale:     b.stale,
	}
}

// SeqErrors returns the number of out-of-order or duplicate frames seen.
func (b *BaseStation) SeqErrors() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.seqErrors
}

// WindowsProcessed returns how many complete windows have been classified.
func (b *BaseStation) WindowsProcessed() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.windows
}

// HandleFrame ingests one sensor frame, classifying any windows that
// complete as a result. Sequence numbers drive the pipeline's loss
// handling (Insight #1): a gap of k frames is concealed by synthesizing
// k frames' worth of hold-last samples, so the ECG and ABP streams stay
// mutually aligned; stale or duplicate frames are dropped. A gap needing
// more than concealWindows windows of concealment drops the frame and
// returns ErrSeqGap.
func (b *BaseStation) HandleFrame(f Frame) error {
	if !f.Sensor.Valid() {
		return fmt.Errorf("%w: %d", ErrBadSensor, f.Sensor)
	}
	b.mu.Lock()
	defer b.mu.Unlock()

	buf := &b.abp
	if f.Sensor == SensorECG {
		buf = &b.ecg
	}
	want, synced := b.nextSeq[f.Sensor], b.seqSynced[f.Sensor]
	seen := f.Seq
	switch {
	case !synced:
		// First frame from this sensor: adopt its sequence as the stream
		// origin. Treating an arbitrary starting point as a gap from zero
		// would synthesize up to 2^32 frames of concealment.
		b.seqSynced[f.Sensor] = true
	case seqBefore(seen, want):
		// Duplicate or reordered-late frame: already accounted for. The
		// comparison is serial (RFC 1982): after the u32 sequence space
		// wraps, post-wrap frames are later than pre-wrap ones, not stale.
		b.stale++
		return nil
	case seqAfter(seen, want):
		gap := int(seen - want)
		if bound := concealWindows * b.wlen; len(f.Samples) > 0 && gap > bound/len(f.Samples) {
			return fmt.Errorf("%w: sensor %v jumped %d frames of %d samples (bound %d samples)",
				ErrSeqGap, f.Sensor, gap, len(f.Samples), bound)
		}
		b.seqErrors += gap
		fill := gap * len(f.Samples)
		b.concealed += fill
		hold := b.lastVal[f.Sensor]
		for i := 0; i < fill; i++ {
			*buf = append(*buf, hold)
		}
	}
	b.nextSeq[f.Sensor] = seen + 1

	if n := len(f.Samples); n > 0 {
		b.lastVal[f.Sensor] = f.Samples[n-1].Float()
	}
	for _, q := range f.Samples {
		*buf = append(*buf, q.Float())
	}
	return b.drainWindows()
}

// ConcealedSamples returns how many samples were synthesized to cover
// lost frames.
func (b *BaseStation) ConcealedSamples() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.concealed
}

// StaleFrames returns how many duplicate/out-of-order frames were dropped.
func (b *BaseStation) StaleFrames() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.stale
}

// drainWindows pops and classifies every complete window. Caller holds mu.
func (b *BaseStation) drainWindows() error {
	for len(b.ecg) >= b.wlen && len(b.abp) >= b.wlen {
		// The window gets its own copies (detectors may retain it); the
		// buffers are compacted in place so their capacity is reused.
		ecg := make([]float64, b.wlen)
		abp := make([]float64, b.wlen)
		copy(ecg, b.ecg[:b.wlen])
		copy(abp, b.abp[:b.wlen])
		b.ecg = b.ecg[:copy(b.ecg, b.ecg[b.wlen:])]
		b.abp = b.abp[:copy(b.abp, b.abp[b.wlen:])]

		w := dataset.Window{
			SubjectID: b.cfg.SubjectID,
			Index:     b.windows,
			ECG:       ecg,
			ABP:       abp,
		}
		if b.cfg.DetectPeaksAtRuntime {
			r, err := b.rdet.Detect(ecg)
			if err != nil {
				return fmt.Errorf("wiot: runtime R detection: %w", err)
			}
			s, err := peaks.DetectSystolic(abp, b.cfg.SampleRate)
			if err != nil {
				return fmt.Errorf("wiot: runtime systolic detection: %w", err)
			}
			w.RPeaks = r
			w.SysPeaks = s
			w.Pairs = peaks.Pair(r, s, int(dataset.MaxPairLagSec*b.cfg.SampleRate))
		}

		altered, err := b.cfg.Detector.Classify(w)
		if err != nil {
			return fmt.Errorf("wiot: classify window %d: %w", w.Index, err)
		}
		b.cfg.Sink.Deliver(Alert{WindowIndex: b.windows, Altered: altered, SubjectID: b.cfg.SubjectID})
		b.windows++
	}
	return nil
}
