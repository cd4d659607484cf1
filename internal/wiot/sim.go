package wiot

import (
	"context"
	"errors"
	"fmt"

	"github.com/wiot-security/sift/internal/physio"
)

// Scenario describes one end-to-end WIoT run: a subject's live recording
// streamed to the base station, optionally with a MITM attack on the ECG
// channel for part of the stream.
type Scenario struct {
	Record     *physio.Record
	Detector   Detector
	Attack     Interceptor // nil = no attack
	AttackFrom int         // victim sample index where the attack starts (ground truth)
	AttackTo   int         // exclusive end; 0 = end of stream

	// Channel models the wireless link (nil = reliable delivery). The
	// base station's sequence numbers conceal losses, keeping the two
	// sensor streams aligned.
	Channel ChannelEffect
}

// ScenarioResult summarizes the run.
type ScenarioResult struct {
	Alerts       []Alert
	Windows      int
	TruePos      int // attacked windows flagged
	FalseNeg     int // attacked windows missed
	FalsePos     int // clean windows flagged
	TrueNeg      int
	SeqErrors    int
	WindowLength int // samples per window
	Concealed    int // samples synthesized to cover lost frames
	Stale        int // duplicate/out-of-order frames dropped
	PeakLead     int // most complete windows one sensor held waiting for the other's
}

// Accuracy returns the fraction of windows classified correctly.
func (r ScenarioResult) Accuracy() float64 {
	total := r.TruePos + r.FalseNeg + r.FalsePos + r.TrueNeg
	if total == 0 {
		return 0
	}
	return float64(r.TruePos+r.TrueNeg) / float64(total)
}

// RunScenario drives the in-process simulation to completion: both
// sensors stream their full recording through the (possibly hostile)
// channel into the base station, and every completed window's verdict is
// scored against the attack interval's ground truth.
func RunScenario(sc Scenario) (ScenarioResult, error) {
	return RunScenarioContext(context.Background(), sc)
}

// DefaultChunkSize is the samples per frame of every scenario: 90
// samples = 0.25 s at 360 Hz, one BLE connection event. The campaign
// layer's fault-schedule compilation relies on it to translate frame
// sequence numbers back into sample positions.
const DefaultChunkSize = 90

// RunScenarioContext is RunScenario with cancellation: the frame loop
// checks ctx between BLE connection events and aborts with ctx's error
// as soon as it is cancelled, so a fleet engine can tear down in-flight
// scenarios promptly.
func RunScenarioContext(ctx context.Context, sc Scenario) (ScenarioResult, error) {
	return sc.run(func(station *BaseStation) error { return sc.stream(ctx, station, station) })
}

// run applies the scenario's defaults in place, builds the base station
// that scores it (runtime peak detection on, verdicts into a MemorySink),
// has deliver carry the recording to it, and grades the verdicts. Every
// scenario runner is a deliver function around it, so they all drive
// identical streams.
func (sc *Scenario) run(deliver func(*BaseStation) error) (ScenarioResult, error) {
	if sc.Record == nil {
		return ScenarioResult{}, errors.New("wiot: scenario needs a record")
	}
	hasAttack := sc.Attack != nil
	if !hasAttack {
		sc.Attack = PassThrough{}
	}
	if sc.Channel == nil {
		sc.Channel = Reliable{}
	}
	sink := &MemorySink{}
	station, err := NewBaseStation(StationConfig{
		SubjectID:  sc.Record.SubjectID,
		SampleRate: sc.Record.SampleRate,
		Detector:   sc.Detector,
		Sink:       sink,
	})
	if err != nil {
		return ScenarioResult{}, err
	}
	if err := deliver(station); err != nil {
		return ScenarioResult{}, err
	}
	return scoreScenario(*sc, hasAttack, station, sink.Alerts()), nil
}

// stream plays the scenario's recording into ecg and abp, interleaving
// the two sensors frame by frame as a BLE connection schedule would: the
// ECG frame passes the attack hook, and both pass the channel. It checks
// ctx between connection events and stops at the first frame a sink
// refuses.
func (sc *Scenario) stream(ctx context.Context, ecg, abp FrameSink) error {
	es, err := NewSensor(SensorECG, sc.Record, DefaultChunkSize)
	if err != nil {
		return err
	}
	as, err := NewSensor(SensorABP, sc.Record, DefaultChunkSize)
	if err != nil {
		return err
	}
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		ef, okE := es.Next()
		af, okA := as.Next()
		if !okE && !okA {
			return nil
		}
		if okE {
			if err := sc.transmit(ecg, sc.Attack.Intercept(ef)); err != nil {
				return fmt.Errorf("wiot: ECG frame: %w", err)
			}
		}
		if okA {
			if err := sc.transmit(abp, af); err != nil {
				return fmt.Errorf("wiot: ABP frame: %w", err)
			}
		}
	}
}

// transmit passes f over the scenario's channel into sink. A Reliable
// channel delivers f itself, which is what its Transmit returns, but
// without the one-frame slice that Transmit allocates per frame.
func (sc *Scenario) transmit(sink FrameSink, f Frame) error {
	if _, ok := sc.Channel.(Reliable); ok {
		return sink.HandleFrame(f)
	}
	for _, d := range sc.Channel.Transmit(f) {
		if err := sink.HandleFrame(d); err != nil {
			return err
		}
	}
	return nil
}

// scoreScenario grades a completed run's alerts against the attack
// interval's ground truth, shared by every scenario runner.
func scoreScenario(sc Scenario, hasAttack bool, station *BaseStation, alerts []Alert) ScenarioResult {
	stats := station.Stats()
	res := ScenarioResult{
		Alerts:       alerts,
		Windows:      stats.Windows,
		SeqErrors:    stats.SeqErrors,
		Concealed:    stats.Concealed,
		Stale:        stats.Stale,
		PeakLead:     stats.PeakLead,
		WindowLength: station.wlen,
	}
	attackFrom, attackTo := sc.AttackFrom, sc.AttackTo
	if attackTo == 0 {
		attackTo = len(sc.Record.ECG)
	}
	if !hasAttack {
		attackFrom, attackTo = 0, 0 // empty interval: nothing is attacked
	}
	for _, a := range res.Alerts {
		lo := a.WindowIndex * res.WindowLength
		hi := lo + res.WindowLength
		// A window counts as attacked if at least half of it overlaps the
		// attack interval.
		overlap := intersect(lo, hi, attackFrom, attackTo)
		attacked := overlap*2 >= res.WindowLength
		switch {
		case attacked && a.Altered:
			res.TruePos++
		case attacked && !a.Altered:
			res.FalseNeg++
		case !attacked && a.Altered:
			res.FalsePos++
		default:
			res.TrueNeg++
		}
	}
	return res
}

func intersect(aLo, aHi, bLo, bHi int) int {
	lo, hi := aLo, aHi
	if bLo > lo {
		lo = bLo
	}
	if bHi < hi {
		hi = bHi
	}
	if hi < lo {
		return 0
	}
	return hi - lo
}
