// Package fleet scales the single-subject WIoT simulation to cohorts: a
// bounded worker pool fans wiot.RunScenario runs out across CPUs, with
// deterministic per-scenario seed derivation, context cancellation,
// fail-fast or collect-errors semantics, and lock-free metrics that can
// be observed while the fleet is in flight. It is the backend layer a
// continuous-authentication deployment needs between many wearers'
// sensor streams and one detector farm.
package fleet

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"

	"github.com/wiot-security/sift/internal/obs"
	"github.com/wiot-security/sift/internal/obs/telemetry"
	"github.com/wiot-security/sift/internal/wiot"
)

// Observability handles for the engine. obsFleetRun prices the whole
// fleet and roots the trace tree; obsSlot prices a whole slot (scenario
// construction — often including detector training — plus the run);
// obsScenarioRun is its child covering just the simulation, so obsSlot's
// self time is the construction cost.
var (
	obsFleetRun    = obs.NewTimer("fleet.run")
	obsSlot        = obs.NewTimer("fleet.slot")
	obsScenarioRun = obs.NewTimer("fleet.scenario.run")
	obsSlotsRun    = obs.NewCounter("fleet.slots")
)

// TraceParentSetter lets a scenario's detector link its own trace spans
// (e.g. per-window VM runs) under the fleet slot that drives it. The
// engine hands the scenario-run span's trace ID to any detector that
// implements it, so a flight recorder renders fleet → scenario → vm as
// one nested tree even though each layer runs its own instrumentation.
type TraceParentSetter interface {
	SetTraceParent(id uint64)
}

// Source builds the scenario for one fleet slot. It is called from
// worker goroutines, so it must be safe for concurrent use and — for
// reproducible fleets — must derive all randomness from the provided
// seed, never from shared state. The seed is BaseSeed + index, so a
// fleet's outcome is a pure function of (BaseSeed, Scenarios, Source)
// regardless of worker count or scheduling.
type Source func(index int, seed int64) (wiot.Scenario, error)

// Slot identifies one fleet slot to a Runner: its index and the derived
// seed (BaseSeed + index) that all slot-local randomness must flow from.
// Trace is the span ID of the slot's scenario-run span (0 when tracing
// is off); a transport-backed Runner propagates it so remote spans join
// the fleet's trace tree.
type Slot struct {
	Index int
	Seed  int64
	Trace uint64
}

// Runner executes one scenario. The default (nil) runs the in-process
// simulation via wiot.RunScenarioContext; a custom Runner can route the
// scenario over a real transport instead — e.g. loopback TCP through a
// fault-injection proxy — while the engine keeps owning scheduling,
// metrics, and aggregation. Runners are called from worker goroutines
// and must be safe for concurrent use.
type Runner func(ctx context.Context, slot Slot, sc wiot.Scenario) (wiot.ScenarioResult, error)

// Config parameterizes a fleet run.
type Config struct {
	Scenarios int   // number of scenario slots to run
	Workers   int   // pool size; <=0 means runtime.GOMAXPROCS(0)
	BaseSeed  int64 // seed for slot 0; slot i uses BaseSeed + i
	// FailFast stops launching new scenarios after the first error and
	// cancels in-flight ones; otherwise errors are collected per slot
	// and the rest of the fleet keeps running.
	FailFast bool
	Metrics  *Metrics // optional; nil disables instrumentation
	// Telemetry, when set, accumulates per-device (per-subject) series:
	// each completed slot records its windows, raised alerts, and wall
	// time under the scenario's subject ID.
	Telemetry *telemetry.Registry
	Source    Source
	// Runner overrides how each slot's scenario executes; nil keeps the
	// in-process simulation.
	Runner Runner
}

// ScenarioError ties a failure to its fleet slot.
type ScenarioError struct {
	Index int
	Err   error
}

func (e ScenarioError) Error() string { return fmt.Sprintf("scenario %d: %v", e.Index, e.Err) }

// Unwrap exposes the underlying cause to errors.Is/As.
func (e ScenarioError) Unwrap() error { return e.Err }

// SubjectOutcome aggregates every completed scenario of one subject.
type SubjectOutcome struct {
	Subject   string
	Scenarios int
	Windows   int
	TruePos   int
	FalseNeg  int
	FalsePos  int
	TrueNeg   int
	SeqErrors int
}

// Accuracy returns the subject's pooled window accuracy.
func (o SubjectOutcome) Accuracy() float64 {
	total := o.TruePos + o.FalseNeg + o.FalsePos + o.TrueNeg
	if total == 0 {
		return 0
	}
	return float64(o.TruePos+o.TrueNeg) / float64(total)
}

// FleetResult aggregates a whole fleet run. For an error-free run it is
// deterministic: identical (BaseSeed, Scenarios, Source) inputs produce
// identical results whether the fleet ran on 1 worker or 64.
type FleetResult struct {
	Scenarios int // slots requested
	Completed int // scenarios that ran to completion
	Failed    int // scenarios that returned an error
	Skipped   int // slots never started (cancellation / fail-fast)

	// Pooled confusion counts over every completed scenario.
	Windows   int
	TruePos   int
	FalseNeg  int
	FalsePos  int
	TrueNeg   int
	SeqErrors int

	PerSubject []SubjectOutcome // sorted by subject ID
	Errors     []ScenarioError  // sorted by slot index
}

// Accuracy returns the fleet-wide pooled window accuracy.
func (r FleetResult) Accuracy() float64 {
	total := r.TruePos + r.FalseNeg + r.FalsePos + r.TrueNeg
	if total == 0 {
		return 0
	}
	return float64(r.TruePos+r.TrueNeg) / float64(total)
}

// Err returns nil for a clean run, the (wrapped) sole failure for one
// error, and a joined error otherwise.
func (r FleetResult) Err() error {
	switch len(r.Errors) {
	case 0:
		return nil
	case 1:
		return r.Errors[0]
	default:
		errs := make([]error, len(r.Errors))
		for i, e := range r.Errors {
			errs[i] = e
		}
		return errors.Join(errs...)
	}
}

// String renders a one-screen fleet summary.
func (r FleetResult) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "fleet: %d scenarios (%d completed, %d failed, %d skipped)\n",
		r.Scenarios, r.Completed, r.Failed, r.Skipped)
	fmt.Fprintf(&sb, "pooled: %d windows TP=%d FN=%d FP=%d TN=%d seq-errors=%d accuracy=%.1f%%\n",
		r.Windows, r.TruePos, r.FalseNeg, r.FalsePos, r.TrueNeg, r.SeqErrors, 100*r.Accuracy())
	for _, s := range r.PerSubject {
		fmt.Fprintf(&sb, "  %-6s %2d scenario(s) %3d windows accuracy %5.1f%%\n",
			s.Subject, s.Scenarios, s.Windows, 100*s.Accuracy())
	}
	return sb.String()
}

// Run executes the fleet and aggregates the outcome. The returned error
// is only for configuration problems; per-scenario failures land in
// FleetResult.Errors (all of them in collect mode, at least the first
// in fail-fast mode).
func Run(ctx context.Context, cfg Config) (FleetResult, error) {
	if cfg.Source == nil {
		return FleetResult{}, errors.New("fleet: config needs a Source")
	}
	if cfg.Scenarios <= 0 {
		return FleetResult{}, fmt.Errorf("fleet: scenario count %d must be positive", cfg.Scenarios)
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > cfg.Scenarios {
		workers = cfg.Scenarios
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	// The root span covers the whole fleet; worker slots parent under it
	// via StartChildOf so an attached flight recorder sees one tree.
	rootSpan := obsFleetRun.Start()
	defer rootSpan.End()
	rootID := rootSpan.TraceID()

	// Workers write disjoint outcome slots, so aggregation needs no lock;
	// the accumulator folds them after the pool drains. Only the summary
	// survives each slot (RunSlot discards per-window alert state), so
	// even a very large unsharded fleet retains O(Scenarios) summaries,
	// not O(windows).
	outcomes := make([]SlotOutcome, cfg.Scenarios)
	indices := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range indices {
				if ctx.Err() != nil {
					return
				}
				outcomes[i] = RunSlot(ctx, cfg, i, rootID)
				if outcomes[i].Err != nil && cfg.FailFast {
					cancel()
					return
				}
			}
		}()
	}
feed:
	for i := 0; i < cfg.Scenarios; i++ {
		select {
		case indices <- i:
		case <-ctx.Done():
			break feed
		}
	}
	close(indices)
	wg.Wait()

	acc := NewAccumulator(cfg.Scenarios)
	for i := range outcomes {
		acc.Observe(outcomes[i])
	}
	return acc.Result(), nil
}

// observedChannel forwards to the scenario's real channel effect and
// mirrors its deliveries into the fleet metrics. It adds no randomness
// of its own, so instrumentation cannot change a run's outcome.
type observedChannel struct {
	inner wiot.ChannelEffect
	m     *Metrics
	one   [1]wiot.Frame // Transmit's result when inner is Reliable
}

// Transmit implements wiot.ChannelEffect. A Reliable inner channel
// delivers f itself, so f goes out in the channel's own buffer rather
// than the one-frame slice Reliable.Transmit allocates per frame.
func (c *observedChannel) Transmit(f wiot.Frame) []wiot.Frame {
	var out []wiot.Frame
	if _, ok := c.inner.(wiot.Reliable); ok {
		c.one[0] = f
		out = c.one[:]
	} else {
		out = c.inner.Transmit(f)
	}
	switch len(out) {
	case 0:
		c.m.FrameLost()
	case 1:
		c.m.FrameDelivered(1)
	default:
		c.m.FrameDuplicated()
		c.m.FrameDelivered(len(out))
	}
	return out
}
