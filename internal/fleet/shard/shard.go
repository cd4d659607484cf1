// Package shard is the multi-station control plane over the fleet
// engine: it partitions a cohort across N station backends (in-process
// worker pools, or scenario runners dialing out over the chaos-capable
// TCP path), aggregates verdicts in batches as they stream back, and
// rebalances a dead station's remaining slots onto the survivors.
//
// The determinism bar from the single-process engine carries over and
// gets harder: the aggregate FleetResult is byte-identical for any
// shard count and any per-station worker count — including runs where
// a station is killed mid-flight — because every slot's outcome is a
// pure function of (BaseSeed+index, Source, Runner), the coordinator
// deduplicates slot verdicts by index, and the accumulator's fold is
// order-independent. fleet.Run over the same inputs is the oracle the
// tests DeepEqual against.
//
// Memory is bounded by design: stations materialize a scenario only
// while a worker runs it, verdicts travel as fixed-size summaries, and
// the coordinator retains one bit per slot plus the pooled confusion
// totals (streamed mode drops even the per-subject breakdown), so a
// million-wearer run holds the same working set as a thousand-wearer
// one.
package shard

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"time"

	"github.com/wiot-security/sift/internal/fleet"
	"github.com/wiot-security/sift/internal/obs"
	"github.com/wiot-security/sift/internal/obs/federate"
	"github.com/wiot-security/sift/internal/obs/telemetry"
	"github.com/wiot-security/sift/internal/wiot"
)

// Observability handles. The run timer roots the trace tree (station
// slots parent under it exactly like unsharded fleet slots); the
// counters surface control-plane events in /metrics.
var (
	obsShardRun        = obs.NewTimer("shard.run")
	obsShardBatches    = obs.NewCounter("shard.batches")
	obsShardDeaths     = obs.NewCounter("shard.deaths")
	obsShardRebalanced = obs.NewCounter("shard.rebalanced")
)

// ErrNoLiveStations reports that every station died with cohort slots
// still unserved; the unserved slots are counted as skipped in the
// result.
var ErrNoLiveStations = errors.New("shard: all stations dead with slots remaining")

// KillPlan deterministically kills one station mid-run: the station
// dies immediately after completing AfterSlots slots (AfterSlots <= 0
// kills it before it completes any). Tests and chaos drills use it to
// exercise failover without depending on scheduling.
type KillPlan struct {
	Station    int
	AfterSlots int
}

// Config parameterizes a sharded fleet run.
type Config struct {
	Scenarios int   // cohort slots, striped across stations
	Shards    int   // station count; <=0 means 1, capped at Scenarios
	Workers   int   // worker pool per station; <=0 means GOMAXPROCS/Shards (min 1)
	BaseSeed  int64 // slot i uses BaseSeed + i, same derivation as fleet.Run

	Source fleet.Source
	// Runner executes each slot's scenario (nil = in-process
	// simulation); RunnerFor overrides it per station, which is how a
	// deployment gives every station its own dial-out transport (e.g.
	// chaos TCP with a station-specific fault schedule).
	Runner    fleet.Runner
	RunnerFor func(station int) fleet.Runner
	// AddrFor labels each station's dial-out address in the station
	// registry (display only); nil labels every station "inproc".
	AddrFor func(station int) string

	// BatchSize is how many verdicts a station worker accumulates
	// before flushing one aggregation message to the coordinator (<=0
	// means 64).
	BatchSize int

	// Stream drops the per-subject breakdown from the aggregate so
	// memory stays flat when every wearer is a distinct subject.
	Stream bool
	// FailFast cancels the whole run on the first merged failure.
	FailFast bool
	// FailoverOnError treats a station's first slot error as station
	// death: the station is cancelled and all its unmerged slots are
	// reassigned to survivors (where a slot failing again is recorded
	// as a real failure rather than cascading). Off, errors are
	// collected per slot exactly like fleet.Run.
	FailoverOnError bool

	// Telemetry, when set, receives the merged per-device series from
	// every station after the run (each station records into a private
	// registry while running). Per-station fleet metrics are always
	// kept; Result.MergedMetrics folds them into one view.
	Telemetry *telemetry.Registry
	Registry  *wiot.StationRegistry
	Kill      *KillPlan // optional deterministic mid-run station kill

	// Federation, when set, receives each station's cumulative
	// observability snapshot on the FederateEvery cadence plus a final
	// flush per station — at station death and again when the run ends —
	// so a coordinator-side /metrics can present the live fleet-wide
	// view. After Run returns, Federation.MergedFleet() equals
	// Result.MergedMetrics() exactly. FederateEvery <= 0 ships only the
	// final flushes (cadence never affects verdicts, only freshness).
	Federation    *federate.Federator
	FederateEvery time.Duration
}

// StationStats is one station's control-plane accounting. Completed
// and Failed describe verdicts the coordinator merged from this
// station; during failover races a slot may legitimately execute on
// two stations, and only the first-merged verdict is attributed, so
// per-station counts are operator telemetry — the FleetResult is the
// deterministic artifact.
type StationStats struct {
	ID        string
	Assigned  int // slots striped to the station at start
	Adopted   int // slots inherited from dead stations
	Requeued  int // slots handed to survivors when this station died
	Completed int
	Failed    int
	Died      bool
	Metrics   fleet.Snapshot
}

// Result is a sharded run's outcome: the fleet aggregate (identical to
// an unsharded run's) plus per-station accounting.
type Result struct {
	fleet.FleetResult
	Stations   []StationStats
	Deaths     int
	Rebalanced int // slots reassigned to survivors across all deaths
}

// MergedMetrics folds every station's metrics snapshot into one
// fleet-wide view (counter sums, bucket-wise histogram merge).
func (r Result) MergedMetrics() fleet.Snapshot {
	var out fleet.Snapshot
	for _, st := range r.Stations {
		out = out.Merge(st.Metrics)
	}
	return out
}

// String renders the fleet summary plus a per-station table.
func (r Result) String() string {
	s := r.FleetResult.String()
	for _, st := range r.Stations {
		state := "live"
		if st.Died {
			state = "DIED"
		}
		s += fmt.Sprintf("  %-12s %s: %d assigned, %d adopted, %d requeued, %d completed, %d failed\n",
			st.ID, state, st.Assigned, st.Adopted, st.Requeued, st.Completed, st.Failed)
	}
	return s
}

// Run executes the sharded fleet and aggregates the outcome. The
// returned error is for configuration problems or a control-plane
// failure (every station dead); per-scenario failures land in the
// result's Errors exactly as with fleet.Run.
func Run(ctx context.Context, cfg Config) (Result, error) {
	if cfg.Source == nil {
		return Result{}, errors.New("shard: config needs a Source")
	}
	if cfg.Scenarios <= 0 {
		return Result{}, fmt.Errorf("shard: scenario count %d must be positive", cfg.Scenarios)
	}
	shards := cfg.Shards
	if shards <= 0 {
		shards = 1
	}
	if shards > cfg.Scenarios {
		shards = cfg.Scenarios
	}
	if cfg.Kill != nil && (cfg.Kill.Station < 0 || cfg.Kill.Station >= shards) {
		return Result{}, fmt.Errorf("shard: kill plan names station %d, have %d", cfg.Kill.Station, shards)
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0) / shards
		if workers < 1 {
			workers = 1
		}
	}
	batch := cfg.BatchSize
	if batch <= 0 {
		batch = 64
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	rootSpan := obsShardRun.Start()
	defer rootSpan.End()

	c := &coordinator{
		cfg:          cfg,
		scenarios:    cfg.Scenarios,
		shards:       shards,
		batch:        batch,
		traceRoot:    rootSpan.TraceID(),
		cancelAll:    cancel,
		msgs:         make(chan message, shards*workers),
		acc:          fleet.NewAccumulator(cfg.Scenarios),
		doneBits:     newBitset(cfg.Scenarios),
		adopted:      make([][]int, shards),
		stats:        make([]StationStats, shards),
		extrasClosed: make([]bool, shards),
		stations:     make([]*station, shards),
	}
	if cfg.Stream {
		c.acc.SkipSubjects()
	}
	for k := 0; k < shards; k++ {
		c.alive = append(c.alive, k)
		c.stations[k] = newStation(ctx, c, k, workers)
		c.stats[k] = StationStats{
			ID:       c.stations[k].id,
			Assigned: (cfg.Scenarios - k + shards - 1) / shards,
		}
		if cfg.Registry != nil {
			addr := "inproc"
			if cfg.AddrFor != nil {
				addr = cfg.AddrFor(k)
			}
			cfg.Registry.Register(c.stations[k].id, addr)
			cfg.Registry.SetSlots(c.stations[k].id, c.stats[k].Assigned)
		}
	}
	if cfg.Federation != nil {
		c.pubs = make([]*federate.Publisher, shards)
		for k, st := range c.stations {
			c.pubs[k] = federate.NewPublisher(federate.PublisherConfig{
				Station:   st.id,
				Metrics:   &st.metrics,
				Telemetry: st.telem,
				Into:      cfg.Federation,
				Interval:  cfg.FederateEvery,
			})
		}
	}
	for _, st := range c.stations {
		st.start(c)
	}
	for _, p := range c.pubs {
		p.Start()
	}

	c.mergeLoop()

	// Every station worker has exited (drained messages trail the last
	// flush), so these final publishes carry each station's frozen
	// totals: the federated view now equals MergedMetrics exactly.
	for _, p := range c.pubs {
		p.Stop()
	}

	if cfg.Telemetry != nil {
		for _, st := range c.stations {
			cfg.Telemetry.Merge(st.telem)
		}
	}
	res := Result{
		FleetResult: c.acc.Result(),
		Stations:    c.stats,
		Deaths:      c.deaths,
		Rebalanced:  c.rebalanced,
	}
	for k, st := range c.stations {
		res.Stations[k].Metrics = st.metrics.Snapshot()
	}
	return res, c.err
}
