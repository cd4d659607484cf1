package shard

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"github.com/wiot-security/sift/internal/dataset"
	"github.com/wiot-security/sift/internal/fleet"
	"github.com/wiot-security/sift/internal/obs/telemetry"
	"github.com/wiot-security/sift/internal/physio"
	"github.com/wiot-security/sift/internal/wiot"
	"github.com/wiot-security/sift/internal/wiot/chaos"
)

// parityDetector mirrors the fleet engine's test detector: verdicts
// depend only on the stream, so slot outcomes are pure functions of the
// slot seed — the property every determinism assertion below rests on.
type parityDetector struct{}

func (parityDetector) Classify(w dataset.Window) (bool, error) { return w.Index%2 == 0, nil }

// cohortSource builds the same deterministic synthetic-wearer source
// the fleet engine tests use: slot i streams subject i%nSubjects over a
// lossy channel, second half of the stream attacked.
func cohortSource(t *testing.T, nSubjects int, durSec float64) fleet.Source {
	t.Helper()
	subjects, err := physio.Cohort(nSubjects, 123)
	if err != nil {
		t.Fatal(err)
	}
	return func(index int, seed int64) (wiot.Scenario, error) {
		rec, err := physio.Generate(subjects[index%nSubjects], durSec, physio.DefaultSampleRate, seed)
		if err != nil {
			return wiot.Scenario{}, err
		}
		ch, err := wiot.NewLossy(0.05, 0.02, seed)
		if err != nil {
			return wiot.Scenario{}, err
		}
		half := len(rec.ECG) / 2
		return wiot.Scenario{
			Record:     rec,
			Detector:   parityDetector{},
			Attack:     wiot.PassThrough{},
			AttackFrom: half,
			Channel:    ch,
		}, nil
	}
}

// oracle runs the unsharded fleet engine over the same inputs — the
// ground truth every sharded aggregate must DeepEqual.
func oracle(t *testing.T, scenarios int, seed int64, src fleet.Source) fleet.FleetResult {
	t.Helper()
	res, err := fleet.Run(context.Background(), fleet.Config{
		Scenarios: scenarios,
		Workers:   4,
		BaseSeed:  seed,
		Source:    src,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestShardedMatchesUnshardedOracle is the tentpole determinism claim:
// for every shard count and per-station worker count the sharded
// aggregate is byte-identical to the unsharded fleet engine's.
func TestShardedMatchesUnshardedOracle(t *testing.T) {
	const scenarios, seed = 24, 7
	src := cohortSource(t, 5, 6)
	want := oracle(t, scenarios, seed, src)
	for _, shards := range []int{1, 2, 8} {
		for _, workers := range []int{1, 8} {
			t.Run(fmt.Sprintf("S%dW%d", shards, workers), func(t *testing.T) {
				res, err := Run(context.Background(), Config{
					Scenarios: scenarios,
					Shards:    shards,
					Workers:   workers,
					BaseSeed:  seed,
					Source:    src,
					BatchSize: 3, // small batches so merging actually interleaves
				})
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(res.FleetResult, want) {
					t.Errorf("sharded aggregate diverged from oracle:\n got: %+v\nwant: %+v", res.FleetResult, want)
				}
				if res.Deaths != 0 || res.Rebalanced != 0 {
					t.Errorf("clean run recorded deaths=%d rebalanced=%d", res.Deaths, res.Rebalanced)
				}
				merged := res.MergedMetrics()
				if merged.ScenariosCompleted != int64(scenarios) || merged.ScenariosStarted != int64(scenarios) {
					t.Errorf("merged metrics started/completed = %d/%d, want %d/%d",
						merged.ScenariosStarted, merged.ScenariosCompleted, scenarios, scenarios)
				}
				if merged.LatencyCount() != int64(scenarios) {
					t.Errorf("merged latency observations = %d, want %d", merged.LatencyCount(), scenarios)
				}
			})
		}
	}
}

// TestShardedKillMidRunMatchesOracle kills a station after it completed
// two slots and requires the rebalanced run to still match the oracle
// byte for byte, with the control-plane accounting and station registry
// reflecting the death.
func TestShardedKillMidRunMatchesOracle(t *testing.T) {
	const scenarios, seed = 24, 7
	src := cohortSource(t, 5, 6)
	want := oracle(t, scenarios, seed, src)
	reg := wiot.NewStationRegistry()
	res, err := Run(context.Background(), Config{
		Scenarios: scenarios,
		Shards:    4,
		Workers:   2,
		BaseSeed:  seed,
		Source:    src,
		BatchSize: 2,
		Registry:  reg,
		Kill:      &KillPlan{Station: 1, AfterSlots: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.FleetResult, want) {
		t.Errorf("post-failover aggregate diverged from oracle:\n got: %+v\nwant: %+v", res.FleetResult, want)
	}
	if res.Deaths != 1 {
		t.Fatalf("deaths = %d, want 1", res.Deaths)
	}
	st := res.Stations[1]
	if !st.Died || st.Requeued == 0 {
		t.Errorf("killed station stats = %+v, want died with requeued slots", st)
	}
	if res.Rebalanced != st.Requeued {
		t.Errorf("rebalanced = %d, want %d (the dead station's requeued slots)", res.Rebalanced, st.Requeued)
	}
	adopted := 0
	for k, s := range res.Stations {
		if k != 1 {
			adopted += s.Adopted
			if s.Died {
				t.Errorf("station %d reported dead, only station 1 was killed", k)
			}
		}
	}
	if adopted != st.Requeued {
		t.Errorf("survivors adopted %d slots, want %d", adopted, st.Requeued)
	}
	info, ok := reg.Lookup("station-01")
	if !ok || info.State != wiot.StationDead {
		t.Errorf("registry entry for killed station = %+v, %v; want dead", info, ok)
	}
	if live := reg.Live(); live != 3 {
		t.Errorf("registry live count = %d, want 3", live)
	}
}

// TestShardedKillBeforeFirstSlot kills a station before it completes
// anything: the whole stripe fails over and the aggregate still matches.
func TestShardedKillBeforeFirstSlot(t *testing.T) {
	const scenarios, seed = 12, 7
	src := cohortSource(t, 3, 6)
	want := oracle(t, scenarios, seed, src)
	res, err := Run(context.Background(), Config{
		Scenarios: scenarios,
		Shards:    3,
		Workers:   2,
		BaseSeed:  seed,
		Source:    src,
		Kill:      &KillPlan{Station: 0, AfterSlots: 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.FleetResult, want) {
		t.Errorf("aggregate diverged from oracle after immediate kill:\n got: %+v\nwant: %+v", res.FleetResult, want)
	}
	if got := res.Stations[0]; !got.Died || got.Completed != 0 || got.Requeued != got.Assigned {
		t.Errorf("station 0 stats = %+v, want died before completing anything", got)
	}
}

// TestShardedFailoverOnSlotError: with FailoverOnError a station's
// first slot failure is treated as station death; the failing slot is
// retried on a survivor where its (deterministic) error is recorded as
// a real failure — exactly the error set the oracle records.
func TestShardedFailoverOnSlotError(t *testing.T) {
	const scenarios, seed, badSlot = 18, 7, 5
	errBroken := errors.New("synthetic sensor fault")
	src := cohortSource(t, 3, 6)
	failing := func(index int, s int64) (wiot.Scenario, error) {
		if index == badSlot {
			return wiot.Scenario{}, errBroken
		}
		return src(index, s)
	}
	want := oracle(t, scenarios, seed, failing)
	if want.Failed != 1 {
		t.Fatalf("oracle failed = %d, want 1", want.Failed)
	}
	res, err := Run(context.Background(), Config{
		Scenarios:       scenarios,
		Shards:          3,
		Workers:         2,
		BaseSeed:        seed,
		Source:          failing,
		FailoverOnError: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.FleetResult, want) {
		t.Errorf("failover aggregate diverged from oracle:\n got: %+v\nwant: %+v", res.FleetResult, want)
	}
	if res.Deaths != 1 {
		t.Errorf("deaths = %d, want 1 (the station that first hit slot %d)", res.Deaths, badSlot)
	}
	if len(res.Errors) != 1 || res.Errors[0].Index != badSlot {
		t.Errorf("errors = %v, want exactly slot %d", res.Errors, badSlot)
	}
}

// TestShardedAllStationsDead: when every station dies the run reports
// ErrNoLiveStations and accounts the unserved slots as skipped instead
// of hanging.
func TestShardedAllStationsDead(t *testing.T) {
	errBroken := errors.New("synthetic sensor fault")
	res, err := Run(context.Background(), Config{
		Scenarios: 12,
		Shards:    2,
		Workers:   1,
		BaseSeed:  7,
		Source: func(index int, seed int64) (wiot.Scenario, error) {
			return wiot.Scenario{}, errBroken
		},
		FailoverOnError: true,
	})
	if !errors.Is(err, ErrNoLiveStations) {
		t.Fatalf("err = %v, want ErrNoLiveStations", err)
	}
	if res.Deaths != 2 {
		t.Errorf("deaths = %d, want 2", res.Deaths)
	}
	if res.Skipped == 0 {
		t.Errorf("skipped = 0, want the unserved remainder of the cohort")
	}
	if res.Completed != 0 {
		t.Errorf("completed = %d, want 0", res.Completed)
	}
}

// TestShardedStreamDropsPerSubject: streamed mode must match the oracle
// on everything except the per-subject breakdown, which it deliberately
// does not retain.
func TestShardedStreamDropsPerSubject(t *testing.T) {
	const scenarios, seed = 16, 7
	src := cohortSource(t, 4, 6)
	want := oracle(t, scenarios, seed, src)
	want.PerSubject = nil
	res, err := Run(context.Background(), Config{
		Scenarios: scenarios,
		Shards:    4,
		Workers:   2,
		BaseSeed:  seed,
		Source:    src,
		Stream:    true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.PerSubject != nil {
		t.Fatalf("streamed run retained %d per-subject rows", len(res.PerSubject))
	}
	if !reflect.DeepEqual(res.FleetResult, want) {
		t.Errorf("streamed aggregate diverged from oracle:\n got: %+v\nwant: %+v", res.FleetResult, want)
	}
}

// TestShardedTelemetryMerged: per-station telemetry registries fold
// into the caller's registry after the run, covering every subject.
func TestShardedTelemetryMerged(t *testing.T) {
	const scenarios, seed = 12, 7
	reg := telemetry.NewRegistry()
	res, err := Run(context.Background(), Config{
		Scenarios: scenarios,
		Shards:    3,
		Workers:   2,
		BaseSeed:  seed,
		Source:    cohortSource(t, 4, 6),
		Telemetry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	snaps := reg.Snapshot()
	if len(snaps) != 4 {
		t.Fatalf("merged telemetry devices = %d, want 4", len(snaps))
	}
	var scen int64
	for _, s := range snaps {
		scen += s.Scenarios
	}
	if scen != int64(res.Completed) {
		t.Errorf("merged telemetry scenarios = %d, want %d", scen, res.Completed)
	}
}

// contentHashDetector and hashSource mirror the fleet transport test:
// verdicts hash the exact sample values, so any transport corruption
// that leaks through the reliability layer flips the aggregate.
type contentHashDetector struct{}

func (contentHashDetector) Classify(w dataset.Window) (bool, error) {
	var h uint64 = 1469598103934665603
	for _, s := range [][]float64{w.ECG, w.ABP} {
		for _, v := range s {
			h ^= math.Float64bits(v)
			h *= 1099511628211
		}
	}
	return h&1 == 1, nil
}

func hashSource(t *testing.T, nSubjects int, durSec float64) fleet.Source {
	t.Helper()
	subjects, err := physio.Cohort(nSubjects, 321)
	if err != nil {
		t.Fatal(err)
	}
	return func(index int, seed int64) (wiot.Scenario, error) {
		rec, err := physio.Generate(subjects[index%nSubjects], durSec, physio.DefaultSampleRate, seed)
		if err != nil {
			return wiot.Scenario{}, err
		}
		ch, err := wiot.NewLossy(0.05, 0, seed)
		if err != nil {
			return wiot.Scenario{}, err
		}
		return wiot.Scenario{
			Record:   rec,
			Detector: contentHashDetector{},
			Channel:  ch,
		}, nil
	}
}

// TestShardedChaosPartitionFailover is the end-to-end failover drill:
// every station dials out over real TCP with chaos fault injection
// (frame corruption, mid-frame cuts), and station 1's uplink partitions
// for good after its first completed slot. The coordinator must detect
// the dead station, requeue its slots onto survivors, and still produce
// an aggregate byte-identical to a clean unsharded in-process run. The
// drill must also end promptly: a slot cancelled mid-flush stops its
// sinks at once instead of waiting out their 10 s CloseTimeout.
func TestShardedChaosPartitionFailover(t *testing.T) {
	const scenarios, seed = 6, 17
	const wallBound = 5 * time.Second
	want := oracle(t, scenarios, seed, hashSource(t, 3, 9))

	overChaosTCP := func(ctx context.Context, slot fleet.Slot, sc wiot.Scenario) (wiot.ScenarioResult, error) {
		return wiot.RunScenarioOverTCP(ctx, sc, wiot.NetConfig{
			Seed: slot.Seed,
			WrapListener: chaos.WrapListener(chaos.Config{
				Seed:        slot.Seed,
				CorruptProb: 0.05,
				CutProb:     0.01,
			}),
		})
	}
	errPartition := errors.New("station 1: uplink partitioned")
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	reg := wiot.NewStationRegistry()
	start := time.Now()
	res, err := Run(ctx, Config{
		Scenarios: scenarios,
		Shards:    3,
		Workers:   2,
		BaseSeed:  seed,
		Source:    hashSource(t, 3, 9),
		Registry:  reg,
		AddrFor:   func(station int) string { return fmt.Sprintf("tcp+chaos/%d", station) },
		RunnerFor: func(station int) fleet.Runner {
			if station != 1 {
				return overChaosTCP
			}
			var served atomic.Int64
			return func(ctx context.Context, slot fleet.Slot, sc wiot.Scenario) (wiot.ScenarioResult, error) {
				if served.Add(1) > 1 {
					return wiot.ScenarioResult{}, errPartition
				}
				return overChaosTCP(ctx, slot, sc)
			}
		},
		FailoverOnError: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > wallBound {
		t.Errorf("failover drill took %v, want under %v", elapsed, wallBound)
	}
	if res.Deaths != 1 || !res.Stations[1].Died {
		t.Fatalf("expected station 1 to die, got deaths=%d stats=%+v", res.Deaths, res.Stations)
	}
	if !reflect.DeepEqual(res.FleetResult, want) {
		t.Errorf("chaos failover aggregate diverged from clean oracle:\n got: %+v\nwant: %+v", res.FleetResult, want)
	}
	if info, ok := reg.Lookup("station-01"); !ok || info.State != wiot.StationDead {
		t.Errorf("registry entry for partitioned station = %+v, %v; want dead", info, ok)
	}
}

// TestShardedRunLeavesNoGoroutines: repeated sharded runs, including
// ones with a mid-run kill, must not leak station goroutines.
func TestShardedRunLeavesNoGoroutines(t *testing.T) {
	src := cohortSource(t, 3, 6)
	before := runtime.NumGoroutine()
	for i := 0; i < 3; i++ {
		if _, err := Run(context.Background(), Config{
			Scenarios: 12,
			Shards:    4,
			Workers:   2,
			BaseSeed:  7,
			Source:    src,
			Kill:      &KillPlan{Station: 2, AfterSlots: 1},
		}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		if runtime.NumGoroutine() <= before+1 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutine leak: %d before, %d after", before, runtime.NumGoroutine())
}

func TestShardConfigValidation(t *testing.T) {
	if _, err := Run(context.Background(), Config{Scenarios: 4}); err == nil {
		t.Error("nil Source accepted")
	}
	src := cohortSource(t, 1, 6)
	if _, err := Run(context.Background(), Config{Scenarios: 0, Source: src}); err == nil {
		t.Error("zero scenarios accepted")
	}
	if _, err := Run(context.Background(), Config{
		Scenarios: 4, Shards: 2, Source: src, Kill: &KillPlan{Station: 7},
	}); err == nil {
		t.Error("kill plan for nonexistent station accepted")
	}
}

// TestShardedHonoursCancelledContext: a pre-cancelled context yields a
// fully-skipped run, mirroring the unsharded engine's behaviour.
func TestShardedHonoursCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := Run(ctx, Config{
		Scenarios: 8,
		Shards:    2,
		Workers:   2,
		BaseSeed:  7,
		Source:    cohortSource(t, 2, 6),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 0 || res.Skipped != 8 {
		t.Errorf("completed/skipped = %d/%d, want 0/8", res.Completed, res.Skipped)
	}
}
