package main

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"time"

	"github.com/wiot-security/sift/internal/amulet/program"
	"github.com/wiot-security/sift/internal/features"
	"github.com/wiot-security/sift/internal/fleet"
	"github.com/wiot-security/sift/internal/fleet/shard"
	"github.com/wiot-security/sift/internal/obs"
	"github.com/wiot-security/sift/internal/obs/federate"
	"github.com/wiot-security/sift/internal/obs/telemetry"
	"github.com/wiot-security/sift/internal/obs/trace"
	"github.com/wiot-security/sift/internal/svm"
)

// obsBenchState saves and restores global obs state around a suite so
// instrumentation benchmarks cannot leak an attached recorder (or a
// changed enable bit) into later suites.
func obsBenchState(attach *trace.Recorder) (restore func()) {
	prev := obs.Enabled()
	obs.SetEnabled(true)
	if attach != nil {
		obs.AttachSink(attach)
	}
	return func() {
		if attach != nil {
			obs.DetachSink()
		}
		obs.SetEnabled(prev)
	}
}

// traceOp is the measured unit for the trace suites: one full device
// window classification — the instrumented hot path a flight recorder
// actually rides along (VM run span plus instruction/cycle counter
// events). Both suites run the identical closure, so trace/on ÷
// trace/off is the recorder's overhead on the workload it observes,
// which is the number the ≤10% CI gate bounds (a flight recorder that
// perturbs the system it records is worthless).
func traceOp() (func() error, error) {
	w, err := benchWindow(1)
	if err != nil {
		return nil, err
	}
	v := features.Simplified
	det, err := program.NewDeviceDetector(v, nil, svm.UnitModel(v.Dim()))
	if err != nil {
		return nil, err
	}
	return func() error {
		_, err := det.Classify(w)
		return err
	}, nil
}

// traceSuite measures the instrumented classification path with the
// flight recorder either detached (trace/off — the baseline every
// obs-enabled binary pays) or attached (trace/on — baseline plus ring
// writes for every span and counter event). -compare gates trace/on
// against trace/off so recorder overhead stays bounded.
func traceSuite(attached bool) suite {
	name := "trace/off"
	describe := "device window classification, obs on, no flight recorder attached"
	if attached {
		name = "trace/on"
		describe = "device window classification with an attached flight recorder"
	}
	return suite{
		name:     name,
		describe: describe,
		run: func(cfg runConfig, quick bool) (Result, error) {
			var rec *trace.Recorder
			if attached {
				rec = trace.New(1<<12, 0)
			}
			restore := obsBenchState(rec)
			defer restore()
			op, err := traceOp()
			if err != nil {
				return Result{}, err
			}
			res, err := measure(name, "windows/sec", cfg, 0, 1, op)
			if err != nil {
				return Result{}, err
			}
			if rec != nil {
				res.Extra = map[string]float64{
					"eventsWritten": float64(rec.Written()),
					"eventsDropped": float64(rec.Drops()),
				}
			}
			return res, nil
		},
	}
}

// captureBenchTrace runs one fleet cohort with the flight recorder
// attached and writes the Chrome trace_event dump — the workflow
// artifact CI uploads so any run's span tree (fleet.run → fleet.slot →
// fleet.scenario.run → amulet.vm.run) loads straight into
// chrome://tracing. It reuses the fleet fixture, so after the fleet
// suites it costs one extra cohort pass.
func captureBenchTrace(path string, quick bool) (int, error) {
	fix, err := getFleetFixture(quick)
	if err != nil {
		return 0, err
	}
	rec := trace.New(1<<14, 0)
	// Same rationale as wiotsim: per-chunk frame codec events would
	// evict the span tree from the ring.
	rec.SetFilter(func(name string) bool {
		return !strings.HasPrefix(name, "wiot.frame.")
	})
	restore := obsBenchState(rec)
	defer restore()
	res, err := fleet.Run(context.Background(), fleet.Config{
		Scenarios: fix.scenarios,
		Workers:   2,
		BaseSeed:  42,
		Source:    fix.src,
	})
	if err != nil {
		return 0, err
	}
	if err := res.Err(); err != nil {
		return 0, err
	}
	obs.DetachSink()
	return len(rec.Snapshot()), rec.WriteChromeTraceFile(path)
}

// telemetrySuite measures one Sampler.SampleOnce over a fleet-sized
// registry (56 devices) plus the registered obs metrics — the recurring
// cost of the -serve sampling loop, not of the hot path it observes.
func telemetrySuite() suite {
	const name = "telemetry/sample"
	const devices = 56
	return suite{
		name:     name,
		describe: fmt.Sprintf("one sampler pass over %d device series plus obs metrics", devices),
		run: func(cfg runConfig, quick bool) (Result, error) {
			restore := obsBenchState(nil)
			defer restore()
			reg := telemetry.NewRegistry()
			for i := 0; i < devices; i++ {
				d := reg.Device(fmt.Sprintf("S%02d", i))
				d.ObserveWindow(120_000, 107, 23.5)
				d.SetLifetimeDays(21.8)
			}
			s := telemetry.NewSampler(0, 256, reg)
			var ts int64
			op := func() error {
				ts++
				s.SampleOnce(ts)
				return nil
			}
			res, err := measure(name, "samples/sec", cfg, 0, 1, op)
			if err != nil {
				return Result{}, err
			}
			series := 0
			for _, ss := range s.Series() {
				if strings.HasPrefix(ss.Name, "device/") {
					series++
				}
			}
			res.Extra = map[string]float64{
				"devices":      devices,
				"deviceSeries": float64(series),
			}
			return res, nil
		},
	}
}

// federateSuite measures the sharded control plane with metrics
// federation either off (federate/off — the plain shard run every
// deployment pays) or on (federate/on — per-station publishers shipping
// cumulative snapshots to a coordinator-side federator on a 10 ms
// cadence, plus the final flushes that make the federated view exact).
// Both suites run the identical cohort, so federate/on ÷ federate/off
// is the federation machinery's overhead on the workload it observes —
// the number the ≤10% compare gate bounds.
func federateSuite(on bool) suite {
	const shards = 4
	workers := shardTotalWorkers / shards
	if workers < 1 {
		workers = 1
	}
	name := "federate/off"
	describe := fmt.Sprintf("sharded cohort across %d stations, metrics federation off (baseline)", shards)
	if on {
		name = "federate/on"
		describe = fmt.Sprintf("sharded cohort across %d stations with per-station snapshot federation every 10 ms", shards)
	}
	return suite{
		name:     name,
		describe: describe,
		run: func(cfg runConfig, quick bool) (Result, error) {
			fix, err := getFleetFixture(quick)
			if err != nil {
				return Result{}, err
			}
			var absorbed float64
			op := func() error {
				scfg := shard.Config{
					Scenarios: fix.scenarios,
					Shards:    shards,
					Workers:   workers,
					BaseSeed:  42,
					Source:    fix.src,
				}
				var fed *federate.Federator
				if on {
					fed = federate.New()
					scfg.Federation = fed
					scfg.FederateEvery = 10 * time.Millisecond
				}
				res, err := shard.Run(context.Background(), scfg)
				if err != nil {
					return err
				}
				if err := res.Err(); err != nil {
					return err
				}
				if on {
					if !reflect.DeepEqual(fed.MergedFleet(), res.MergedMetrics()) {
						return fmt.Errorf("federated view diverged from the merged station metrics")
					}
					absorbed = float64(fed.Absorbed())
				}
				return nil
			}
			res, err := measure(name, "scenarios/sec", cfg, 1, fix.scenarios, op)
			if err != nil {
				return Result{}, err
			}
			res.Extra = map[string]float64{
				"stations":          shards,
				"workersPerStation": float64(workers),
				"cohort":            float64(fix.scenarios),
			}
			if on {
				res.Extra["snapshotsAbsorbed"] = absorbed
				res.Extra["federateEveryMS"] = 10
			}
			return res, nil
		},
	}
}
