package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"github.com/wiot-security/sift/internal/amulet"
	"github.com/wiot-security/sift/internal/amulet/jit"
	"github.com/wiot-security/sift/internal/amulet/program"
	"github.com/wiot-security/sift/internal/campaign"
	"github.com/wiot-security/sift/internal/dataset"
	"github.com/wiot-security/sift/internal/features"
	"github.com/wiot-security/sift/internal/fleet"
	"github.com/wiot-security/sift/internal/fleet/shard"
	"github.com/wiot-security/sift/internal/physio"
	"github.com/wiot-security/sift/internal/portrait"
	"github.com/wiot-security/sift/internal/sift"
	"github.com/wiot-security/sift/internal/svm"
	"github.com/wiot-security/sift/internal/vmlint"
	"github.com/wiot-security/sift/internal/wiot"
)

// suite is one named benchmark. run builds its fixture, measures, and
// returns the aggregate; quick scales fixture sizes down for CI smoke.
type suite struct {
	name     string
	describe string
	run      func(cfg runConfig, quick bool) (Result, error)
}

// allSuites returns the standardized suite in a stable order: the four
// hot paths the obs layer instruments, in pipeline order.
func allSuites() []suite {
	var suites []suite
	for _, compiled := range []bool{false, true} {
		for _, v := range features.Versions {
			suites = append(suites, deviceSuite(v, compiled))
		}
	}
	for _, v := range features.Versions {
		suites = append(suites, featuresSuite(v))
	}
	suites = append(suites, codecSuite("codec/encode"), codecSuite("codec/decode"))
	for _, w := range []int{1, 4, 8} {
		suites = append(suites, fleetSuite(w))
	}
	for _, s := range []int{1, 4, 8} {
		suites = append(suites, shardSuite(s))
	}
	for _, v := range features.Versions {
		suites = append(suites, vmlintSuite(v))
	}
	suites = append(suites, traceSuite(false), traceSuite(true), telemetrySuite())
	suites = append(suites, federateSuite(false), federateSuite(true))
	suites = append(suites, authScenarioSuite(false), authScenarioSuite(true))
	suites = append(suites, authFrameSuite(wiot.MACHMAC), authFrameSuite(wiot.MACCMAC))
	return suites
}

// benchWindow synthesizes one clean classification window, the same way
// the amulet/program round-trip tests do.
func benchWindow(seed int64) (dataset.Window, error) {
	rec, err := physio.Generate(physio.DefaultSubject(), 6, physio.DefaultSampleRate, seed)
	if err != nil {
		return dataset.Window{}, err
	}
	wins, err := dataset.FromRecord(rec, dataset.WindowSec)
	if err != nil {
		return dataset.Window{}, err
	}
	if len(wins) < 2 {
		return dataset.Window{}, fmt.Errorf("bench record yielded %d windows, need 2", len(wins))
	}
	return wins[1], nil
}

// deviceSuite measures full device-side classifications: marshal the
// window into the data segment, run the detector bytecode on the
// emulated Amulet, decode the verdict. Extra carries the cycle telemetry
// Table III's energy model consumes.
//
// The vm/* suite pins the device to the interpreter, so it stays the
// oracle baseline the jit/* twins are gated against. The jit/* suite
// runs a default device, whose Install compiled the verified bytecode
// with the template JIT; pairing the two in one report is what lets
// -compare gate the compiled backend's speedup floor. After its timed
// batches, Extra attributes the compiled run to its fused loops
// (loopProfile); the timed batches run unprofiled.
func deviceSuite(v features.Version, compiled bool) suite {
	name, backend := "vm/"+v.String(), "interpreter"
	if compiled {
		name, backend = "jit/"+v.String(), "template JIT"
	}
	return suite{
		name:     name,
		describe: fmt.Sprintf("amulet VM (%s): %s detector bytecode, one window per op", backend, v),
		run: func(cfg runConfig, quick bool) (Result, error) {
			if compiled && !amulet.JITEnabled() {
				return Result{}, fmt.Errorf("%s: the JIT is disabled (-nojit); exclude jit/ suites with -suite", name)
			}
			w, err := benchWindow(1)
			if err != nil {
				return Result{}, err
			}
			var dev *amulet.Device
			if !compiled {
				dev = amulet.NewDevice(amulet.WithInterpreter())
			}
			det, err := program.NewDeviceDetector(v, dev, svm.UnitModel(v.Dim()))
			if err != nil {
				return Result{}, err
			}
			if compiled && !det.Device.HasCompiled(det.Program().Name) {
				return Result{}, fmt.Errorf("%s: verified detector bytecode did not compile", name)
			}
			op := func() error {
				_, err := det.Classify(w)
				return err
			}
			res, err := measure(name, "windows/sec", cfg, 0, 1, op)
			if err != nil {
				return Result{}, err
			}
			res.Extra = map[string]float64{
				"cyclesPerWindow": det.AvgCyclesPerWindow(),
				"cyclesPerSec":    det.AvgCyclesPerWindow() * res.OpsPerSec,
			}
			if !compiled {
				return res, nil
			}
			runs := 400
			if quick {
				runs = 100
			}
			if err := loopProfile(v, w, runs, res.Extra); err != nil {
				return Result{}, fmt.Errorf("%s: %w", name, err)
			}
			return res, nil
		},
	}
}

// loopProfile runs the compiled detector runs times on the window's
// marshalled segment, each time on a fresh copy in one reused buffer (as
// DeviceDetector.Classify's pooled segment is), and adds to extra:
//   - "runNs": ns per window of jit.Program.Run, unprofiled;
//   - "marshalNs": ns per window of clearing and filling one reused
//     segment (program.InputInto), the marshalling DeviceDetector.Classify
//     runs on its pooled segment;
//   - "loopNN:<pc range>:<template>": ns per window of each fused loop's
//     kernel dispatches, in Kernels() order, less the cost of an empty
//     timed region per dispatch, so a loop's share of the run is its ns
//     over runNs whatever the clock costs;
//   - "clockNs": that empty timed region, for judging how many dispatches
//     a loop's figure can stand.
func loopProfile(v features.Version, w dataset.Window, runs int, extra map[string]float64) error {
	model := svm.UnitModel(v.Dim())
	p, err := program.Build(v)
	if err != nil {
		return err
	}
	cp, err := jit.Compile(p)
	if err != nil {
		return err
	}
	data, err := program.Input(v, w, model)
	if err != nil {
		return err
	}
	loops := cp.Loops()
	stats := make([]jit.LoopStat, len(loops))
	var run, marshal time.Duration
	buf, seg := make([]int32, len(data)), make([]int32, len(data))
	for r := 0; r < runs; r++ {
		t0 := time.Now()
		if err := program.InputInto(v, w, model, seg); err != nil {
			return err
		}
		marshal += time.Since(t0)
		copy(buf, data)
		t1 := time.Now()
		if _, err := cp.Run(buf, program.MaxCycles, 0); err != nil {
			return err
		}
		run += time.Since(t1)
		copy(buf, data)
		if _, err := cp.RunProfiled(buf, program.MaxCycles, stats); err != nil {
			return err
		}
	}
	var clock time.Duration
	const clockReads = 1000
	for r := 0; r < clockReads; r++ {
		t0 := time.Now()
		clock += time.Since(t0)
	}
	clockNs := float64(clock.Nanoseconds()) / clockReads
	perWindow := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / float64(runs) }
	for k, l := range loops {
		extra[fmt.Sprintf("loop%02d:%s", k, l)] = perWindow(stats[k].Time) - clockNs*float64(stats[k].Dispatches)/float64(runs)
	}
	extra["runNs"] = perWindow(run)
	extra["marshalNs"] = perWindow(marshal)
	extra["clockNs"] = clockNs
	return nil
}

// featuresSuite measures the host-side reference extractor on a fixed
// portrait: the PeaksDataCheck→FeatureExtraction stage cost per window.
func featuresSuite(v features.Version) suite {
	name := "features/" + v.String()
	return suite{
		name:     name,
		describe: fmt.Sprintf("SIFT feature extraction: %s (%d-D) from one portrait", v, v.Dim()),
		run: func(cfg runConfig, quick bool) (Result, error) {
			w, err := benchWindow(2)
			if err != nil {
				return Result{}, err
			}
			p, err := w.Portrait()
			if err != nil {
				return Result{}, err
			}
			op := func() error {
				_, err := features.Extract(v, p, portrait.DefaultGridSize)
				return err
			}
			return measure(name, "extracts/sec", cfg, 0, 1, op)
		},
	}
}

// codecSuite measures the wire codec on a default-chunk frame (90
// samples, one BLE connection event at 360 Hz). Extra carries the byte
// throughput that bounds the streaming budget.
func codecSuite(name string) suite {
	decode := name == "codec/decode"
	verb := "encode"
	if decode {
		verb = "decode"
	}
	return suite{
		name:     name,
		describe: fmt.Sprintf("wiot frame codec: %s one 90-sample frame per op", verb),
		run: func(cfg runConfig, quick bool) (Result, error) {
			samples := make([]float64, 90)
			for i := range samples {
				samples[i] = float64(i%7) * 0.25
			}
			frame := wiot.FrameFromFloats(wiot.SensorECG, 7, samples)
			buf, err := frame.Encode()
			if err != nil {
				return Result{}, err
			}
			op := func() error {
				_, err := frame.Encode()
				return err
			}
			if decode {
				op = func() error {
					_, _, err := wiot.DecodeFrame(buf)
					return err
				}
			}
			res, err := measure(name, "frames/sec", cfg, 0, 1, op)
			if err != nil {
				return Result{}, err
			}
			res.Extra = map[string]float64{
				"bytesPerFrame": float64(len(buf)),
				"mbPerSec":      float64(len(buf)) * res.OpsPerSec / 1e6,
			}
			return res, nil
		},
	}
}

// fleetFixture is the shared cohort for the fleet suites: one trained
// detector and pregenerated live recordings, so the timed region is the
// engine plus the scenario pipeline, not training or signal synthesis.
// The three W variants share it (training once is what lets full mode
// stay under a minute).
type fleetFixture struct {
	scenarios int
	src       fleet.Source
}

var fleetFixtureOnce struct {
	sync.Once
	fix *fleetFixture
	err error
}

func getFleetFixture(quick bool) (*fleetFixture, error) {
	fleetFixtureOnce.Do(func() {
		fleetFixtureOnce.fix, fleetFixtureOnce.err = buildFleetFixture(quick)
	})
	return fleetFixtureOnce.fix, fleetFixtureOnce.err
}

func buildFleetFixture(quick bool) (*fleetFixture, error) {
	const seed = 42
	scenarios := 16
	trainSec, liveSec := 120.0, 12.0
	if quick {
		scenarios = 8
		trainSec = 60
	}
	subjects, err := physio.Cohort(4, seed)
	if err != nil {
		return nil, err
	}
	// The detector is the cohort recipe's wearer 0. The live arm stays
	// the fixture's own: recordings at seed+100+i, each slot's donor the
	// next slot's recording.
	det, err := campaign.TrainWearer(subjects, 0, seed, trainSec, sift.Config{
		SVM: svm.Config{Seed: seed, MaxIter: 100},
	})
	if err != nil {
		return nil, fmt.Errorf("train fixture detector: %w", err)
	}
	live := make([]*physio.Record, scenarios)
	for i := range live {
		live[i], err = physio.Generate(subjects[i%len(subjects)], liveSec, physio.DefaultSampleRate, seed+100+int64(i))
		if err != nil {
			return nil, err
		}
	}
	attackFrom := int(liveSec / 2 * physio.DefaultSampleRate)
	src := func(index int, seed int64) (wiot.Scenario, error) {
		ch, err := wiot.NewLossy(0.02, 0.01, seed)
		if err != nil {
			return wiot.Scenario{}, err
		}
		donor := live[(index+1)%len(live)]
		return wiot.Scenario{
			Record:     live[index],
			Detector:   sift.HostDetector{D: det},
			Attack:     &wiot.SubstitutionMITM{Donor: donor.ECG, ActiveFrom: attackFrom},
			AttackFrom: attackFrom,
			Channel:    ch,
		}, nil
	}
	return &fleetFixture{scenarios: scenarios, src: src}, nil
}

// fleetSuite measures end-to-end fleet throughput at a fixed worker
// count: one op is one scenario (a wearer's full lossy stream scored
// window by window); each timed call runs the whole cohort.
func fleetSuite(workers int) suite {
	name := fmt.Sprintf("fleet/W%d", workers)
	return suite{
		name:     name,
		describe: fmt.Sprintf("fleet engine: cohort of lossy MITM scenarios at %d worker(s)", workers),
		run: func(cfg runConfig, quick bool) (Result, error) {
			fix, err := getFleetFixture(quick)
			if err != nil {
				return Result{}, err
			}
			op := func() error {
				res, err := fleet.Run(context.Background(), fleet.Config{
					Scenarios: fix.scenarios,
					Workers:   workers,
					BaseSeed:  42,
					Source:    fix.src,
				})
				if err != nil {
					return err
				}
				return res.Err()
			}
			res, err := measure(name, "scenarios/sec", cfg, 1, fix.scenarios, op)
			if err != nil {
				return Result{}, err
			}
			res.Extra = map[string]float64{"workers": float64(workers), "cohort": float64(fix.scenarios)}
			return res, nil
		},
	}
}

// shardTotalWorkers is the worker budget every fleet/sharded/* suite
// splits across its stations, matching fleet/W8 so the S-variants
// isolate the control plane's cost: same cohort, same parallelism, the
// only moving part is how many station queues and merge hops sit
// between a slot and the aggregate.
const shardTotalWorkers = 8

// shardSuite measures the sharded control plane end to end on the same
// fixture as the fleet/W* suites: one op runs the whole cohort through
// shard.Run at S stations with the 8-worker budget split evenly. The
// fleet/sharded/S4-vs-fleet/W8 ratio is gated by the shard overhead
// entry of the gates table.
func shardSuite(shards int) suite {
	name := fmt.Sprintf("fleet/sharded/S%d", shards)
	workers := shardTotalWorkers / shards
	if workers < 1 {
		workers = 1
	}
	return suite{
		name: name,
		describe: fmt.Sprintf("sharded control plane: same cohort as fleet/W%d across %d station(s), %d worker(s) each",
			shardTotalWorkers, shards, workers),
		run: func(cfg runConfig, quick bool) (Result, error) {
			fix, err := getFleetFixture(quick)
			if err != nil {
				return Result{}, err
			}
			op := func() error {
				res, err := shard.Run(context.Background(), shard.Config{
					Scenarios: fix.scenarios,
					Shards:    shards,
					Workers:   workers,
					BaseSeed:  42,
					Source:    fix.src,
				})
				if err != nil {
					return err
				}
				return res.Err()
			}
			res, err := measure(name, "scenarios/sec", cfg, 1, fix.scenarios, op)
			if err != nil {
				return Result{}, err
			}
			res.Extra = map[string]float64{
				"shards":            float64(shards),
				"workersPerStation": float64(workers),
				"cohort":            float64(fix.scenarios),
			}
			return res, nil
		},
	}
}

// vmlintSuite prices static verification itself: one op is a full
// vmlint.Analyze of a detector's bytecode — the cost every Assemble now
// pays at build time. Extra carries the statically proven envelope so a
// benchmark report doubles as a resource-bound audit trail.
func vmlintSuite(v features.Version) suite {
	name := "vmlint/" + v.String()
	return suite{
		name:     name,
		describe: fmt.Sprintf("static bytecode verification of the %s detector", v),
		run: func(cfg runConfig, quick bool) (Result, error) {
			p, err := program.Build(v)
			if err != nil {
				return Result{}, err
			}
			op := func() error {
				rep := vmlint.Analyze(p)
				if errs := rep.Errs(); len(errs) > 0 {
					return fmt.Errorf("%s failed verification: %v", p.Name, errs[0])
				}
				return nil
			}
			res, err := measure(name, "verifies/sec", cfg, 0, 1, op)
			if err != nil {
				return Result{}, err
			}
			rep := vmlint.Analyze(p)
			res.Extra = map[string]float64{
				"codeBytes":    float64(len(p.Code)),
				"staticStack":  float64(rep.MaxStack),
				"staticSRAM":   float64(rep.SRAMBytes()),
				"staticCycles": float64(rep.StaticCycles),
			}
			return res, nil
		},
	}
}
