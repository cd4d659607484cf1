// Command wiotsim runs the end-to-end WIoT environment of Fig 1: a
// subject's ECG and ABP sensors stream to the base station, a
// man-in-the-middle hijacks the ECG channel partway through, and the
// trained SIFT detector on the base station raises alerts.
//
// With -fleet N it instead streams N cohort subjects concurrently
// through the fleet engine (-workers bounds the pool) over a lossy
// wireless link and prints the aggregate result plus a metrics
// snapshot.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"github.com/wiot-security/sift/internal/amulet"
	"github.com/wiot-security/sift/internal/campaign"
	"github.com/wiot-security/sift/internal/dataset"
	"github.com/wiot-security/sift/internal/features"
	"github.com/wiot-security/sift/internal/fleet"
	"github.com/wiot-security/sift/internal/fleet/shard"
	"github.com/wiot-security/sift/internal/obs/federate"
	"github.com/wiot-security/sift/internal/obs/logx"
	"github.com/wiot-security/sift/internal/physio"
	"github.com/wiot-security/sift/internal/sift"
	"github.com/wiot-security/sift/internal/svm"
	"github.com/wiot-security/sift/internal/wiot"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "build" {
		os.Exit(buildMain(os.Args[2:], os.Stdout, os.Stderr))
	}
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "wiotsim:", err)
		os.Exit(1)
	}
}

func run() error {
	seed := flag.Int64("seed", 42, "simulation seed")
	liveSec := flag.Float64("live", 120, "seconds of live signal to stream")
	trainSec := flag.Float64("train", 300, "seconds of training signal")
	versionName := flag.String("version", "Original", "detector version (Original|Simplified|Reduced)")
	attackAt := flag.Float64("attack-at", 60, "second at which the MITM starts hijacking the ECG channel (adapts to half the live span when left default on a short -live)")
	fleetN := flag.Int("fleet", 0, "stream N cohort subjects concurrently instead of the single-subject demo")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0), "fleet worker pool size (must be positive)")
	loss := flag.Float64("loss", 0.02, "fleet mode: frame loss probability on the wireless link")
	dup := flag.Float64("dup", 0.01, "fleet mode: frame duplication probability")
	chaosMode := flag.Bool("chaos", false, "fleet mode: stream every scenario over real TCP through a fault injector (-loss becomes the frame corruption probability, half of it the mid-frame cut probability)")
	authMode := flag.Bool("auth", false, "chaos fleet mode: run the TCP transport over authenticated wire v3 — HMAC session onboarding plus per-frame MACs from a seed-derived master secret (needs -chaos)")
	shards := flag.Int("shards", 0, "fleet mode: partition the cohort across N stations via the sharded control plane (-workers becomes the per-station pool)")
	stream := flag.Bool("stream", false, "sharded fleet mode: streamed smoke run — one shared detector, short per-wearer spans, no per-subject state, bounded memory (requires -shards)")
	maxHeapMiB := flag.Int("max-heap-mib", 0, "stream mode: fail if the sampled heap watermark exceeds this many MiB (0 = report only)")
	serve := flag.String("serve", "", "fleet mode: serve /metrics, /debug/trace, /healthz, /readyz on this address during and after the run")
	tracePath := flag.String("trace", "", "fleet mode: write a Chrome trace_event JSON dump of the run to this file at exit")
	nojit := flag.Bool("nojit", false, "disable the template JIT process-wide: every emulated device interprets its bytecode")
	logfmt := flag.String("logfmt", "off", "structured log output to stderr: off|text|json (off keeps the CLI silent as before)")
	pprofFlag := flag.Bool("pprof", false, "expose /debug/pprof/* on the -serve endpoint")
	flag.Parse()

	if err := logx.Configure(*logfmt, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "wiotsim:", err)
		flag.Usage()
		os.Exit(2)
	}
	if *nojit {
		amulet.SetJITEnabled(false)
	}

	// A shortened -live would push the default attack start past the end
	// of the stream, which validateFlags rightly rejects in every mode.
	// Only an attack time the user actually chose is held to that
	// standard; the untouched default slides to the middle of the live
	// span.
	attackAtSet := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "attack-at" {
			attackAtSet = true
		}
	})
	if !attackAtSet && *attackAt >= *liveSec {
		*attackAt = *liveSec / 2
	}

	// Reject nonsense values outright instead of silently coercing them
	// (the fleet engine would otherwise map a non-positive -workers to
	// GOMAXPROCS behind the user's back).
	if *pprofFlag && *serve == "" {
		fmt.Fprintln(os.Stderr, "wiotsim: -pprof: the profiler endpoints need the serve endpoint (-serve addr)")
		flag.Usage()
		os.Exit(2)
	}
	if err := validateFlags(*fleetN, *workers, *loss, *dup, *trainSec, *liveSec, *attackAt, *serve, *tracePath, *chaosMode, *authMode, *shards, *stream, *maxHeapMiB); err != nil {
		fmt.Fprintln(os.Stderr, "wiotsim:", err)
		flag.Usage()
		os.Exit(2)
	}

	version, err := campaign.ParseVersion(*versionName)
	if err != nil {
		return err
	}
	if *fleetN > 0 {
		opt := fleetOptions{
			subjects:   *fleetN,
			workers:    *workers,
			seed:       *seed,
			trainSec:   *trainSec,
			liveSec:    *liveSec,
			attackAt:   *attackAt,
			loss:       *loss,
			dup:        *dup,
			chaos:      *chaosMode,
			auth:       *authMode,
			shards:     *shards,
			maxHeapMiB: *maxHeapMiB,
			version:    version,
			serve:      *serve,
			tracePath:  *tracePath,
			pprof:      *pprofFlag,
		}
		if *stream {
			return runStreamFleet(opt, os.Stdout)
		}
		return runFleet(opt)
	}

	subjects, err := physio.Cohort(3, *seed)
	if err != nil {
		return err
	}
	fmt.Printf("cohort: wearer %s (age %d, %.0f bpm), adversary donor %s (age %d, %.0f bpm)\n",
		subjects[0].ID, subjects[0].Age, subjects[0].HeartRate,
		subjects[1].ID, subjects[1].Age, subjects[1].HeartRate)

	fmt.Printf("training %s detector on %.0f s of %s's signals...\n", version, *trainSec, subjects[0].ID)
	start := time.Now()
	det, err := campaign.TrainWearer(subjects, 0, *seed, *trainSec, sift.Config{
		Version: version,
		SVM:     svm.Config{Seed: *seed, MaxIter: 150},
	})
	if err != nil {
		return err
	}
	fmt.Printf("trained in %v (%d support vectors)\n\n", time.Since(start).Round(time.Millisecond), det.Model.SupportVectors)

	live, donorLive, err := campaign.LiveArm(subjects, 0, *seed, *liveSec)
	if err != nil {
		return err
	}
	attackFrom := int(*attackAt * live.SampleRate)
	mitm := &wiot.SubstitutionMITM{Donor: donorLive.ECG, ActiveFrom: attackFrom}

	fmt.Printf("streaming %.0f s live; MITM hijacks ECG at t=%.0f s\n", *liveSec, *attackAt)
	res, err := wiot.RunScenario(wiot.Scenario{
		Record:     live,
		Detector:   sift.HostDetector{D: det},
		Attack:     mitm,
		AttackFrom: attackFrom,
	})
	if err != nil {
		return err
	}

	for _, a := range res.Alerts {
		status := "ok     "
		if a.Altered {
			status = "ALTERED"
		}
		t0 := float64(a.WindowIndex) * dataset.WindowSec
		attacked := " "
		if int(t0*live.SampleRate) >= attackFrom {
			attacked = "*"
		}
		fmt.Printf("  t=%5.0f s %s window %2d: %s\n", t0, attacked, a.WindowIndex, status)
	}
	fmt.Printf("\n%d windows (%d frames rewritten by MITM): TP=%d FN=%d FP=%d TN=%d accuracy=%.1f%%\n",
		res.Windows, mitm.Intercepts, res.TruePos, res.FalseNeg, res.FalsePos, res.TrueNeg, 100*res.Accuracy())
	return nil
}

// fleetOptions parameterizes a -fleet run.
type fleetOptions struct {
	subjects   int
	workers    int
	seed       int64
	trainSec   float64
	liveSec    float64
	attackAt   float64
	loss       float64
	dup        float64
	chaos      bool
	auth       bool // chaos mode: authenticated wire v3 on the TCP transport
	shards     int  // >0: run through the sharded control plane
	maxHeapMiB int  // stream mode: heap-watermark ceiling, 0 = report only
	version    features.Version
	serve      string // addr for the live observability endpoint; "" = off
	tracePath  string // Chrome trace dump path; "" = off
	pprof      bool   // mount /debug/pprof/* on the -serve endpoint
}

// fleetCampaign lowers the CLI's fleet flags into a declared campaign,
// so the flag-driven path and the registered declarations share one
// synthesis recipe (and therefore byte-identical verdicts for the same
// parameters).
func fleetCampaign(opt fleetOptions) campaign.Campaign {
	topo := campaign.Topology{
		Kind:    campaign.TopoInProcess,
		Workers: opt.workers,
		Loss:    opt.loss,
		Dup:     opt.dup,
	}
	if opt.chaos {
		topo.Kind = campaign.TopoChaos
		topo.Dup = 0 // the chaos wire corrupts; it does not duplicate
		topo.Auth = opt.auth
	}
	if opt.shards > 0 {
		// The chaos+sharded combination keeps the sharded plan and gets
		// its chaos runner (with any auth provision) reattached below:
		// Topology expresses one kind.
		topo.Kind = campaign.TopoSharded
		topo.Shards = opt.shards
		topo.Auth = false
	}
	return campaign.Campaign{
		Name:     "cli-fleet",
		Kind:     campaign.KindFleet,
		Cohort:   campaign.Cohort{Subjects: opt.subjects, BaseSeed: opt.seed, TrainSec: opt.trainSec, LiveSec: opt.liveSec},
		Detector: campaign.Detector{Version: opt.version.String()},
		Topology: topo,
		Attacks:  []campaign.AttackWindow{{Kind: campaign.AttackSubstitution, FromSec: opt.attackAt}},
	}
}

// runFleet trains one detector per cohort subject and streams every
// subject's live recording concurrently through the fleet engine, each
// over its own lossy channel with a MITM hijacking the ECG mid-stream.
// The run configuration is synthesized from a campaign declaration
// built from the flags; observability (the telemetry shadow device,
// metrics, trace capture) attaches through synthesis options and config
// hooks so it never enters the declaration or changes verdicts.
func runFleet(opt fleetOptions) error {
	if opt.subjects < campaign.MinFleetSubjects {
		return fmt.Errorf("-fleet %d needs at least %d subjects (each wearer trains against two other members as donors)", opt.subjects, campaign.MinFleetSubjects)
	}
	subjects, err := physio.Cohort(opt.subjects, opt.seed)
	if err != nil {
		return err
	}
	fmt.Printf("fleet: %d subjects (mean age %.1f), training %s detectors on %.0f s each, streaming %.0f s live\n",
		opt.subjects, physio.MeanAge(subjects), opt.version, opt.trainSec, opt.liveSec)
	if opt.chaos {
		fmt.Printf("transport: TCP + chaos injector (corrupt %.1f%%, mid-frame cut %.1f%%); MITM hijacks ECG at t=%.0f s\n",
			100*opt.loss, 100*opt.loss/2, opt.attackAt)
		if opt.auth {
			fmt.Printf("wire: authenticated v3 (HMAC session onboarding, per-frame MACs from the seed-derived master)\n")
		}
	} else {
		fmt.Printf("channel: loss %.1f%%, dup %.1f%%; MITM hijacks ECG at t=%.0f s\n",
			100*opt.loss, 100*opt.dup, opt.attackAt)
	}

	obsv := newObservability(opt.serve, opt.tracePath, opt.pprof)

	var synthOpts []campaign.SynthOption
	if obsv != nil {
		// Shadow-run each window on an emulated Amulet for real VM
		// cycle/SRAM/energy telemetry; host verdicts stay authoritative
		// so instrumentation never changes the fleet result.
		synthOpts = append(synthOpts, campaign.WrapDetector(
			func(slot int, wearerID string, host *sift.Detector, d wiot.Detector) (wiot.Detector, error) {
				return newShadowDetector(d, host, obsv, wearerID)
			}))
	}
	plan, err := fleetCampaign(opt).Synthesize(synthOpts...)
	if err != nil {
		return err
	}

	if plan.Shard != nil {
		scfg := plan.Shard
		if opt.chaos {
			scfg.Runner = campaign.ChaosRunner(opt.seed, opt.loss, opt.auth)
			scfg.AddrFor = func(int) string { return "tcp+chaos" }
		}
		if obsv != nil {
			scfg.Telemetry = obsv.reg
			// Federate every station's metrics into the serve endpoint so
			// /metrics shows the merged fleet view plus per-station
			// breakdowns while the run is in flight.
			obsv.fed = federate.New()
			obsv.stations = scfg.Registry
			scfg.Federation = obsv.fed
			scfg.FederateEvery = time.Second
			obsv.start()
		}
		start := time.Now()
		res, err := shard.Run(context.Background(), *scfg)
		if err != nil {
			return err
		}
		fmt.Printf("\nstations:\n%s", scfg.Registry)
		fmt.Printf("\n%s", res)
		fmt.Printf("\nmerged metrics after %v:\n%s", time.Since(start).Round(time.Millisecond), res.MergedMetrics())
		if obsv != nil {
			if err := obsv.finish(); err != nil {
				return err
			}
		}
		return res.Err()
	}

	m := &fleet.Metrics{}
	cfg := plan.Fleet
	cfg.Metrics = m
	if obsv != nil {
		cfg.Telemetry = obsv.reg
		obsv.start()
	}
	start := time.Now()
	res, err := fleet.Run(context.Background(), *cfg)
	if err != nil {
		return err
	}
	fmt.Printf("\n%s", res)
	fmt.Printf("\nmetrics snapshot after %v:\n%s", time.Since(start).Round(time.Millisecond), m.Snapshot())
	if obsv != nil {
		if err := obsv.finish(); err != nil {
			return err
		}
	}
	return res.Err()
}

// validateFlags rejects out-of-domain flag values before any work runs.
func validateFlags(fleetN, workers int, loss, dup, trainSec, liveSec, attackAt float64, serve, tracePath string, chaosMode, authMode bool, shards int, stream bool, maxHeapMiB int) error {
	switch {
	case fleetN < 0:
		return fmt.Errorf("-fleet %d: subject count cannot be negative", fleetN)
	case chaosMode && fleetN == 0:
		return fmt.Errorf("-chaos: fault-injected transport needs a fleet run (-fleet N)")
	case authMode && !chaosMode:
		return fmt.Errorf("-auth: the authenticated v3 wire needs the TCP transport (-chaos)")
	case shards < 0:
		return fmt.Errorf("-shards %d: station count cannot be negative", shards)
	case shards > 0 && fleetN == 0:
		return fmt.Errorf("-shards %d: the sharded control plane needs a fleet run (-fleet N)", shards)
	case stream && shards == 0:
		return fmt.Errorf("-stream: the streamed smoke needs the sharded control plane (-shards N)")
	case stream && (chaosMode || serve != "" || tracePath != ""):
		return fmt.Errorf("-stream: streamed smoke runs lean — drop -chaos, -serve, and -trace")
	case maxHeapMiB < 0:
		return fmt.Errorf("-max-heap-mib %d: heap bound cannot be negative", maxHeapMiB)
	case maxHeapMiB > 0 && !stream:
		return fmt.Errorf("-max-heap-mib: the heap-watermark assertion needs -stream")
	case serve != "" && fleetN == 0:
		return fmt.Errorf("-serve %s: the observability endpoint needs a fleet run (-fleet N)", serve)
	case tracePath != "" && fleetN == 0:
		return fmt.Errorf("-trace %s: trace capture needs a fleet run (-fleet N)", tracePath)
	case workers <= 0:
		return fmt.Errorf("-workers %d: worker pool size must be positive", workers)
	case loss < 0 || loss > 1:
		return fmt.Errorf("-loss %g: probability must be in [0, 1]", loss)
	case dup < 0 || dup > 1:
		return fmt.Errorf("-dup %g: probability must be in [0, 1]", dup)
	case trainSec <= 0:
		return fmt.Errorf("-train %g: training span must be positive seconds", trainSec)
	case liveSec <= 0:
		return fmt.Errorf("-live %g: live span must be positive seconds", liveSec)
	case attackAt < 0:
		return fmt.Errorf("-attack-at %g: attack start cannot be negative", attackAt)
	case attackAt >= liveSec:
		return fmt.Errorf("-attack-at %g: attack start must fall inside the %g s live span, or the MITM never fires", attackAt, liveSec)
	}
	return nil
}
