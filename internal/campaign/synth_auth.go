package campaign

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"net"
	"reflect"
	"sync"
	"time"

	"github.com/wiot-security/sift/internal/attack"
	"github.com/wiot-security/sift/internal/dataset"
	"github.com/wiot-security/sift/internal/fleet"
	"github.com/wiot-security/sift/internal/wiot"
	"github.com/wiot-security/sift/internal/wiot/chaos"
)

// AuthMaster derives the campaign's deployment master secret from its
// base seed. The derivation is deterministic so both arms of an
// auth-adversary run (and any re-run) provision identical per-sensor
// PSKs, keeping the verdict digest a pure function of the declaration.
func AuthMaster(baseSeed int64) []byte {
	sum := sha256.Sum256([]byte(fmt.Sprintf("wiot-campaign-master/1 seed=%d", baseSeed)))
	return sum[:]
}

// campaignAdversary is the fixed forgery cadence the authed arm runs
// under: staggered periods so tampered, replayed, and spliced records
// all fire within any realistic live span without coinciding every
// frame.
var campaignAdversary = chaos.Adversary{TamperEvery: 5, ReplayEvery: 7, SpliceEvery: 9}

// AuthOutcome is an auth-adversary campaign's verdict: the honest
// cohort's baseline (plain v2) and authed (v3 under the byzantine peer)
// fleet results, their convergence, and the wire campaigns' accounting.
type AuthOutcome struct {
	// Baseline is the honest cohort over plain v2 TCP.
	Baseline *fleet.FleetResult
	// Authed is the same cohort over authenticated v3 with the
	// scheduled adversary tampering, replaying, and splicing records.
	Authed *fleet.FleetResult
	// BaselineDigest / AuthedDigest fingerprint each arm's fleet
	// verdicts; Converged asserts they are byte-identical.
	BaselineDigest string
	AuthedDigest   string
	Converged      bool
	// Tampered/Replayed/Spliced count the adversary's forgeries across
	// the authed arm. Diagnostic only: retransmitted frames traverse the
	// adversary again, so the totals depend on recovery timing and are
	// excluded from the canonical verdict form.
	Tampered int64
	Replayed int64
	Spliced  int64
	// Wire holds the wire-level campaign reports (impersonation, frame
	// replay, session hijack) against a provisioned station.
	Wire []attack.WireReport
	// ForgedAccepted sums forged-frame acceptance across every wire
	// campaign. The v3 contract is that it is always zero.
	ForgedAccepted int64
}

// runAuthAdversary executes both arms and the wire campaigns.
func (c Campaign) runAuthAdversary(ctx context.Context) (*AuthOutcome, error) {
	src, err := c.fleetSource(nil)
	if err != nil {
		return nil, err
	}
	run := func(runner fleet.Runner) (*fleet.FleetResult, error) {
		res, err := fleet.Run(ctx, fleet.Config{
			Scenarios: c.Cohort.Subjects,
			Workers:   c.Topology.Workers,
			BaseSeed:  c.Cohort.BaseSeed,
			Source:    src,
			Runner:    runner,
		})
		if err != nil {
			return nil, err
		}
		return &res, res.Err()
	}

	out := &AuthOutcome{}
	if out.Baseline, err = run(c.baselineRunner()); err != nil {
		return nil, fmt.Errorf("campaign %q: baseline arm: %w", c.Name, err)
	}
	if out.Authed, err = run(c.adversaryRunner(out)); err != nil {
		return nil, fmt.Errorf("campaign %q: authed arm: %w", c.Name, err)
	}
	if out.Tampered == 0 || out.Replayed == 0 || out.Spliced == 0 {
		return nil, fmt.Errorf("campaign %q: adversary fired %d/%d/%d tamper/replay/splice forgeries: the comparison is vacuous",
			c.Name, out.Tampered, out.Replayed, out.Spliced)
	}
	out.BaselineDigest = fleetDigest(c.Name, out.Baseline)
	out.AuthedDigest = fleetDigest(c.Name, out.Authed)
	out.Converged = out.BaselineDigest == out.AuthedDigest &&
		reflect.DeepEqual(*out.Baseline, *out.Authed)

	if out.Wire, out.ForgedAccepted, err = c.runWireCampaigns(ctx); err != nil {
		return nil, fmt.Errorf("campaign %q: wire campaigns: %w", c.Name, err)
	}
	return out, nil
}

// fleetDigest fingerprints one arm's fleet verdicts via the canonical
// rendering, so "the arms converged" means exactly what the CI digest
// gate means.
func fleetDigest(campaignName string, r *fleet.FleetResult) string {
	o := Outcome{Campaign: campaignName, Fleet: r}
	return o.VerdictDigest()
}

// baselineRunner is the honest v2 reference arm: plain loopback TCP,
// no keys, no adversary.
func (c Campaign) baselineRunner() fleet.Runner {
	return func(ctx context.Context, slot fleet.Slot, sc wiot.Scenario) (wiot.ScenarioResult, error) {
		return wiot.RunScenarioOverTCP(ctx, sc, wiot.NetConfig{Seed: slot.Seed, TraceParent: slot.Trace})
	}
}

// adversaryRunner is the attacked arm: authenticated v3 wire with the
// scheduled byzantine peer interposed on every station listener. The
// short retransmit timeout keeps go-back-N recovery brisk — rejected
// forgeries produce no protocol feedback, so the sink's timer is what
// repairs the stream.
func (c Campaign) adversaryRunner(tally *AuthOutcome) fleet.Runner {
	auth := authProvision(c.Cohort.BaseSeed, true)
	loss := c.Topology.Loss
	chaosTopo := c.Topology.Kind == TopoChaos
	var mu sync.Mutex // guards the shared tally across worker slots
	return func(ctx context.Context, slot fleet.Slot, sc wiot.Scenario) (wiot.ScenarioResult, error) {
		var lis *chaos.Listener
		res, err := wiot.RunScenarioOverTCP(ctx, sc, wiot.NetConfig{
			Seed:        slot.Seed,
			TraceParent: slot.Trace,
			Auth:        auth,
			Sink:        wiot.ReconnectConfig{RetransmitTimeout: 20 * time.Millisecond},
			WrapListener: func(inner net.Listener) net.Listener {
				cfg := chaos.Config{Seed: slot.Seed, Adversary: campaignAdversary}
				if chaosTopo {
					cfg.CorruptProb = loss
					cfg.CutProb = loss / 2
				}
				lis = chaos.Wrap(inner, cfg)
				return lis
			},
		})
		if lis != nil {
			s := lis.Stats()
			mu.Lock()
			tally.Tampered += s.Tampered()
			tally.Replayed += s.Replayed()
			tally.Spliced += s.Spliced()
			mu.Unlock()
		}
		return res, err
	}
}

// wireProbeDetector is the do-nothing detector behind the wire-campaign
// station: the campaigns measure transport acceptance, not verdicts.
type wireProbeDetector struct{}

// Name implements wiot.Detector.
func (wireProbeDetector) Name() string { return "wire-probe" }

// Classify implements wiot.Detector.
func (wireProbeDetector) Classify(dataset.Window) (bool, error) { return false, nil }

// runWireCampaigns stands up one provisioned station and drives the
// three wire-level attack campaigns at it in a fixed order. Every
// campaign's accounting is deterministic (each forged record produces
// exactly one rejection), so the reports enter the canonical verdict
// form verbatim.
func (c Campaign) runWireCampaigns(ctx context.Context) ([]attack.WireReport, int64, error) {
	master := AuthMaster(c.Cohort.BaseSeed)
	station, err := wiot.NewBaseStation(wiot.StationConfig{
		SubjectID:  c.Name + "/wire-victim",
		SampleRate: 360,
		Detector:   wireProbeDetector{},
		Sink:       &wiot.MemorySink{},
	})
	if err != nil {
		return nil, 0, err
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, err
	}
	st, err := wiot.ServeTCPConfig(ctx, lis, station, wiot.TCPConfig{
		Keys: wiot.KeyStoreFromMaster(master, wiot.SensorECG, wiot.SensorABP),
	})
	if err != nil {
		_ = lis.Close()
		return nil, 0, err
	}
	defer st.Close()

	campaigns := []attack.WireCampaign{
		&attack.WireImpersonation{Sensor: wiot.SensorECG, Key: bytes.Repeat([]byte{0x42}, 32)},
		&attack.WireFrameReplay{Sensor: wiot.SensorECG, Key: wiot.DeriveSensorKey(master, wiot.SensorECG)},
		&attack.WireSessionHijack{
			Key:    wiot.DeriveSensorKey(master, wiot.SensorABP),
			Sensor: wiot.SensorABP,
			Victim: wiot.SensorECG,
		},
	}
	reports := make([]attack.WireReport, 0, len(campaigns))
	var forged int64
	for _, wc := range campaigns {
		rep, err := wc.Run(lis.Addr().String(), st)
		if err != nil {
			return nil, 0, fmt.Errorf("%s: %w", wc.Name(), err)
		}
		reports = append(reports, rep)
		forged += rep.ForgedAccepted
	}
	return reports, forged, nil
}
