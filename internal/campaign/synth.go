package campaign

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"

	"github.com/wiot-security/sift/internal/features"
	"github.com/wiot-security/sift/internal/fleet"
	"github.com/wiot-security/sift/internal/fleet/shard"
	"github.com/wiot-security/sift/internal/physio"
	"github.com/wiot-security/sift/internal/sift"
	"github.com/wiot-security/sift/internal/svm"
	"github.com/wiot-security/sift/internal/wiot"
	"github.com/wiot-security/sift/internal/wiot/chaos"
)

// DetectorWrapper lets a caller interpose on the synthesized per-slot
// detector — cmd/wiotsim uses it to attach the telemetry shadow device —
// without the campaign layer knowing about observability. Wrapping must
// not change verdicts: the campaign digest is computed from the host
// detector's output either way.
type DetectorWrapper func(slot int, wearerID string, host *sift.Detector, d wiot.Detector) (wiot.Detector, error)

// SynthOption customizes synthesis without entering the declaration (and
// therefore without changing the campaign's digest).
type SynthOption func(*synthOpts)

type synthOpts struct {
	wrap DetectorWrapper
}

// WrapDetector interposes fn on every synthesized slot detector.
func WrapDetector(fn DetectorWrapper) SynthOption {
	return func(o *synthOpts) { o.wrap = fn }
}

// Plan is a lowered campaign: the concrete run configuration synthesis
// produced. Exactly one of the payload fields is set, matching the
// campaign's Kind (fleet campaigns fill Fleet, or Shard when the
// topology is sharded).
type Plan struct {
	Campaign Campaign
	Fleet    *fleet.Config
	Shard    *shard.Config

	gallery  bool
	adaptive bool
	authAdv  bool
	obs      ObserveConfig
}

// Synthesize validates the declaration and lowers it into a Plan. The
// lowering is deterministic: the same declaration always yields a run
// with identical verdicts, which is what lets the migrated examples pin
// byte-identity against their legacy imperative paths.
func (c Campaign) Synthesize(opts ...SynthOption) (*Plan, error) {
	var so synthOpts
	for _, opt := range opts {
		opt(&so)
	}
	if err := c.Validate(); err != nil {
		return nil, fmt.Errorf("campaign %q fails validation: %w", c.Name, err)
	}
	switch c.Kind {
	case KindGallery:
		return &Plan{Campaign: c, gallery: true}, nil
	case KindAdaptive:
		return &Plan{Campaign: c, adaptive: true}, nil
	case KindAuthAdversary:
		// The baseline and authed fleets are built at run time (like the
		// gallery path) so the declaration stays the single source of
		// truth for both arms.
		return &Plan{Campaign: c, authAdv: true}, nil
	}

	src, err := c.fleetSource(so.wrap)
	if err != nil {
		return nil, err
	}
	runner := c.runner()
	if c.Topology.Kind == TopoSharded {
		return &Plan{Campaign: c, Shard: &shard.Config{
			Scenarios: c.Cohort.Subjects,
			Shards:    c.Topology.Shards,
			Workers:   c.Topology.Workers,
			BaseSeed:  c.Cohort.BaseSeed,
			Source:    src,
			Runner:    runner,
			Registry:  wiot.NewStationRegistry(),
		}}, nil
	}
	return &Plan{Campaign: c, Fleet: &fleet.Config{
		Scenarios: c.Cohort.Subjects,
		Workers:   c.Topology.Workers,
		BaseSeed:  c.Cohort.BaseSeed,
		Source:    src,
		Runner:    runner,
	}}, nil
}

// runner picks the slot executor for the declared topology: nil keeps
// the in-process simulation, TCP and chaos dial every scenario out over
// loopback TCP (chaos through ChaosRunner).
func (c Campaign) runner() fleet.Runner {
	switch c.Topology.Kind {
	case TopoTCP:
		auth := authProvision(c.Cohort.BaseSeed, c.Topology.Auth)
		return func(ctx context.Context, slot fleet.Slot, sc wiot.Scenario) (wiot.ScenarioResult, error) {
			return wiot.RunScenarioOverTCP(ctx, sc, wiot.NetConfig{Seed: slot.Seed, TraceParent: slot.Trace, Auth: auth})
		}
	case TopoChaos:
		return ChaosRunner(c.Cohort.BaseSeed, c.Topology.Loss, c.Topology.Auth)
	}
	return nil
}

// ChaosRunner dials every scenario out over loopback TCP through the
// seeded chaos fault injector, with -loss semantics identical to
// wiotsim: loss is the corruption probability and half of it the
// mid-frame cut probability. With auth set the wire runs v3, provisioned
// from AuthMaster(baseSeed).
func ChaosRunner(baseSeed int64, loss float64, auth bool) fleet.Runner {
	prov := authProvision(baseSeed, auth)
	return func(ctx context.Context, slot fleet.Slot, sc wiot.Scenario) (wiot.ScenarioResult, error) {
		return wiot.RunScenarioOverTCP(ctx, sc, wiot.NetConfig{
			Seed:        slot.Seed,
			TraceParent: slot.Trace,
			Auth:        prov,
			WrapListener: chaos.WrapListener(chaos.Config{
				Seed:        slot.Seed,
				CorruptProb: loss,
				CutProb:     loss / 2,
			}),
		})
	}
}

// authProvision resolves an auth switch into the wire's key material:
// nil for plain v2, or a provision rooted in the deterministic master
// secret of baseSeed.
func authProvision(baseSeed int64, on bool) *wiot.AuthProvision {
	if !on {
		return nil
	}
	return &wiot.AuthProvision{Master: AuthMaster(baseSeed)}
}

// fleetSource builds the per-slot scenario source: slot i is the cohort
// recipe's wearer i (TrainWearer, LiveArm) at the slot seed, which also
// seeds its SVM.
func (c Campaign) fleetSource(wrap DetectorWrapper) (fleet.Source, error) {
	version, err := features.ParseVersion(c.Detector.Version)
	if err != nil {
		return nil, err
	}
	subjects, err := physio.Cohort(c.Cohort.Subjects, c.Cohort.BaseSeed)
	if err != nil {
		return nil, err
	}
	if c.Cohort.Subjects < MinFleetSubjects {
		return nil, fmt.Errorf("campaign %q: fleet cohorts need at least %d subjects (each wearer trains against two other members as donors)", c.Name, MinFleetSubjects)
	}
	var attackArm *AttackWindow
	if len(c.Attacks) == 1 {
		attackArm = &c.Attacks[0]
	}
	maxIter := c.Detector.MaxIter
	if maxIter == 0 {
		maxIter = 150
	}

	return func(index int, seed int64) (wiot.Scenario, error) {
		det, err := TrainWearer(subjects, index, seed, c.Cohort.TrainSec, sift.Config{
			Version: version,
			SVM:     svm.Config{Seed: seed, MaxIter: maxIter},
		})
		if err != nil {
			return wiot.Scenario{}, err
		}
		live, donorLive, err := LiveArm(subjects, index, seed, c.Cohort.LiveSec)
		if err != nil {
			return wiot.Scenario{}, err
		}

		// In-process topologies (sharded stations included) damage
		// frames in an application-level lossy channel; TCP topologies
		// keep the scenario clean and let the wire (or the chaos
		// injector) do the damage.
		var ch wiot.ChannelEffect = wiot.Reliable{}
		if c.Topology.Kind == TopoInProcess || c.Topology.Kind == TopoSharded {
			ch, err = wiot.NewLossy(c.Topology.Loss, c.Topology.Dup, seed)
			if err != nil {
				return wiot.Scenario{}, err
			}
		}
		if len(c.Faults) > 0 {
			ch = newPartitionChannel(ch, c.Faults, c.Cohort.LiveSec, live.SampleRate)
		}

		sc := wiot.Scenario{
			Record:   live,
			Detector: sift.HostDetector{D: det},
			Channel:  ch,
		}
		if attackArm != nil {
			from := int(attackArm.FromSec * live.SampleRate)
			sc.Attack = &wiot.SubstitutionMITM{Donor: donorLive.ECG, ActiveFrom: from}
			sc.AttackFrom = from
			if attackArm.ToSec > 0 {
				to := int(attackArm.ToSec * live.SampleRate)
				sc.AttackTo = to
				sc.Attack.(*wiot.SubstitutionMITM).ActiveTo = to
			}
		}
		if wrap != nil {
			sc.Detector, err = wrap(index, live.SubjectID, det, sc.Detector)
			if err != nil {
				return wiot.Scenario{}, err
			}
		}
		return sc, nil
	}, nil
}

// partitionChannel drops every frame whose first sample falls inside a
// declared partition window, modeling a scheduled link sever. It wraps
// the topology's own channel effect, and is deterministic by
// construction: which frames die is a pure function of the schedule.
type partitionChannel struct {
	inner wiot.ChannelEffect
	// windows are [from, to) bounds in samples.
	windows [][2]int
	chunk   int
}

// newPartitionChannel compiles the fault schedule into sample ranges.
func newPartitionChannel(inner wiot.ChannelEffect, faults []FaultWindow, liveSec, sampleRate float64) *partitionChannel {
	pc := &partitionChannel{inner: inner, chunk: wiot.DefaultChunkSize}
	for _, f := range faults {
		if f.Kind != FaultPartition {
			continue
		}
		from := int(f.FromSec * sampleRate)
		to := int(effectiveTo(f.ToSec, liveSec) * sampleRate)
		pc.windows = append(pc.windows, [2]int{from, to})
	}
	return pc
}

// Transmit implements wiot.ChannelEffect.
func (pc *partitionChannel) Transmit(f wiot.Frame) []wiot.Frame {
	start := int(f.Seq) * pc.chunk
	for _, w := range pc.windows {
		if start >= w[0] && start < w[1] {
			return nil
		}
	}
	return pc.inner.Transmit(f)
}

// Outcome is the result of running a synthesized plan: exactly one
// payload field is set, matching the plan's kind.
type Outcome struct {
	Campaign string
	Fleet    *fleet.FleetResult
	Gallery  *GalleryOutcome
	Adaptive *AdaptiveOutcome
	// Auth is the auth-adversary payload: the baseline-vs-authed fleet
	// comparison and the wire campaign reports.
	Auth *AuthOutcome
	// Shard carries the full sharded result (per-station rollups,
	// failover accounting) when the plan ran a sharded topology; Fleet
	// points at its embedded aggregate in that case.
	Shard *shard.Result
}

// Run executes the plan to completion and wraps the result.
func (p *Plan) Run(ctx context.Context) (*Outcome, error) {
	out := &Outcome{Campaign: p.Campaign.Name}
	switch {
	case p.gallery:
		g, err := p.Campaign.runGallery()
		if err != nil {
			return nil, err
		}
		out.Gallery = g
	case p.adaptive:
		a, err := p.Campaign.runAdaptive()
		if err != nil {
			return nil, err
		}
		out.Adaptive = a
	case p.authAdv:
		a, err := p.Campaign.runAuthAdversary(ctx)
		if err != nil {
			return nil, err
		}
		out.Auth = a
	case p.Shard != nil:
		res, err := shard.Run(ctx, *p.Shard)
		if err != nil {
			return nil, err
		}
		out.Shard = &res
		out.Fleet = &res.FleetResult
	case p.Fleet != nil:
		res, err := fleet.Run(ctx, *p.Fleet)
		if err != nil {
			return nil, err
		}
		out.Fleet = &res
	default:
		return nil, fmt.Errorf("campaign %q: empty plan", p.Campaign.Name)
	}
	return out, nil
}

// VerdictCanonical renders the outcome's verdicts in a stable text form
// — the exact bytes the digest-invariance gate compares between the
// declarative and imperative paths (and across shard counts).
func (o *Outcome) VerdictCanonical() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "verdicts/1 campaign=%s\n", o.Campaign)
	switch {
	case o.Auth != nil:
		a := o.Auth
		// Adversary fire counts are deliberately absent: retransmitted
		// frames pass through the byzantine peer again, so how often each
		// forgery fires depends on recovery timing. The digest covers only
		// what the declaration fully determines — convergence, the two
		// fleet digests, and the wire campaigns' exact accounting.
		fmt.Fprintf(&sb, "auth converged=%t forged_accepted=%d baseline=%s authed=%s\n",
			a.Converged, a.ForgedAccepted, a.BaselineDigest, a.AuthedDigest)
		fleetStanza(&sb, a.Authed)
		for _, w := range a.Wire {
			fmt.Fprintf(&sb, "wire %s sent=%d accepted=%d rejected=%d honest=%d\n",
				w.Name, w.ForgedSent, w.ForgedAccepted, w.Rejected, w.HonestAccepted)
		}
	case o.Fleet != nil:
		fleetStanza(&sb, o.Fleet)
	case o.Gallery != nil:
		fmt.Fprintf(&sb, "gallery clean=%d/%d\n", o.Gallery.Clean, o.Gallery.Windows)
		for _, a := range o.Gallery.Arms {
			fmt.Fprintf(&sb, "arm %s detected=%d/%d\n", a.Name, a.Detected, a.Total)
		}
	case o.Adaptive != nil:
		a := o.Adaptive
		fmt.Fprintf(&sb, "adaptive elapsedhr=%.4f switches=%d\n", a.ElapsedHr, a.Switches)
		for _, w := range a.Windows {
			fmt.Fprintf(&sb, "version %s windows=%d\n", w.Version, w.Windows)
		}
	}
	return sb.String()
}

// fleetStanza renders a fleet result's canonical verdict lines.
func fleetStanza(sb *strings.Builder, r *fleet.FleetResult) {
	fmt.Fprintf(sb, "fleet scenarios=%d completed=%d failed=%d skipped=%d windows=%d tp=%d fn=%d fp=%d tn=%d seqerr=%d\n",
		r.Scenarios, r.Completed, r.Failed, r.Skipped, r.Windows, r.TruePos, r.FalseNeg, r.FalsePos, r.TrueNeg, r.SeqErrors)
	for _, s := range r.PerSubject {
		fmt.Fprintf(sb, "subject %s scenarios=%d windows=%d tp=%d fn=%d fp=%d tn=%d seqerr=%d\n",
			s.Subject, s.Scenarios, s.Windows, s.TruePos, s.FalseNeg, s.FalsePos, s.TrueNeg, s.SeqErrors)
	}
}

// VerdictDigest fingerprints the outcome: hex SHA-256 of the canonical
// verdict rendering.
func (o *Outcome) VerdictDigest() string {
	sum := sha256.Sum256([]byte(o.VerdictCanonical()))
	return hex.EncodeToString(sum[:])
}
