// Package campaign is the declarative scenario layer: cohorts,
// topologies, fault schedules, and attack campaigns are plain Go struct
// literals, and everything the simulator runs is synthesized from them.
//
// The paper's evaluation is a matrix of cohorts × attack campaigns ×
// resource budgets; before this package that matrix lived as imperative
// construction code scattered across cmd/wiotsim flags, examples/, and
// test fixtures. A Campaign value is the single source of truth instead:
//
//   - Synthesize lowers a declaration into the existing fleet/shard run
//     configuration deterministically, so a declared campaign and the
//     imperative code it replaced produce byte-identical verdicts;
//   - Canonical/Digest give every declaration a stable fingerprint the
//     CI digest-invariance check pins;
//   - Validate is the one rule book: Synthesize runs it before any
//     work and `wiotsim build -lint` runs it over the registered
//     catalog, so an unreachable attack window or an unsatisfiable
//     budget is a lint failure, not a surprise in hour three of a
//     million-wearer run.
//
// Declarations are plain values: no function fields, no wall-clock, no
// environment. A campaign's outcome is a function of its fields alone.
package campaign

import (
	"errors"
	"fmt"
	"math"

	"github.com/wiot-security/sift/internal/features"
	"github.com/wiot-security/sift/internal/physio"
)

// Kind selects which runner a campaign synthesizes into.
type Kind int

const (
	// KindFleet streams a cohort through the fleet engine (optionally
	// sharded or over chaos TCP) with a wire-level MITM attack.
	KindFleet Kind = iota
	// KindGallery trains on one attack and confronts the detector with
	// every declared attack arm at window level — the attack-gallery
	// evaluation shape.
	KindGallery
	// KindAdaptive simulates a full battery discharge with the adaptive
	// engine switching detector versions as energy drains.
	KindAdaptive
	// KindAuthAdversary proves the authenticated wire v3 claim: the same
	// honest cohort runs once over plain v2 TCP and once over v3 with a
	// scheduled byzantine peer tampering, replaying, and splicing
	// CRC-valid records, and the verdicts must match byte for byte while
	// the wire-level attack campaigns (impersonation, frame replay,
	// session hijack) are rejected with zero forged frames accepted.
	KindAuthAdversary
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindFleet:
		return "fleet"
	case KindGallery:
		return "gallery"
	case KindAdaptive:
		return "adaptive"
	case KindAuthAdversary:
		return "auth-adversary"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// TopologyKind selects the transport a fleet campaign runs over.
type TopologyKind int

const (
	// TopoInProcess runs scenarios through the in-process simulation
	// with an application-level lossy channel.
	TopoInProcess TopologyKind = iota
	// TopoTCP streams every scenario over real loopback TCP.
	TopoTCP
	// TopoChaos routes TCP through the seeded chaos fault injector.
	TopoChaos
	// TopoSharded partitions the cohort across stations via the sharded
	// control plane.
	TopoSharded
)

// String implements fmt.Stringer.
func (t TopologyKind) String() string {
	switch t {
	case TopoInProcess:
		return "inproc"
	case TopoTCP:
		return "tcp"
	case TopoChaos:
		return "chaos"
	case TopoSharded:
		return "sharded"
	}
	return fmt.Sprintf("TopologyKind(%d)", int(t))
}

// AttackKind names one sensor-hijacking manifestation from
// internal/attack (window-level arms) or the wire-level MITM.
type AttackKind int

const (
	// AttackSubstitution replaces the wearer's ECG with a donor's — the
	// paper's evaluated attack, and the only kind the wire-level MITM
	// path synthesizes.
	AttackSubstitution AttackKind = iota
	// AttackReplay reports the wearer's own stale ECG.
	AttackReplay
	// AttackFlatline reports a constant ECG value.
	AttackFlatline
	// AttackNoise injects seeded Gaussian noise (EMI-style).
	AttackNoise
	// AttackTimeShift delays the reported ECG within the window.
	AttackTimeShift
)

// String implements fmt.Stringer.
func (a AttackKind) String() string {
	switch a {
	case AttackSubstitution:
		return "substitution"
	case AttackReplay:
		return "replay"
	case AttackFlatline:
		return "flatline"
	case AttackNoise:
		return "noise"
	case AttackTimeShift:
		return "timeshift"
	}
	return fmt.Sprintf("AttackKind(%d)", int(a))
}

// FaultKind names one declared infrastructure fault.
type FaultKind int

const (
	// FaultPartition severs the wireless link for the window: every
	// frame whose first sample falls inside [FromSec, ToSec) is dropped
	// before the station sees it.
	FaultPartition FaultKind = iota
)

// String implements fmt.Stringer.
func (f FaultKind) String() string {
	switch f {
	case FaultPartition:
		return "partition"
	}
	return fmt.Sprintf("FaultKind(%d)", int(f))
}

// DigestMode declares whether CI's digest-invariance gate covers the
// campaign. The zero value is off, so opting in is an explicit act;
// TestCatalogWellFormed requires it of every catalog campaign.
type DigestMode int

const (
	// DigestOff leaves the campaign outside the digest gate.
	DigestOff DigestMode = iota
	// DigestRequired pins the campaign's synthesized verdicts: CI fails
	// if the declarative and imperative paths (or two shard counts)
	// disagree.
	DigestRequired
)

// String implements fmt.Stringer.
func (d DigestMode) String() string {
	switch d {
	case DigestOff:
		return "off"
	case DigestRequired:
		return "required"
	}
	return fmt.Sprintf("DigestMode(%d)", int(d))
}

// MinFleetSubjects is the smallest cohort fleet synthesis accepts: each
// wearer's detector trains against the next two cohort members as
// donors, so a smaller cohort would train a wearer against themself.
const MinFleetSubjects = 3

// Cohort declares who is being simulated and for how long.
type Cohort struct {
	// Subjects is the cohort size (wearers). Adaptive campaigns use the
	// default subject when this is <= 1.
	Subjects int
	// BaseSeed roots every derived seed: subject generation, per-slot
	// scenario seeds (BaseSeed + index), channel faults. A campaign's
	// outcome is a pure function of its declaration.
	BaseSeed int64
	// TrainSec is the training-span length per subject, seconds.
	TrainSec float64
	// LiveSec is the live streaming span, seconds — the scenario
	// duration every attack and fault window is checked against.
	LiveSec float64
}

// Detector declares the SIFT detector arm.
type Detector struct {
	// Version is the feature version name: Original, Simplified, or
	// Reduced.
	Version string
	// SVMSeed seeds SVM training for gallery campaigns. Fleet and
	// auth-adversary campaigns ignore it: each slot's SVM is seeded with
	// the slot seed (BaseSeed + index), so the fleet stays worker-count
	// invariant. Adaptive campaigns ignore it too.
	SVMSeed int64
	// MaxIter bounds SVM training iterations. At 0, fleet and
	// auth-adversary campaigns train with 150, while gallery campaigns
	// pass the 0 through to svm, whose default is 10000. Adaptive
	// campaigns ignore it. A negative cap is invalid.
	MaxIter int
}

// Topology declares the transport and scale-out shape of a fleet
// campaign.
type Topology struct {
	Kind TopologyKind
	// Shards is the station count for TopoSharded.
	Shards int
	// Workers bounds the worker pool (per station when sharded);
	// <= 0 lets the engine pick.
	Workers int
	// Loss is the frame-loss probability in-process, or the corruption
	// probability on the chaos path (half of it becomes the mid-frame
	// cut probability, mirroring wiotsim -chaos).
	Loss float64
	// Dup is the in-process frame duplication probability.
	Dup float64
	// Auth runs the campaign over authenticated wire v3: every station
	// is provisioned with per-sensor PSKs derived from the campaign's
	// deterministic master secret (AuthMaster of BaseSeed) and every
	// sensor onboards with the HMAC handshake before streaming. Only
	// meaningful on real-wire topologies (tcp, chaos); the in-process
	// paths have no wire to authenticate.
	Auth bool
}

// AttackWindow declares one attack arm: what the adversary does and
// when, in seconds of the live span. ToSec 0 means "until the end".
type AttackWindow struct {
	Kind    AttackKind
	FromSec float64
	ToSec   float64
	// Seed seeds stochastic attacks (noise). Deterministic kinds leave
	// it zero.
	Seed int64
	// Magnitude parameterizes the attack: noise sigma, timeshift delay
	// in seconds, flatline value. Zero keeps each kind's default.
	Magnitude float64
}

// FaultWindow declares one scheduled infrastructure fault.
type FaultWindow struct {
	Kind    FaultKind
	FromSec float64
	ToSec   float64
}

// Budget declares the per-window resource envelope the campaign claims
// its detector fits. Validate cross-checks these against vmlint's static
// bounds for the declared version, so an unsatisfiable claim dies in
// lint.
type Budget struct {
	// MaxCyclesPerWindow is the declared worst-case VM cycles per
	// classified window (0 = unconstrained).
	MaxCyclesPerWindow uint64
	// MaxSRAMBytes is the declared peak SRAM footprint (0 =
	// unconstrained; the device envelope is 2048).
	MaxSRAMBytes int
}

// Campaign is one declared evaluation: the unit the build CLI lists,
// Validate checks, and Synthesize lowers into a run.
type Campaign struct {
	// Name identifies the campaign in the registry, CLI, and findings.
	Name string
	// Description is a one-line human summary.
	Description string
	Kind        Kind
	Cohort      Cohort
	Detector    Detector
	Topology    Topology
	Attacks     []AttackWindow
	Faults      []FaultWindow
	Budget      Budget
	Digest      DigestMode
}

// effectiveTo resolves an attack or fault window's exclusive end against
// the live span: a zero ToSec means the window runs to the end.
func effectiveTo(toSec, liveSec float64) float64 {
	if toSec == 0 {
		return liveSec
	}
	return toSec
}

// Validate is the campaign rule book. Synthesize runs it before any
// work and `wiotsim build -lint` runs it over the registered catalog, so
// declared campaigns and campaigns built at runtime (e.g. from CLI
// flags) meet the same bar. It returns all violations joined, nil when
// clean.
//
// A message's trailing tag names its rule group:
//
//   - (campseed): Cohort.BaseSeed is set, noise arms carry an explicit
//     Seed, and no two arms share one, so runs reproduce and arms stay
//     independent;
//   - (campreach): every attack window can fire: it starts inside the
//     live span, is not empty, and is not fully inside a partition;
//   - (campsched): fault windows do not start before zero, invert,
//     exceed the live span, or overlap a window of the same kind;
//   - (campbudget): a declared cycle or SRAM budget is not below the
//     detector version's static bounds (StaticBounds).
//
// Untagged messages cover the rest: names, cohort sizes, finite
// positive spans no longer than physio.MaxSpanSec, finite numbers in
// every window and probability, the detector version and SVM iteration
// cap, and kind/topology coherence. The digest opt-in is
// not a Validate rule; TestCatalogWellFormed requires it of the catalog.
func (c Campaign) Validate() error {
	var errs []error
	report := func(format string, args ...any) {
		errs = append(errs, fmt.Errorf(format, args...))
	}
	// NaN fails every ordered comparison below, and an infinite span or
	// window sizes no record, so non-finite numbers are rejected first.
	finite := func(field string, x float64) {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			report("campaign %q: %s %g is not finite", c.Name, field, x)
		}
	}
	finite("Cohort.TrainSec", c.Cohort.TrainSec)
	finite("Cohort.LiveSec", c.Cohort.LiveSec)
	finite("Topology.Loss", c.Topology.Loss)
	finite("Topology.Dup", c.Topology.Dup)
	for i, a := range c.Attacks {
		finite(fmt.Sprintf("Attacks[%d].FromSec", i), a.FromSec)
		finite(fmt.Sprintf("Attacks[%d].ToSec", i), a.ToSec)
		finite(fmt.Sprintf("Attacks[%d].Magnitude", i), a.Magnitude)
	}
	for i, f := range c.Faults {
		finite(fmt.Sprintf("Faults[%d].FromSec", i), f.FromSec)
		finite(fmt.Sprintf("Faults[%d].ToSec", i), f.ToSec)
	}

	if c.Name == "" {
		report("campaign has no Name")
	}
	if c.Cohort.Subjects <= 0 && c.Kind != KindAdaptive {
		report("campaign %q: Cohort.Subjects %d must be positive", c.Name, c.Cohort.Subjects)
	} else if (c.Kind == KindFleet || c.Kind == KindAuthAdversary) && c.Cohort.Subjects < MinFleetSubjects {
		report("campaign %q: Cohort.Subjects %d: fleet cohorts need at least %d subjects (each wearer trains against two other members as donors)",
			c.Name, c.Cohort.Subjects, MinFleetSubjects)
	}
	if c.Cohort.LiveSec <= 0 {
		report("campaign %q: Cohort.LiveSec %g must be positive", c.Name, c.Cohort.LiveSec)
	} else if c.Cohort.LiveSec > physio.MaxSpanSec {
		report("campaign %q: Cohort.LiveSec %g exceeds the %d s recording cap", c.Name, c.Cohort.LiveSec, physio.MaxSpanSec)
	}
	if c.Kind != KindAdaptive {
		if c.Cohort.TrainSec <= 0 {
			report("campaign %q: Cohort.TrainSec %g must be positive", c.Name, c.Cohort.TrainSec)
		} else if c.Cohort.TrainSec > physio.MaxSpanSec {
			report("campaign %q: Cohort.TrainSec %g exceeds the %d s recording cap", c.Name, c.Cohort.TrainSec, physio.MaxSpanSec)
		}
		if _, err := features.ParseVersion(c.Detector.Version); err != nil {
			report("campaign %q: %v", c.Name, err)
		}
	}
	if c.Detector.MaxIter < 0 {
		report("campaign %q: Detector.MaxIter %d must not be negative", c.Name, c.Detector.MaxIter)
	}

	// campseed: reproducibility needs explicit seeds.
	if c.Cohort.BaseSeed == 0 {
		report("campaign %q: Cohort.BaseSeed is unset: runs are not reproducible (campseed)", c.Name)
	}
	seen := make(map[int64]int)
	for i, a := range c.Attacks {
		if a.Kind == AttackNoise && a.Seed == 0 {
			report("campaign %q: attack arm %d (%s) needs an explicit Seed (campseed)", c.Name, i, a.Kind)
		}
		if a.Seed != 0 {
			if j, dup := seen[a.Seed]; dup {
				report("campaign %q: attack arms %d and %d share Seed %d: arms are not independent (campseed)", c.Name, j, i, a.Seed)
			}
			seen[a.Seed] = i
		}
	}

	// campreach: every attack window must be able to fire.
	for i, a := range c.Attacks {
		to := effectiveTo(a.ToSec, c.Cohort.LiveSec)
		switch {
		case a.FromSec < 0:
			report("campaign %q: attack arm %d (%s) starts at negative time %g (campreach)", c.Name, i, a.Kind, a.FromSec)
		case a.FromSec >= c.Cohort.LiveSec:
			report("campaign %q: attack arm %d (%s) window [%g,%g)s starts at or after the %g s live span ends: it can never fire (campreach)",
				c.Name, i, a.Kind, a.FromSec, to, c.Cohort.LiveSec)
		case to <= a.FromSec:
			report("campaign %q: attack arm %d (%s) window [%g,%g)s is empty (campreach)", c.Name, i, a.Kind, a.FromSec, to)
		default:
			for j, f := range c.Faults {
				if f.Kind == FaultPartition && f.FromSec <= a.FromSec && to <= effectiveTo(f.ToSec, c.Cohort.LiveSec) {
					report("campaign %q: attack arm %d (%s) window [%g,%g)s is fully inside partition %d [%g,%g)s: every attacked frame is dropped before the station sees it (campreach)",
						c.Name, i, a.Kind, a.FromSec, to, j, f.FromSec, f.ToSec)
				}
			}
		}
	}

	// campsched: fault schedules must be well-formed and satisfiable.
	for i, f := range c.Faults {
		to := effectiveTo(f.ToSec, c.Cohort.LiveSec)
		switch {
		case f.FromSec < 0:
			report("campaign %q: fault %d (%s) starts at negative time %g (campsched)", c.Name, i, f.Kind, f.FromSec)
		case to <= f.FromSec:
			report("campaign %q: fault %d (%s) window inverts: [%g,%g)s (campsched)", c.Name, i, f.Kind, f.FromSec, to)
		case f.FromSec >= c.Cohort.LiveSec || to > c.Cohort.LiveSec:
			report("campaign %q: fault %d (%s) window [%g,%g)s exceeds the %g s live span (campsched)", c.Name, i, f.Kind, f.FromSec, to, c.Cohort.LiveSec)
		}
		for j := i + 1; j < len(c.Faults); j++ {
			g := c.Faults[j]
			if g.Kind != f.Kind {
				continue
			}
			gTo := effectiveTo(g.ToSec, c.Cohort.LiveSec)
			if f.FromSec < gTo && g.FromSec < to {
				report("campaign %q: fault windows %d [%g,%g)s and %d [%g,%g)s overlap (campsched)", c.Name, i, f.FromSec, to, j, g.FromSec, gTo)
			}
		}
	}

	// campbudget: declared budgets must be satisfiable by the declared
	// detector version's statically proven bounds.
	if c.Budget != (Budget{}) && c.Kind != KindAdaptive {
		if v, err := features.ParseVersion(c.Detector.Version); err == nil {
			if b, err := StaticBounds(v); err == nil {
				if c.Budget.MaxCyclesPerWindow > 0 && c.Budget.MaxCyclesPerWindow < b.Cycles {
					report("campaign %q: declared cycle budget %d/window is below the static worst-case %d for %s: unsatisfiable (campbudget)",
						c.Name, c.Budget.MaxCyclesPerWindow, b.Cycles, c.Detector.Version)
				}
				if c.Budget.MaxSRAMBytes > 0 && c.Budget.MaxSRAMBytes < b.SRAMBytes {
					report("campaign %q: declared SRAM budget %d B is below the static peak %d B for %s: unsatisfiable (campbudget)",
						c.Name, c.Budget.MaxSRAMBytes, b.SRAMBytes, c.Detector.Version)
				}
			}
		}
	}

	// Kind/topology coherence.
	switch c.Kind {
	case KindFleet:
		for i, a := range c.Attacks {
			if a.Kind != AttackSubstitution {
				report("campaign %q: fleet attack arm %d: only %s is synthesizable on the wire path (got %s)", c.Name, i, AttackSubstitution, a.Kind)
			}
		}
		if len(c.Attacks) > 1 {
			report("campaign %q: fleet campaigns take one attack window, got %d", c.Name, len(c.Attacks))
		}
		if c.Topology.Kind == TopoSharded && c.Topology.Shards <= 0 {
			report("campaign %q: sharded topology needs Shards > 0", c.Name)
		}
		if c.Topology.Loss < 0 || c.Topology.Loss > 1 || c.Topology.Dup < 0 || c.Topology.Dup > 1 {
			report("campaign %q: channel probabilities (%g, %g) outside [0,1]", c.Name, c.Topology.Loss, c.Topology.Dup)
		}
	case KindAuthAdversary:
		if c.Topology.Kind != TopoTCP && c.Topology.Kind != TopoChaos {
			report("campaign %q: auth-adversary campaigns need a real wire to attack: Topology.Kind must be %s or %s (got %s)",
				c.Name, TopoTCP, TopoChaos, c.Topology.Kind)
		}
		if !c.Topology.Auth {
			report("campaign %q: auth-adversary campaigns run the authenticated wire: set Topology.Auth", c.Name)
		}
		if len(c.Attacks) > 0 {
			report("campaign %q: auth-adversary campaigns take no attack windows: the scheduled byzantine peer is the adversary (got %d arms)", c.Name, len(c.Attacks))
		}
		if len(c.Faults) > 0 {
			report("campaign %q: auth-adversary campaigns take no fault windows: the baseline/authed comparison must see identical channels (got %d)", c.Name, len(c.Faults))
		}
		if c.Topology.Loss < 0 || c.Topology.Loss > 1 {
			report("campaign %q: chaos corruption probability %g outside [0,1]", c.Name, c.Topology.Loss)
		}
	case KindGallery, KindAdaptive:
		if c.Topology != (Topology{}) {
			report("campaign %q: %s campaigns run in-process: leave Topology zero", c.Name, c.Kind)
		}
	default:
		report("campaign %q: unknown Kind %d", c.Name, int(c.Kind))
	}
	if c.Kind == KindGallery && len(c.Attacks) == 0 {
		report("campaign %q: gallery campaigns need at least one attack arm", c.Name)
	}
	if c.Topology.Auth && c.Topology.Kind != TopoTCP && c.Topology.Kind != TopoChaos {
		report("campaign %q: Topology.Auth needs a real wire to authenticate: only %s and %s topologies support it (got %s)",
			c.Name, TopoTCP, TopoChaos, c.Topology.Kind)
	}

	return errors.Join(errs...)
}
