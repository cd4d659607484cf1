// Package catalog is the repo's standard campaign declarations: plain
// Go struct literals, registered with the campaign registry so
// `wiotsim build` can list, lint (campaign.Validate), and synthesize
// them.
//
// These declarations replaced the imperative construction code that
// used to live in examples/attackgallery and examples/adaptivesecurity;
// the parity tests in internal/campaign pin their synthesized verdicts
// byte-identical to the legacy paths.
package catalog

import "github.com/wiot-security/sift/internal/campaign"

// AttackGallery trains SIFT only on the substitution attack and then
// confronts it with every sensor-hijacking manifestation — the
// attack-agnostic design claim, evaluated declaratively. The arm layout
// (split at 60 s of the 120 s live span, noise seeded at 7, 0.4 s
// timeshift) reproduces the pre-migration example byte-for-byte.
var AttackGallery = campaign.Campaign{
	Name:        "attack-gallery",
	Description: "substitution-trained detector vs the full sensor-hijacking gallery",
	Kind:        campaign.KindGallery,
	Cohort:      campaign.Cohort{Subjects: 3, BaseSeed: 21, TrainSec: 300, LiveSec: 120},
	Detector:    campaign.Detector{Version: "Original", SVMSeed: 3, MaxIter: 150},
	Attacks: []campaign.AttackWindow{
		{Kind: campaign.AttackSubstitution, FromSec: 60},
		{Kind: campaign.AttackReplay, FromSec: 60},
		{Kind: campaign.AttackFlatline, FromSec: 60},
		{Kind: campaign.AttackNoise, FromSec: 60, Seed: 7, Magnitude: 0.5},
		{Kind: campaign.AttackTimeShift, FromSec: 60, Magnitude: 0.4},
	},
	Budget: campaign.Budget{MaxSRAMBytes: 2048},
	Digest: campaign.DigestRequired,
}

// AdaptiveSecurity simulates the paper's Insight #4: a full battery
// discharge with the decision engine trading detection fidelity for
// lifetime as energy drains.
var AdaptiveSecurity = campaign.Campaign{
	Name:        "adaptive-security",
	Description: "battery-discharge simulation with adaptive version switching",
	Kind:        campaign.KindAdaptive,
	Cohort:      campaign.Cohort{Subjects: 1, BaseSeed: 5, LiveSec: 15},
	Digest:      campaign.DigestRequired,
}

// FleetBaseline is the canonical in-process fleet run: a cohort
// streaming over a lossy link with a mid-stream substitution MITM — the
// declarative form of `wiotsim -fleet 12`.
var FleetBaseline = campaign.Campaign{
	Name:        "fleet-baseline",
	Description: "12 wearers over a lossy in-process link, MITM at t=60s",
	Kind:        campaign.KindFleet,
	Cohort:      campaign.Cohort{Subjects: 12, BaseSeed: 42, TrainSec: 300, LiveSec: 120},
	Detector:    campaign.Detector{Version: "Original"},
	Topology:    campaign.Topology{Kind: campaign.TopoInProcess, Workers: 8, Loss: 0.02, Dup: 0.01},
	Attacks: []campaign.AttackWindow{
		{Kind: campaign.AttackSubstitution, FromSec: 60},
	},
	Budget: campaign.Budget{MaxSRAMBytes: 2048},
	Digest: campaign.DigestRequired,
}

// ChaosSoak routes a small cohort over loopback TCP through the seeded
// chaos injector, with scheduled link partitions the go-back-N recovery
// machinery must ride out while the MITM window stays detectable.
var ChaosSoak = campaign.Campaign{
	Name:        "chaos-soak",
	Description: "chaos-TCP cohort with scheduled partitions and a late MITM window",
	Kind:        campaign.KindFleet,
	Cohort:      campaign.Cohort{Subjects: 6, BaseSeed: 11, TrainSec: 120, LiveSec: 60},
	Detector:    campaign.Detector{Version: "Original"},
	Topology:    campaign.Topology{Kind: campaign.TopoChaos, Workers: 4, Loss: 0.05},
	Attacks: []campaign.AttackWindow{
		{Kind: campaign.AttackSubstitution, FromSec: 30},
	},
	Faults: []campaign.FaultWindow{
		{Kind: campaign.FaultPartition, FromSec: 6, ToSec: 12},
		{Kind: campaign.FaultPartition, FromSec: 18, ToSec: 21},
	},
	Digest: campaign.DigestRequired,
}

// ShardedSmoke is the sharded control plane's declarative smoke: the
// cohort striped across four stations, digest-invariant at any shard
// count.
var ShardedSmoke = campaign.Campaign{
	Name:        "sharded-smoke",
	Description: "cohort striped across 4 stations; digest invariant vs 1 station",
	Kind:        campaign.KindFleet,
	Cohort:      campaign.Cohort{Subjects: 16, BaseSeed: 7, TrainSec: 60, LiveSec: 12},
	Detector:    campaign.Detector{Version: "Reduced"},
	Topology:    campaign.Topology{Kind: campaign.TopoSharded, Shards: 4, Workers: 2},
	Attacks: []campaign.AttackWindow{
		{Kind: campaign.AttackSubstitution, FromSec: 6},
	},
	Digest: campaign.DigestRequired,
}

// AuthAdversary proves the authenticated wire's security claim end to
// end: the honest cohort's verdicts must be byte-identical over plain
// v2 and over v3 with a scheduled byzantine peer forging CRC-valid
// records, while the wire-level impersonation, replay, and
// session-hijack campaigns are rejected with zero forged frames
// accepted.
var AuthAdversary = campaign.Campaign{
	Name:        "auth-adversary",
	Description: "v3 wire under a byzantine peer: verdicts converge, forgeries rejected",
	Kind:        campaign.KindAuthAdversary,
	Cohort:      campaign.Cohort{Subjects: 3, BaseSeed: 17, TrainSec: 60, LiveSec: 12},
	Detector:    campaign.Detector{Version: "Reduced"},
	Topology:    campaign.Topology{Kind: campaign.TopoTCP, Workers: 2, Auth: true},
	Digest:      campaign.DigestRequired,
}

// Catalog lists every declared campaign in registration order.
var Catalog = []campaign.Campaign{
	AttackGallery,
	AdaptiveSecurity,
	FleetBaseline,
	ChaosSoak,
	ShardedSmoke,
	AuthAdversary,
}

func init() {
	for _, c := range Catalog {
		campaign.Register(c)
	}
}
