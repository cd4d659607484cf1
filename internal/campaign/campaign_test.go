package campaign

import (
	"math"
	"strings"
	"testing"

	"github.com/wiot-security/sift/internal/features"
)

// validFleet returns a minimal well-formed fleet campaign tests mutate.
func validFleet() Campaign {
	return Campaign{
		Name:     "t",
		Kind:     KindFleet,
		Cohort:   Cohort{Subjects: 4, BaseSeed: 9, TrainSec: 60, LiveSec: 12},
		Detector: Detector{Version: "Reduced"},
		Topology: Topology{Kind: TopoInProcess, Workers: 2, Loss: 0.02, Dup: 0.01},
		Attacks:  []AttackWindow{{Kind: AttackSubstitution, FromSec: 6}},
		Digest:   DigestRequired,
	}
}

func TestValidateClean(t *testing.T) {
	if err := validFleet().Validate(); err != nil {
		t.Fatalf("valid campaign rejected: %v", err)
	}
}

func TestValidateFindings(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Campaign)
		want string // substring of the joined error
	}{
		{"no name", func(c *Campaign) { c.Name = "" }, "no Name"},
		{"no seed", func(c *Campaign) { c.Cohort.BaseSeed = 0 }, "campseed"},
		{"bad version", func(c *Campaign) { c.Detector.Version = "Turbo" }, "unknown detector version"},
		{"negative SVM cap", func(c *Campaign) { c.Detector.MaxIter = -1 }, "Detector.MaxIter -1 must not be negative"},
		{"unreachable attack", func(c *Campaign) { c.Attacks[0].FromSec = 12 }, "can never fire (campreach)"},
		{"negative attack", func(c *Campaign) { c.Attacks[0].FromSec = -1 }, "negative time"},
		{"empty attack window", func(c *Campaign) { c.Attacks[0].ToSec = 6; c.Attacks[0].FromSec = 6 }, "campreach"},
		{"masked attack", func(c *Campaign) {
			c.Faults = []FaultWindow{{Kind: FaultPartition, FromSec: 5, ToSec: 0}}
		}, "fully inside partition"},
		{"inverted fault", func(c *Campaign) {
			c.Faults = []FaultWindow{{Kind: FaultPartition, FromSec: 8, ToSec: 4}}
		}, "inverts"},
		{"fault past end", func(c *Campaign) {
			c.Faults = []FaultWindow{{Kind: FaultPartition, FromSec: 2, ToSec: 20}}
		}, "exceeds"},
		{"negative fault", func(c *Campaign) {
			c.Faults = []FaultWindow{{Kind: FaultPartition, FromSec: -1, ToSec: 4}}
		}, "negative time -1 (campsched)"},
		{"overlapping faults", func(c *Campaign) {
			c.Faults = []FaultWindow{
				{Kind: FaultPartition, FromSec: 1, ToSec: 4},
				{Kind: FaultPartition, FromSec: 3, ToSec: 5},
			}
		}, "overlap"},
		{"noise needs seed", func(c *Campaign) {
			c.Kind = KindGallery
			c.Topology = Topology{}
			c.Attacks = []AttackWindow{{Kind: AttackNoise, FromSec: 6}}
		}, "needs an explicit Seed"},
		{"duplicate arm seeds", func(c *Campaign) {
			c.Kind = KindGallery
			c.Topology = Topology{}
			c.Attacks = []AttackWindow{
				{Kind: AttackNoise, FromSec: 6, Seed: 3},
				{Kind: AttackNoise, FromSec: 6, Seed: 3},
			}
		}, "share Seed"},
		{"fleet non-substitution", func(c *Campaign) { c.Attacks[0].Kind = AttackFlatline }, "only substitution"},
		{"fleet cohort of two", func(c *Campaign) { c.Cohort.Subjects = 2 }, "at least 3 subjects"},
		{"auth-adversary cohort of two", func(c *Campaign) {
			c.Kind = KindAuthAdversary
			c.Attacks = nil
			c.Topology = Topology{Kind: TopoTCP, Auth: true}
			c.Cohort.Subjects = 2
		}, "at least 3 subjects"},
		{"sharded needs shards", func(c *Campaign) { c.Topology.Kind = TopoSharded }, "Shards > 0"},
		{"cycle budget unsatisfiable", func(c *Campaign) { c.Budget.MaxCyclesPerWindow = 10 }, "campbudget"},
		{"sram budget unsatisfiable", func(c *Campaign) { c.Budget.MaxSRAMBytes = 8 }, "campbudget"},
		{"auth without a wire", func(c *Campaign) { c.Topology.Auth = true }, "real wire to authenticate"},
		{"auth-adversary on inproc", func(c *Campaign) {
			c.Kind = KindAuthAdversary
			c.Attacks = nil
			c.Topology = Topology{Kind: TopoInProcess, Auth: true}
		}, "real wire to attack"},
		{"auth-adversary without auth", func(c *Campaign) {
			c.Kind = KindAuthAdversary
			c.Attacks = nil
			c.Topology = Topology{Kind: TopoTCP}
		}, "set Topology.Auth"},
		{"auth-adversary with attack arms", func(c *Campaign) {
			c.Kind = KindAuthAdversary
			c.Topology = Topology{Kind: TopoTCP, Auth: true}
		}, "no attack windows"},
		{"auth-adversary with faults", func(c *Campaign) {
			c.Kind = KindAuthAdversary
			c.Attacks = nil
			c.Topology = Topology{Kind: TopoTCP, Auth: true}
			c.Faults = []FaultWindow{{Kind: FaultPartition, FromSec: 1, ToSec: 3}}
		}, "no fault windows"},
		{"NaN train span", func(c *Campaign) { c.Cohort.TrainSec = math.NaN() }, "Cohort.TrainSec NaN is not finite"},
		{"infinite live span", func(c *Campaign) { c.Cohort.LiveSec = math.Inf(1) }, "Cohort.LiveSec +Inf is not finite"},
		{"huge train span", func(c *Campaign) { c.Cohort.TrainSec = 1e300 }, "Cohort.TrainSec 1e+300 exceeds the 86400 s recording cap"},
		{"huge live span", func(c *Campaign) { c.Cohort.LiveSec = 1e300 }, "Cohort.LiveSec 1e+300 exceeds the 86400 s recording cap"},
		{"NaN attack start", func(c *Campaign) { c.Attacks[0].FromSec = math.NaN() }, "Attacks[0].FromSec NaN is not finite"},
		{"infinite attack end", func(c *Campaign) { c.Attacks[0].ToSec = math.Inf(1) }, "Attacks[0].ToSec +Inf is not finite"},
		{"NaN attack magnitude", func(c *Campaign) { c.Attacks[0].Magnitude = math.NaN() }, "Attacks[0].Magnitude NaN is not finite"},
		{"NaN fault start", func(c *Campaign) {
			c.Faults = []FaultWindow{{Kind: FaultPartition, FromSec: math.NaN(), ToSec: 4}}
		}, "Faults[0].FromSec NaN is not finite"},
		{"negative infinite fault end", func(c *Campaign) {
			c.Faults = []FaultWindow{{Kind: FaultPartition, FromSec: 1, ToSec: math.Inf(-1)}}
		}, "Faults[0].ToSec -Inf is not finite"},
		{"NaN loss", func(c *Campaign) { c.Topology.Loss = math.NaN() }, "Topology.Loss NaN is not finite"},
		{"NaN dup", func(c *Campaign) { c.Topology.Dup = math.NaN() }, "Topology.Dup NaN is not finite"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := validFleet()
			tc.mut(&c)
			err := c.Validate()
			if err == nil {
				t.Fatalf("mutation %q passed validation", tc.name)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestBudgetSatisfiable pins that a generous budget passes: the 2 KB
// device envelope must be enough for every shipped version.
func TestBudgetSatisfiable(t *testing.T) {
	c := validFleet()
	c.Budget = Budget{MaxSRAMBytes: 2048}
	if err := c.Validate(); err != nil {
		t.Fatalf("2 KB SRAM budget rejected: %v", err)
	}
}

func TestCanonicalRoundTrip(t *testing.T) {
	cases := []Campaign{
		validFleet(),
		{
			Name: "gallery", Description: "arms", Kind: KindGallery,
			Cohort:   Cohort{Subjects: 3, BaseSeed: 21, TrainSec: 300, LiveSec: 120},
			Detector: Detector{Version: "Original", SVMSeed: 3, MaxIter: 150},
			Attacks: []AttackWindow{
				{Kind: AttackNoise, FromSec: 60, Seed: 7, Magnitude: 0.5},
				{Kind: AttackTimeShift, FromSec: 60, Magnitude: 0.4},
			},
			Budget: Budget{MaxCyclesPerWindow: 3_000_000, MaxSRAMBytes: 2048},
			Digest: DigestRequired,
		},
		{
			Name: "faulty", Kind: KindFleet,
			Cohort:   Cohort{Subjects: 6, BaseSeed: 11, TrainSec: 120, LiveSec: 60},
			Detector: Detector{Version: "Simplified"},
			Topology: Topology{Kind: TopoChaos, Workers: 4, Loss: 0.05},
			Attacks:  []AttackWindow{{Kind: AttackSubstitution, FromSec: 30}},
			Faults: []FaultWindow{
				{Kind: FaultPartition, FromSec: 6, ToSec: 12},
			},
		},
		{
			Name: "authed", Description: "byzantine wire", Kind: KindAuthAdversary,
			Cohort:   Cohort{Subjects: 3, BaseSeed: 17, TrainSec: 60, LiveSec: 12},
			Detector: Detector{Version: "Reduced"},
			Topology: Topology{Kind: TopoTCP, Workers: 2, Auth: true},
			Digest:   DigestRequired,
		},
	}
	for _, c := range cases {
		t.Run(c.Name, func(t *testing.T) {
			text := c.Canonical()
			back, err := ParseCanonical(text)
			if err != nil {
				t.Fatalf("ParseCanonical: %v", err)
			}
			if back.Canonical() != text {
				t.Fatalf("round trip drifted:\n%s\nvs\n%s", back.Canonical(), text)
			}
			if back.DeclDigest() != c.DeclDigest() {
				t.Fatal("round trip changed the declaration digest")
			}
		})
	}
}

func TestCanonicalRejectsGarbage(t *testing.T) {
	for _, text := range []string{
		"",
		"nope",
		"campaign/1\nname", // not key=value
		"campaign/1\nname=a\nname=b\nkind=fleet\n",
		"campaign/1\nname=a\nkind=warp\n",
	} {
		if _, err := ParseCanonical(text); err == nil {
			t.Errorf("ParseCanonical(%q) accepted garbage", text)
		}
	}
}

// TestDeclDigestSensitivity pins that the digest is stable across
// re-rendering and moves when any declaration field moves.
func TestDeclDigestSensitivity(t *testing.T) {
	base := validFleet()
	if base.DeclDigest() != base.DeclDigest() {
		t.Fatal("digest is not stable")
	}
	mutants := []func(*Campaign){
		func(c *Campaign) { c.Cohort.BaseSeed++ },
		func(c *Campaign) { c.Cohort.LiveSec += 0.5 },
		func(c *Campaign) { c.Attacks[0].FromSec++ },
		func(c *Campaign) { c.Topology.Loss = 0.03 },
		func(c *Campaign) { c.Topology.Auth = true },
		func(c *Campaign) { c.Detector.Version = "Original" },
		func(c *Campaign) { c.Digest = DigestOff },
	}
	for i, mut := range mutants {
		c := validFleet()
		mut(&c)
		if c.DeclDigest() == base.DeclDigest() {
			t.Errorf("mutant %d left the digest unchanged", i)
		}
	}
}

func TestStaticBounds(t *testing.T) {
	for _, name := range []string{"Original", "Simplified", "Reduced"} {
		v, err := features.ParseVersion(name)
		if err != nil {
			t.Fatal(err)
		}
		b, err := StaticBounds(v)
		if err != nil {
			t.Fatalf("StaticBounds(%s): %v", name, err)
		}
		if b.Cycles == 0 || b.SRAMBytes == 0 {
			t.Fatalf("StaticBounds(%s) degenerate: %+v", name, b)
		}
		if b.SRAMBytes > 2048 {
			t.Fatalf("StaticBounds(%s) breaks the 2 KB envelope: %d B", name, b.SRAMBytes)
		}
	}
}
