package campaign_test

import (
	"bytes"
	"context"
	"testing"

	"github.com/wiot-security/sift/internal/campaign"
	"github.com/wiot-security/sift/internal/campaign/catalog"
)

// runAuthAdversary synthesizes and runs the catalog declaration once,
// returning the plan and outcome.
func runAuthAdversary(t *testing.T) (*campaign.Plan, *campaign.Outcome) {
	t.Helper()
	plan, err := catalog.AuthAdversary.Synthesize()
	if err != nil {
		t.Fatal(err)
	}
	out, err := plan.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return plan, out
}

// TestAuthAdversaryCampaign is the declarative form of the tentpole
// claim: the honest cohort's verdicts converge byte-identically between
// plain v2 and attacked v3 runs, every wire campaign is rejected with
// zero forged frames accepted, and the whole outcome is digest-stable
// across re-runs.
func TestAuthAdversaryCampaign(t *testing.T) {
	if testing.Short() {
		t.Skip("runs four fleets over real TCP")
	}
	plan, out := runAuthAdversary(t)
	a := out.Auth
	if a == nil {
		t.Fatal("auth-adversary outcome has no Auth payload")
	}
	if !a.Converged || a.BaselineDigest != a.AuthedDigest {
		t.Fatalf("arms diverged: converged=%t\nbaseline %s\nauthed   %s",
			a.Converged, a.BaselineDigest, a.AuthedDigest)
	}
	if a.Tampered == 0 || a.Replayed == 0 || a.Spliced == 0 {
		t.Fatalf("adversary activity %d/%d/%d tamper/replay/splice, want all nonzero",
			a.Tampered, a.Replayed, a.Spliced)
	}
	if a.ForgedAccepted != 0 {
		t.Fatalf("%d forged frames accepted across the wire campaigns, want 0", a.ForgedAccepted)
	}
	wantWire := []string{"wire-impersonation", "wire-frame-replay", "wire-session-hijack"}
	if len(a.Wire) != len(wantWire) {
		t.Fatalf("wire reports = %d, want %d", len(a.Wire), len(wantWire))
	}
	for i, w := range a.Wire {
		if w.Name != wantWire[i] {
			t.Errorf("wire[%d] = %s, want %s", i, w.Name, wantWire[i])
		}
		if w.ForgedAccepted != 0 {
			t.Errorf("%s: %d forged frames accepted, want 0", w.Name, w.ForgedAccepted)
		}
		if w.Rejected < int64(w.ForgedSent) {
			t.Errorf("%s: %d rejections for %d forged records — attempts unaccounted for",
				w.Name, w.Rejected, w.ForgedSent)
		}
	}

	// The manifest carries the auth payload and the run is digest-stable:
	// a re-run reproduces the verdict digest and the manifest bytes.
	m := plan.Manifest(out)
	if m.Auth == nil || m.Kind != "auth-adversary" {
		t.Fatalf("manifest kind=%q auth=%v, want auth-adversary payload", m.Kind, m.Auth)
	}
	if !m.Auth.Converged || len(m.Auth.Wire) != len(wantWire) {
		t.Fatalf("manifest auth payload %+v does not mirror the outcome", m.Auth)
	}
	enc, err := m.Encode()
	if err != nil {
		t.Fatal(err)
	}

	plan2, out2 := runAuthAdversary(t)
	if out.VerdictDigest() != out2.VerdictDigest() {
		t.Fatalf("verdict digest moved across identical runs:\n%s\nvs\n%s",
			out.VerdictCanonical(), out2.VerdictCanonical())
	}
	enc2, err := plan2.Manifest(out2).Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc, enc2) {
		t.Fatalf("manifest bytes moved across identical runs:\n%s\nvs\n%s", enc, enc2)
	}
}

// TestFleetTopologyAuthParity pins the onboarding layer's transparency
// through the declarative path: a fleet campaign over authenticated TCP
// produces the same verdict digest as the identical campaign over plain
// TCP.
func TestFleetTopologyAuthParity(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two fleets over real TCP")
	}
	base := campaign.Campaign{
		Name:     "auth-parity",
		Kind:     campaign.KindFleet,
		Cohort:   campaign.Cohort{Subjects: 3, BaseSeed: 17, TrainSec: 60, LiveSec: 12},
		Detector: campaign.Detector{Version: "Reduced"},
		Topology: campaign.Topology{Kind: campaign.TopoTCP, Workers: 2},
		Digest:   campaign.DigestRequired,
	}
	run := func(c campaign.Campaign) string {
		plan, err := c.Synthesize()
		if err != nil {
			t.Fatal(err)
		}
		out, err := plan.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if err := out.Fleet.Err(); err != nil {
			t.Fatal(err)
		}
		return out.VerdictDigest()
	}
	plain := run(base)
	authed := base
	authed.Topology.Auth = true
	if got := run(authed); got != plain {
		t.Fatalf("authenticated fleet verdicts diverged from plain TCP: %s vs %s", got, plain)
	}
}
