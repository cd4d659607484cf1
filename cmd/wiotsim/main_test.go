package main

import (
	"context"
	"math"
	"strings"
	"testing"

	"github.com/wiot-security/sift/internal/campaign"
	"github.com/wiot-security/sift/internal/dataset"
	"github.com/wiot-security/sift/internal/features"
	"github.com/wiot-security/sift/internal/fleet"
	"github.com/wiot-security/sift/internal/obs"
	"github.com/wiot-security/sift/internal/physio"
	"github.com/wiot-security/sift/internal/wiot"
)

func TestRunFleetRejectsTinyCohorts(t *testing.T) {
	for _, n := range []int{-1, 0, 1, 2} {
		err := runFleet(fleetOptions{subjects: n, version: features.Original})
		if err == nil || !strings.Contains(err.Error(), "at least 3") || strings.Contains(err.Error(), "wiotsim:") {
			t.Errorf("runFleet(subjects=%d) = %v, want cohort-size error", n, err)
		}
	}
}

func TestValidateFlags(t *testing.T) {
	ok := func(fleetN, workers int, loss, dup, trainSec, liveSec, attackAt float64) error {
		return validateFlags(fleetN, workers, loss, dup, trainSec, liveSec, attackAt, "", "", false, false, 0, false, 0)
	}
	if err := ok(0, 4, 0.02, 0.01, 300, 120, 60); err != nil {
		t.Errorf("default-shaped flags rejected: %v", err)
	}
	if err := ok(12, 1, 0, 1, 1, 1, 0); err != nil {
		t.Errorf("boundary values rejected: %v", err)
	}
	if err := ok(12, 1, 0, 1, physio.MaxSpanSec, physio.MaxSpanSec, 0); err != nil {
		t.Errorf("one-day spans rejected: %v", err)
	}
	if err := validateFlags(1000, 2, 0.02, 0.01, 60, 6, 3, "", "", false, false, 4, true, 256); err != nil {
		t.Errorf("sharded stream flags rejected: %v", err)
	}
	bad := []struct {
		name string
		err  error
	}{
		{"-fleet", ok(-1, 4, 0.02, 0.01, 300, 120, 60)},
		{"-workers zero", ok(4, 0, 0.02, 0.01, 300, 120, 60)},
		{"-workers negative", ok(4, -3, 0.02, 0.01, 300, 120, 60)},
		{"-loss", ok(4, 4, 1.5, 0.01, 300, 120, 60)},
		{"-dup", ok(4, 4, 0.02, -0.1, 300, 120, 60)},
		{"-train", ok(4, 4, 0.02, 0.01, 0, 120, 60)},
		{"-live", ok(4, 4, 0.02, 0.01, 300, -5, 60)},
		{"-attack-at", ok(4, 4, 0.02, 0.01, 300, 120, -1)},
		{"-loss NaN", ok(3, 4, math.NaN(), 0.01, 300, 120, 60)},
		{"-dup NaN", ok(3, 4, 0.02, math.NaN(), 300, 120, 60)},
		{"-train NaN", ok(4, 4, 0.02, 0.01, math.NaN(), 120, 60)},
		{"-train +Inf", ok(4, 4, 0.02, 0.01, math.Inf(1), 120, 60)},
		{"-live NaN", ok(0, 4, 0.02, 0.01, 300, math.NaN(), 60)},
		{"-live +Inf", ok(0, 4, 0.02, 0.01, 300, math.Inf(1), 60)},
		{"-live -Inf", ok(0, 4, 0.02, 0.01, 300, math.Inf(-1), 60)},
		{"-train huge", ok(4, 4, 0.02, 0.01, 1e300, 20, 10)},
		{"-live huge", ok(0, 4, 0.02, 0.01, 300, 1e300, 60)},
		{"-train past-a-day", ok(4, 4, 0.02, 0.01, physio.MaxSpanSec+1, 120, 60)},
		{"-attack-at NaN", ok(0, 4, 0.02, 0.01, 300, 120, math.NaN())},
		{"-attack-at +Inf", ok(0, 4, 0.02, 0.01, 300, 120, math.Inf(1))},
		{"-attack-at -Inf", ok(0, 4, 0.02, 0.01, 300, 120, math.Inf(-1))},
		{"-serve", validateFlags(0, 4, 0.02, 0.01, 300, 120, 60, ":9090", "", false, false, 0, false, 0)},
		{"-trace", validateFlags(0, 4, 0.02, 0.01, 300, 120, 60, "", "out.json", false, false, 0, false, 0)},
		{"-chaos", validateFlags(0, 4, 0.02, 0.01, 300, 120, 60, "", "", true, false, 0, false, 0)},
		{"-auth without-chaos", validateFlags(12, 4, 0.02, 0.01, 300, 120, 60, "", "", false, true, 0, false, 0)},
		{"-shards negative", validateFlags(12, 4, 0.02, 0.01, 300, 120, 60, "", "", false, false, -1, false, 0)},
		{"-shards without-fleet", validateFlags(0, 4, 0.02, 0.01, 300, 120, 60, "", "", false, false, 4, false, 0)},
		{"-stream without-shards", validateFlags(12, 4, 0.02, 0.01, 300, 120, 60, "", "", false, false, 0, true, 0)},
		{"-stream with-chaos", validateFlags(12, 4, 0.02, 0.01, 300, 120, 60, "", "", true, false, 4, true, 0)},
		{"-stream with-serve", validateFlags(12, 4, 0.02, 0.01, 300, 120, 60, ":9090", "", false, false, 4, true, 0)},
		{"-max-heap-mib negative", validateFlags(12, 4, 0.02, 0.01, 300, 120, 60, "", "", false, false, 4, true, -1)},
		{"-max-heap-mib without-stream", validateFlags(12, 4, 0.02, 0.01, 300, 120, 60, "", "", false, false, 4, false, 64)},
		{"-attack-at past-live single", ok(0, 4, 0.02, 0.01, 60, 30, 45)},
		{"-attack-at at-live fleet", ok(12, 4, 0.02, 0.01, 60, 30, 30)},
		{"-attack-at past-live stream", validateFlags(1000, 2, 0.02, 0.01, 60, 6, 9, "", "", false, false, 4, true, 0)},
	}
	for _, c := range bad {
		if c.err == nil {
			t.Errorf("%s: invalid value accepted", c.name)
		} else if !strings.Contains(c.err.Error(), strings.Fields(c.name)[0]) {
			t.Errorf("%s: error %q does not name the offending flag", c.name, c.err)
		}
	}
}

// TestFleetCampaignAuthTopology pins how -auth lowers into the
// declarative layer: the chaos topology carries Topology.Auth, while a
// sharded plan keeps auth out of the declaration (the CLI reattaches it
// through the chaos runner's provision) — and both declarations stay
// valid.
func TestFleetCampaignAuthTopology(t *testing.T) {
	opt := fleetOptions{
		subjects: 4, workers: 2, seed: 9, trainSec: 60, liveSec: 12,
		attackAt: 6, loss: 0.02, chaos: true, auth: true, version: features.Original,
	}
	c := fleetCampaign(opt)
	if c.Topology.Kind != campaign.TopoChaos || !c.Topology.Auth {
		t.Fatalf("chaos+auth lowered to %+v", c.Topology)
	}
	if err := c.Validate(); err != nil {
		t.Fatalf("chaos+auth campaign invalid: %v", err)
	}
	opt.shards = 2
	c = fleetCampaign(opt)
	if c.Topology.Auth {
		t.Fatal("sharded topology must not carry Auth (it is reattached via the runner)")
	}
	if err := c.Validate(); err != nil {
		t.Fatalf("sharded chaos+auth campaign invalid: %v", err)
	}
	// The sharded plan's runner is campaign.ChaosRunner: -auth must
	// onboard both sensors over v3, and plain -chaos none.
	if n := chaosHandshakes(t, opt); n < 2 {
		t.Fatalf("chaos runner with -auth ran %d handshakes, want at least one per sensor", n)
	}
	opt.auth = false
	if n := chaosHandshakes(t, opt); n != 0 {
		t.Fatalf("chaos runner without -auth ran %d handshakes", n)
	}
}

// chaosHandshakes streams one short scenario through the chaos runner a
// sharded -chaos run attaches and counts the v3 handshakes the station
// completed.
func chaosHandshakes(t *testing.T, opt fleetOptions) int64 {
	t.Helper()
	rec, err := physio.Generate(physio.DefaultSubject(), 6, physio.DefaultSampleRate, opt.seed)
	if err != nil {
		t.Fatal(err)
	}
	prev := obs.Enabled()
	obs.SetEnabled(true)
	defer obs.SetEnabled(prev)
	handshakes := obs.NewCounter("wiot.auth.handshakes")
	before := handshakes.Value()
	run := campaign.ChaosRunner(opt.seed, opt.loss, opt.auth)
	res, err := run(context.Background(), fleet.Slot{Seed: opt.seed}, wiot.Scenario{Record: rec, Detector: cleanDetector{}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Windows == 0 {
		t.Fatal("chaos runner delivered no windows")
	}
	return handshakes.Value() - before
}

// cleanDetector passes every window.
type cleanDetector struct{}

func (cleanDetector) Classify(dataset.Window) (bool, error) { return false, nil }
