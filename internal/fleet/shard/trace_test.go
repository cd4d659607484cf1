package shard

import (
	"context"
	"testing"
	"time"

	"github.com/wiot-security/sift/internal/fleet"
	"github.com/wiot-security/sift/internal/obs"
	"github.com/wiot-security/sift/internal/obs/trace"
	"github.com/wiot-security/sift/internal/wiot"
	"github.com/wiot-security/sift/internal/wiot/chaos"
)

// TestShardChaosTraceSingleRoot is the cross-station trace acceptance
// claim: a sharded run over chaos TCP — including a mid-run station
// kill and rebalance — records one connected span tree. Every
// station-side connection span propagated over the wire via the
// ctrlTrace record must chain shard.run ← fleet.slot ←
// fleet.scenario.run ← wiot.sink.conn ← wiot.station.conn back to the
// single run root, with no orphaned roots and no span left open.
func TestShardChaosTraceSingleRoot(t *testing.T) {
	prev := obs.Enabled()
	obs.SetEnabled(true)
	t.Cleanup(func() { obs.SetEnabled(prev) })

	keep := map[string]bool{
		"shard.run":          true,
		"fleet.slot":         true,
		"fleet.scenario.run": true,
		"wiot.sink.conn":     true,
		"wiot.station.conn":  true,
	}
	rec := trace.New(1<<15, 4)
	rec.SetFilter(func(name string) bool { return keep[name] })
	obs.AttachSink(rec)
	t.Cleanup(obs.DetachSink)

	const scenarios, seed = 8, 11
	overChaosTCP := func(ctx context.Context, slot fleet.Slot, sc wiot.Scenario) (wiot.ScenarioResult, error) {
		return wiot.RunScenarioOverTCP(ctx, sc, wiot.NetConfig{
			Seed:        slot.Seed,
			TraceParent: slot.Trace,
			WrapListener: chaos.WrapListener(chaos.Config{
				Seed:        slot.Seed,
				CorruptProb: 0.05,
				CutProb:     0.01,
			}),
		})
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	res, err := Run(ctx, Config{
		Scenarios: scenarios,
		Shards:    4,
		Workers:   1,
		BaseSeed:  seed,
		Source:    cohortSource(t, 3, 4),
		Runner:    overChaosTCP,
		Kill:      &KillPlan{Station: 2, AfterSlots: 1},
	})
	obs.DetachSink()
	if err != nil {
		t.Fatal(err)
	}
	if res.Deaths != 1 || res.Rebalanced == 0 {
		t.Fatalf("kill plan did not exercise failover: deaths=%d rebalanced=%d", res.Deaths, res.Rebalanced)
	}
	if rec.Drops() != 0 {
		t.Fatalf("recorder dropped %d events; ring too small for the test", rec.Drops())
	}

	events := rec.Snapshot()
	begins := make(map[uint64]trace.Event)
	ended := make(map[uint64]bool)
	var root uint64
	roots := 0
	for _, e := range events {
		switch e.Kind {
		case trace.KindSpanBegin:
			begins[e.SpanID] = e
			if e.Name == "shard.run" {
				root = e.SpanID
				roots++
			}
		case trace.KindSpanEnd:
			ended[e.SpanID] = true
		}
	}
	if roots != 1 {
		t.Fatalf("recorded %d shard.run roots, want exactly 1", roots)
	}

	counts := make(map[string]int)
	for id, e := range begins {
		counts[e.Name]++
		if e.Name == "shard.run" {
			continue
		}
		// Walk the parent chain; it must terminate at the single root
		// without hitting a missing span (an orphan).
		cur := e
		for hops := 0; ; hops++ {
			if hops > 16 {
				t.Fatalf("span %q %#x: parent chain did not terminate", e.Name, id)
			}
			if cur.ParentID == 0 {
				t.Fatalf("span %q %#x is an orphaned root (no parent)", cur.Name, cur.SpanID)
			}
			if cur.ParentID == root {
				break
			}
			p, ok := begins[cur.ParentID]
			if !ok {
				t.Fatalf("span %q %#x references unrecorded parent %#x", cur.Name, cur.SpanID, cur.ParentID)
			}
			cur = p
		}
	}
	if counts["wiot.sink.conn"] == 0 {
		t.Fatal("no sink-side connection spans recorded")
	}
	if counts["wiot.station.conn"] == 0 {
		t.Fatal("no station-side connection spans recorded (ctrlTrace never adopted)")
	}
	if counts["fleet.slot"] < scenarios {
		t.Errorf("recorded %d fleet.slot spans, want >= %d", counts["fleet.slot"], scenarios)
	}

	// Station-side spans must parent under a sink-side conn span — the
	// parentage crossed the TCP boundary, not a process-local shortcut.
	for _, e := range begins {
		if e.Name != "wiot.station.conn" {
			continue
		}
		p, ok := begins[e.ParentID]
		if !ok || p.Name != "wiot.sink.conn" {
			t.Errorf("station conn span %#x parents under %q, want wiot.sink.conn", e.SpanID, p.Name)
		}
	}

	// Reconnect hygiene: every connection span was ended (the station
	// defers the end, so chaos cuts and the mid-run kill cannot leak an
	// open span).
	for id, e := range begins {
		if e.Name == "wiot.sink.conn" || e.Name == "wiot.station.conn" {
			if !ended[id] {
				t.Errorf("%s span %#x never ended", e.Name, id)
			}
		}
	}
}
