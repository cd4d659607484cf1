package main

import (
	"strings"
	"testing"
)

func TestCompareRunsShardOverheadGate(t *testing.T) {
	old := report(
		Result{Name: "fleet/W8", MinNS: 1000},
		Result{Name: "fleet/sharded/S4", MinNS: 1050},
	)
	cur := report(
		Result{Name: "fleet/W8", MinNS: 1000},
		Result{Name: "fleet/sharded/S4", MinNS: 1500},
	)
	var sb strings.Builder
	// fleet/sharded/S4 drifted 42.9% across reports AND blew the
	// intra-report overhead ceiling: both must count.
	if n := compareReports(old, cur, 10, &sb); n != 2 {
		t.Errorf("regressions = %d, want 2 (drift + overhead ceiling)\n%s", n, sb.String())
	}
}

func TestShardSuitesRegistered(t *testing.T) {
	names := map[string]bool{}
	for _, s := range allSuites() {
		names[s.name] = true
	}
	for _, want := range []string{"fleet/sharded/S1", "fleet/sharded/S4", "fleet/sharded/S8"} {
		if !names[want] {
			t.Errorf("allSuites is missing %s", want)
		}
	}
}

func TestShardSuiteRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("shard suite trains a detector fixture")
	}
	res, err := shardSuite(2).run(runConfig{warmup: 0, samples: 1}, true)
	if err != nil {
		t.Fatal(err)
	}
	if res.Extra["shards"] != 2 {
		t.Errorf("suite extra shards = %v, want 2", res.Extra["shards"])
	}
	if res.OpsPerSec <= 0 {
		t.Error("shard suite reported no throughput")
	}
}
