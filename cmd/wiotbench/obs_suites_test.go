package main

import (
	"strings"
	"testing"

	"github.com/wiot-security/sift/internal/obs"
	"github.com/wiot-security/sift/internal/obs/trace"
)

func TestCompareRunsOverheadGate(t *testing.T) {
	old := report(Result{Name: "trace/off", MinNS: 1000}, Result{Name: "trace/on", MinNS: 1010})
	cur := report(Result{Name: "trace/off", MinNS: 1000}, Result{Name: "trace/on", MinNS: 1500})
	var sb strings.Builder
	// trace/on regressed 48.5% across reports AND blew the intra-report
	// budget: both must count.
	if n := compareReports(old, cur, 10, &sb); n != 2 {
		t.Errorf("regressions = %d, want 2 (drift + overhead budget)\n%s", n, sb.String())
	}
}

func TestObsBenchStateRestores(t *testing.T) {
	rec := trace.New(16, 1)
	restore := obsBenchState(rec)
	if !obs.SinkAttached() {
		t.Fatal("obsBenchState did not attach the recorder")
	}
	restore()
	if obs.SinkAttached() {
		t.Fatal("restore left the recorder attached")
	}
}

func TestTraceAndTelemetrySuitesRegistered(t *testing.T) {
	names := map[string]bool{}
	for _, s := range allSuites() {
		names[s.name] = true
	}
	for _, want := range []string{"trace/off", "trace/on", "telemetry/sample"} {
		if !names[want] {
			t.Errorf("allSuites is missing %s", want)
		}
	}
}

func TestTelemetrySuiteRuns(t *testing.T) {
	res, err := telemetrySuite().run(runConfig{warmup: 1, samples: 2}, true)
	if err != nil {
		t.Fatal(err)
	}
	if res.Extra["deviceSeries"] == 0 {
		t.Error("telemetry suite sampled no device series")
	}
}
