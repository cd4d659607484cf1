package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"os"
	"strings"
	"sync/atomic"
	"testing"

	"github.com/wiot-security/sift/internal/dataset"
	"github.com/wiot-security/sift/internal/wiot"
)

// benchmarkSpec is the part of BENCHMARK.json the program must honour.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// runShort runs the benchmark at a short length, with one set-up, and
// returns its result and diagnostics.
func runShort(t *testing.T, workload string, trace bool) (result, string) {
	t.Helper()
	var log bytes.Buffer
	res, err := benchmark(context.Background(), options{
		workload: workload,
		seed:     2,
		seconds:  0.3,
		trace:    trace,
		setups:   1,
	}, &log)
	if err != nil {
		t.Fatalf("%s trace=%t: %v\n%s", workload, trace, err, log.String())
	}
	return res, log.String()
}

func checkMetrics(t *testing.T, label string, res result, want []specMetric) {
	t.Helper()
	if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
		t.Errorf("%s: correct=%t attempted=%d failed=%d", label, res.Correct, res.Attempted, res.Failed)
	}
	if len(res.Metrics) != len(want) {
		t.Errorf("%s: %d metrics printed, BENCHMARK.json names %d", label, len(res.Metrics), len(want))
	}
	for _, m := range want {
		got, ok := res.Metrics[m.Name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s missing", label, m.Name)
		case got.Unit != m.Unit:
			t.Errorf("%s: metric %s in %q, BENCHMARK.json says %q", label, m.Name, got.Unit, m.Unit)
		}
	}
}

func TestEveryWorkloadPrintsItsMetrics(t *testing.T) {
	spec := loadSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			res, out := runShort(t, w.Name, false)
			checkMetrics(t, w.Name+" end-to-end", res, spec.EndToEnd)
			for _, m := range spec.EndToEnd {
				if res.Metrics[m.Name].Value <= 0 {
					t.Errorf("%s: %s = %v, want > 0", w.Name, m.Name, res.Metrics[m.Name].Value)
				}
			}
			diags := []string{"proc.cpu_util", "proc.wall_windows_per_s", "p99"}
			wl, _ := lookupWorkload(w.Name)
			if wl.onDevice {
				diags = append(diags, "device_battery_days")
			}
			if wl.overTCP {
				diags = append(diags, "wire_bytes_per_window")
			}
			for _, d := range diags {
				if !strings.Contains(out, d) {
					t.Errorf("%s: diagnostic %s not printed", w.Name, d)
				}
			}

			traced, _ := runShort(t, w.Name, true)
			checkMetrics(t, w.Name+" per-layer", traced, spec.PerLayer)
		})
	}
}

// flipOne flips the verdict of the nth classification it sees.
type flipOne struct {
	inner wiot.Detector
	calls *atomic.Int64
	nth   int64
}

func (f flipOne) Classify(w dataset.Window) (bool, error) {
	v, err := f.inner.Classify(w)
	if f.calls.Add(1) == f.nth {
		v = !v
	}
	return v, err
}

func TestGateFailsOnOneFlippedVerdict(t *testing.T) {
	var calls atomic.Int64
	// The reference run classifies cohortSize·40 windows; the flip lands
	// in the first timed run.
	nth := int64(cohortSize*40 + 17)
	res, err := benchmark(context.Background(), options{
		workload: "cohort-host",
		seed:     defaultSeed,
		seconds:  0.2,
		setups:   1,
		wrapDetector: func(d wiot.Detector) wiot.Detector {
			return flipOne{inner: d, calls: &calls, nth: nth}
		},
	}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if calls.Load() < nth {
		t.Fatalf("only %d classifications, the flip never happened", calls.Load())
	}
	if res.Correct || res.Failed != 1 {
		t.Fatalf("one flipped verdict: correct=%t failed=%d, want false and 1", res.Correct, res.Failed)
	}
}

func TestGatePassesAtAnotherSeed(t *testing.T) {
	res, err := benchmark(context.Background(), options{
		workload: "wire-auth",
		seed:     7,
		seconds:  0.2,
		setups:   1,
	}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 {
		t.Fatalf("seed 7: correct=%t failed=%d", res.Correct, res.Failed)
	}
}
