package main

import (
	"strings"
	"testing"
)

// TestGates drives every intra-report gate through the one evaluator:
// a candidate within its limit passes, one past it fails with the
// gate's verdict word, and a gate whose suites are absent neither fails
// nor prints.
func TestGates(t *testing.T) {
	cases := []struct {
		name    string
		suites  []Result
		fails   int
		verdict string // "" means the gate must print nothing
	}{
		{"TraceOverheadWithinBudget", []Result{
			{Name: "trace/off", MeanNS: 1000, MinNS: 1000},
			{Name: "trace/on", MeanNS: 1050, MinNS: 1050},
		}, 0, "within budget"},
		{"TraceOverheadOverBudget", []Result{
			{Name: "trace/off", MeanNS: 1000, MinNS: 1000},
			{Name: "trace/on", MeanNS: 1300, MinNS: 1300},
		}, 1, "OVER BUDGET"},
		{"TraceOverheadSkipsWhenSuitesAbsent", []Result{
			{Name: "vm/Original", MeanNS: 1},
		}, 0, ""},
		{"JITSpeedupAboveFloor", []Result{
			{Name: "vm/Original", MinNS: 5000},
			{Name: "jit/Original", MinNS: 400},
		}, 0, "— ok"},
		{"JITSpeedupBelowFloor", []Result{
			{Name: "vm/Original", MinNS: 5000},
			{Name: "jit/Original", MinNS: 400},
			{Name: "vm/Reduced", MinNS: 2000},
			{Name: "jit/Reduced", MinNS: 400},
		}, 1, "BELOW FLOOR"},
		{"JITSpeedupSkipsWithoutTwin", []Result{
			{Name: "jit/Original", MinNS: 400},
			{Name: "vm/Reduced", MinNS: 2000},
		}, 0, ""},
		{"ShardOverheadWithinCeiling", []Result{
			{Name: "fleet/W8", MeanNS: 1000, MinNS: 1000},
			{Name: "fleet/sharded/S4", MeanNS: 1080, MinNS: 1080},
		}, 0, "within ceiling"},
		{"ShardOverheadOverCeiling", []Result{
			{Name: "fleet/W8", MeanNS: 1000, MinNS: 1000},
			{Name: "fleet/sharded/S4", MeanNS: 1400, MinNS: 1400},
		}, 1, "OVER CEILING"},
		{"ShardOverheadSkipsWhenSuitesAbsent", []Result{
			{Name: "fleet/W8", MeanNS: 1},
		}, 0, ""},
		{"FederateOverheadWithinCeiling", []Result{
			{Name: "federate/off", MinNS: 1000},
			{Name: "federate/on", MinNS: 1050},
		}, 0, "within ceiling"},
		{"FederateOverheadOverCeiling", []Result{
			{Name: "federate/off", MinNS: 1000},
			{Name: "federate/on", MinNS: 1200},
		}, 1, "OVER CEILING"},
		{"FederateOverheadSkipsWhenSuitesAbsent", []Result{
			{Name: "federate/on", MinNS: 1200},
		}, 0, ""},
		{"AuthOverheadWithinCeiling", []Result{
			{Name: "auth/off", MeanNS: 1000, MinNS: 1000},
			{Name: "auth/hmac", MeanNS: 1080, MinNS: 1080},
		}, 0, "within ceiling"},
		{"AuthOverheadOverCeiling", []Result{
			{Name: "auth/off", MeanNS: 1000, MinNS: 1000},
			{Name: "auth/hmac", MeanNS: 1400, MinNS: 1400},
		}, 1, "OVER CEILING"},
		{"AuthOverheadSkipsWhenSuitesAbsent", []Result{
			{Name: "auth/off", MinNS: 1000},
		}, 0, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var sb strings.Builder
			if n := runGates(report(tc.suites...), 10, &sb); n != tc.fails {
				t.Errorf("failures = %d, want %d:\n%s", n, tc.fails, sb.String())
			}
			if tc.verdict == "" {
				if sb.Len() != 0 {
					t.Errorf("gate printed without its suites: %q", sb.String())
				}
			} else if !strings.Contains(sb.String(), tc.verdict) {
				t.Errorf("output missing %q verdict:\n%s", tc.verdict, sb.String())
			}
		})
	}
}
