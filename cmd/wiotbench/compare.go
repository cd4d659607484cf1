package main

import (
	"fmt"
	"io"
	"strings"
)

// compareReports prints a suite-by-suite comparison of per-op latency
// and returns the number of regressions: suites that slowed by more
// than thresholdPct percent, plus suites that existed in the old report
// but vanished from the new one (a silently dropped benchmark must fail
// the gate, or coverage rots). Suites only present in the new report
// are listed but never fail.
//
// The compared statistic is the best (minimum) batch mean, falling back
// to the overall mean for reports that predate it. Contention on a
// shared CI runner only ever inflates a sample, never deflates it, so
// the minimum is the closest observable to the code's true cost — it is
// the only statistic stable enough for a 10% gate at quick-mode sample
// counts. The full distribution (mean/p50/p99) still travels in the
// json for humans reading drift.
func compareReports(old, cur Report, thresholdPct float64, w io.Writer) int {
	curByName := make(map[string]Result, len(cur.Suites))
	for _, s := range cur.Suites {
		curByName[s.Name] = s
	}
	if old.Env != cur.Env {
		fmt.Fprintf(w, "note: environments differ (old %s/%s go %s %d cpu, new %s/%s go %s %d cpu)\n",
			old.Env.GOOS, old.Env.GOARCH, old.Env.GoVersion, old.Env.NumCPU,
			cur.Env.GOOS, cur.Env.GOARCH, cur.Env.GoVersion, cur.Env.NumCPU)
	}

	regressions := 0
	seen := make(map[string]bool, len(old.Suites))
	fmt.Fprintf(w, "%-20s %14s %14s %9s\n", "suite", "old min ns/op", "new min ns/op", "delta")
	for _, o := range old.Suites {
		seen[o.Name] = true
		n, ok := curByName[o.Name]
		if !ok {
			fmt.Fprintf(w, "%-20s %14.0f %14s %9s  MISSING\n", o.Name, compared(o), "-", "-")
			regressions++
			continue
		}
		oldNS, newNS := compared(o), compared(n)
		var delta float64
		if oldNS > 0 {
			delta = (newNS - oldNS) / oldNS * 100
		}
		verdict := ""
		if delta > thresholdPct {
			verdict = "  REGRESSED"
			regressions++
		}
		fmt.Fprintf(w, "%-20s %14.0f %14.0f %+8.1f%%%s\n", o.Name, oldNS, newNS, delta, verdict)
	}
	for _, n := range cur.Suites {
		if !seen[n.Name] {
			fmt.Fprintf(w, "%-20s %14s %14.0f %9s  new suite\n", n.Name, "-", compared(n), "-")
		}
	}
	return regressions + runGates(cur, thresholdPct, w)
}

// gateKind is how a gate judges its candidate suite against its base.
type gateKind int

const (
	// overheadCeiling fails when the candidate costs more than limit
	// percent over the base.
	overheadCeiling gateKind = iota
	// overheadBudget is overheadCeiling with the CLI -threshold as its
	// limit.
	overheadBudget
	// speedupFloor fails when base/candidate falls below limit.
	speedupFloor
)

// benchGate is one intra-report gate. Each is an absolute property of
// the build under test, not a drift check, so it compares two suites
// within the new report and silently skips when either is absent. A
// base and candidate that end in "/" name suite families: every
// candidate-prefixed suite with a base-prefixed twin is gated.
type benchGate struct {
	label           string
	base, candidate string
	kind            gateKind
	limit           float64
}

// jitSpeedupFloor is the minimum ratio each jit/* suite must hold over
// its interpreter-pinned vm/* twin. Template compilation only earns its
// complexity if it removes the dispatch loop wholesale, so the floor is
// an order of magnitude, not a percentage.
const jitSpeedupFloor = 10.0

// shardOverheadCeilingPct bounds what the sharded control plane may
// cost over the plain fleet engine at the same total worker budget:
// fleet/sharded/S4 (4 stations × 2 workers) versus fleet/W8. Station
// queues, verdict batching, and the merge loop are bookkeeping around
// the same scenario work, so anything past a modest ceiling means the
// control plane started showing up in the per-window budget.
const shardOverheadCeilingPct = 15.0

// federateOverheadCeilingPct bounds what metrics federation may cost on
// the sharded run it observes: federate/on versus federate/off over the
// identical cohort. Publishing is a cumulative snapshot copy per station
// per tick plus a mutex-guarded absorb on the coordinator — bookkeeping
// entirely off the frame hot path — so federation that shows up beyond
// a tenth of the per-scenario budget means a publisher regression.
const federateOverheadCeilingPct = 10.0

// authOverheadCeilingPct bounds what wire v3 authentication may cost on
// an end-to-end stream: auth/hmac (HMAC onboarding plus a truncated
// per-frame MAC on both ends) versus auth/off over the identical
// scenario. The MAC is a fixed-size compute per 384-byte frame on a
// path dominated by signal scoring and real TCP round trips, so
// authentication that shows up beyond a modest ceiling means the seal
// or verify path regressed onto the hot path.
const authOverheadCeilingPct = 15.0

// gates lists every intra-report gate in the order compare prints them.
// The flight-recorder gate bounds trace/on (the instrumented
// classification path with a recorder attached) against trace/off by
// the CLI -threshold.
var gates = []benchGate{
	{label: "flight recorder overhead", base: "trace/off", candidate: "trace/on", kind: overheadBudget},
	{label: "jit speedup", base: "vm/", candidate: "jit/", kind: speedupFloor, limit: jitSpeedupFloor},
	{label: "shard overhead", base: "fleet/W8", candidate: "fleet/sharded/S4", kind: overheadCeiling, limit: shardOverheadCeilingPct},
	{label: "federation overhead", base: "federate/off", candidate: "federate/on", kind: overheadCeiling, limit: federateOverheadCeilingPct},
	{label: "auth overhead", base: "auth/off", candidate: "auth/hmac", kind: overheadCeiling, limit: authOverheadCeilingPct},
}

// runGates evaluates gates against the new report, prints one verdict
// line per gated pair, and returns the number that failed.
func runGates(cur Report, thresholdPct float64, w io.Writer) int {
	byName := make(map[string]Result, len(cur.Suites))
	for _, s := range cur.Suites {
		byName[s.Name] = s
	}
	fail := 0
	for _, g := range gates {
		limit := g.limit
		if g.kind == overheadBudget {
			limit = thresholdPct
		}
		for _, c := range cur.Suites {
			baseName := g.base
			if strings.HasSuffix(g.candidate, "/") {
				if !strings.HasPrefix(c.Name, g.candidate) {
					continue
				}
				baseName += strings.TrimPrefix(c.Name, g.candidate)
			} else if c.Name != g.candidate {
				continue
			}
			base, ok := byName[baseName]
			if !ok {
				continue
			}
			baseNS, candNS := compared(base), compared(c)
			if g.kind == speedupFloor {
				if candNS <= 0 {
					continue
				}
				speedup := baseNS / candNS
				verdict := "ok"
				if speedup < limit {
					verdict = "BELOW FLOOR"
					fail++
				}
				fmt.Fprintf(w, "%s: %-14s %6.1fx vs %s%-10s (floor %.0fx) — %s\n",
					g.label, c.Name, speedup, g.base, strings.TrimPrefix(baseName, g.base), limit, verdict)
				continue
			}
			if baseNS <= 0 {
				continue
			}
			bound := "ceiling"
			if g.kind == overheadBudget {
				bound = "budget"
			}
			overhead := (candNS - baseNS) / baseNS * 100
			verdict := "within " + bound
			if overhead > limit {
				verdict = "OVER " + strings.ToUpper(bound)
				fail++
			}
			fmt.Fprintf(w, "%s: %s %+.1f%% vs %s (%s %.1f%%) — %s\n",
				g.label, c.Name, overhead, baseName, bound, limit, verdict)
		}
	}
	return fail
}

// compared picks the suite's gated statistic.
func compared(r Result) float64 {
	if r.MinNS > 0 {
		return r.MinNS
	}
	return r.MeanNS
}
