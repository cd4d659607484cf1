package main

import (
	"strings"
	"testing"

	"github.com/wiot-security/sift/internal/wiot"
)

func TestCompareRunsAuthOverheadGate(t *testing.T) {
	old := report(Result{Name: "auth/off", MinNS: 1000}, Result{Name: "auth/hmac", MinNS: 1050})
	cur := report(Result{Name: "auth/off", MinNS: 1000}, Result{Name: "auth/hmac", MinNS: 1500})
	var sb strings.Builder
	// auth/hmac regressed 42.9% across reports AND blew the intra-report
	// ceiling: both must count.
	if n := compareReports(old, cur, 10, &sb); n != 2 {
		t.Errorf("regressions = %d, want 2 (drift + auth ceiling)\n%s", n, sb.String())
	}
}

func TestAuthSuitesRegistered(t *testing.T) {
	names := map[string]bool{}
	for _, s := range allSuites() {
		names[s.name] = true
	}
	for _, want := range []string{"auth/off", "auth/hmac", "auth/frame/hmac", "auth/frame/cmac"} {
		if !names[want] {
			t.Errorf("allSuites is missing %s", want)
		}
	}
}

// TestAuthFrameSuitesRun exercises both micro suites and pins the
// modeled device bill: accelerator-backed CMAC is the cheaper
// primitive per frame under the documented cycle constants, and both
// carry a nonzero marginal energy figure.
func TestAuthFrameSuitesRun(t *testing.T) {
	cfg := runConfig{warmup: 1, samples: 2}
	extras := map[wiot.MACAlg]map[string]float64{}
	for _, alg := range []wiot.MACAlg{wiot.MACHMAC, wiot.MACCMAC} {
		res, err := authFrameSuite(alg).run(cfg, true)
		if err != nil {
			t.Fatal(err)
		}
		for _, key := range []string{"macBytesPerFrame", "deviceCyclesPerFrame", "deviceMACMicroJPerWindow"} {
			if res.Extra[key] <= 0 {
				t.Errorf("%s: Extra[%s] = %v, want > 0", res.Name, key, res.Extra[key])
			}
		}
		extras[alg] = res.Extra
	}
	if extras[wiot.MACHMAC]["macBytesPerFrame"] != extras[wiot.MACCMAC]["macBytesPerFrame"] {
		t.Error("the two primitives MAC different frame prefixes")
	}
	if extras[wiot.MACCMAC]["deviceCyclesPerFrame"] >= extras[wiot.MACHMAC]["deviceCyclesPerFrame"] {
		t.Errorf("modeled CMAC cycles (%v) not below HMAC (%v)",
			extras[wiot.MACCMAC]["deviceCyclesPerFrame"], extras[wiot.MACHMAC]["deviceCyclesPerFrame"])
	}
}

// TestAuthScenarioSuiteRuns smoke-tests the authenticated end-to-end
// suite on the quick fixture: real TCP, HMAC onboarding, sealed frames.
func TestAuthScenarioSuiteRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("trains the fleet fixture and runs TCP scenarios")
	}
	res, err := authScenarioSuite(true).run(runConfig{warmup: 1, samples: 2}, true)
	if err != nil {
		t.Fatal(err)
	}
	if res.Extra["authed"] != 1 {
		t.Errorf("auth/hmac Extra[authed] = %v, want 1", res.Extra["authed"])
	}
}
