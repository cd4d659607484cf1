package main

import (
	"fmt"
	"strings"
	"testing"

	"github.com/wiot-security/sift/internal/amulet"
	"github.com/wiot-security/sift/internal/amulet/jit"
	"github.com/wiot-security/sift/internal/amulet/program"
	"github.com/wiot-security/sift/internal/features"
)

// TestJITSuiteAttributesLoops checks that a jit/* suite reports one
// ns-per-window figure per fused loop, keyed by pc range and template in
// Kernels() order, next to the whole run and the marshalling.
func TestJITSuiteAttributesLoops(t *testing.T) {
	v := features.Original
	res, err := deviceSuite(v, true).run(runConfig{warmup: 0, samples: 1}, true)
	if err != nil {
		t.Fatal(err)
	}
	p, err := program.Build(v)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := jit.Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	for k, l := range cp.Loops() {
		key := fmt.Sprintf("loop%02d:%s", k, l)
		if _, ok := res.Extra[key]; !ok {
			t.Errorf("Extra lacks %q: %v", key, res.Extra)
		}
	}
	for _, key := range []string{"runNs", "marshalNs", "clockNs"} {
		if res.Extra[key] <= 0 {
			t.Errorf("Extra[%s] = %v, want > 0", key, res.Extra[key])
		}
	}
}

// TestDeviceSuiteBackends checks what tells the vm/* and jit/* suites
// apart under -nojit: the vm/* suite still runs and reports only the
// cycle telemetry, and a jit/* suite refuses to run.
func TestDeviceSuiteBackends(t *testing.T) {
	v := features.Reduced
	prev := amulet.SetJITEnabled(false)
	defer amulet.SetJITEnabled(prev)
	res, err := deviceSuite(v, false).run(runConfig{warmup: 0, samples: 1}, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Extra) != 2 || res.Extra["cyclesPerWindow"] <= 0 || res.Extra["cyclesPerSec"] <= 0 {
		t.Errorf("vm suite Extra = %v, want cyclesPerWindow and cyclesPerSec only", res.Extra)
	}
	if _, err := deviceSuite(v, true).run(runConfig{warmup: 0, samples: 1}, true); err == nil || !strings.Contains(err.Error(), "-nojit") {
		t.Errorf("jit suite with the JIT disabled: err = %v, want the -nojit refusal", err)
	}
}
