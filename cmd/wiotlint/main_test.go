package main

import (
	"bytes"
	"os/exec"
	"strings"
	"testing"
)

// lint runs the CLI in-process and captures output.
func lint(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errOut bytes.Buffer
	code = run(args, &out, &errOut)
	return code, out.String(), errOut.String()
}

func TestListNamesEveryAnalyzer(t *testing.T) {
	code, out, _ := lint(t, "-list")
	if code != 0 {
		t.Fatalf("-list exit %d", code)
	}
	var names []string
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		names = append(names, strings.Fields(line)[0])
	}
	if got, want := strings.Join(names, " "), "opcomplete detrand spanend qmisuse"; got != want {
		t.Errorf("-list names %q, want %q", got, want)
	}
}

func TestCleanPackageExitsZero(t *testing.T) {
	code, out, errOut := lint(t, "github.com/wiot-security/sift/internal/fixedpoint")
	if code != 0 {
		t.Fatalf("fixedpoint should lint clean, exit %d\nstdout: %s\nstderr: %s", code, out, errOut)
	}
	if out != "" {
		t.Errorf("clean run printed findings:\n%s", out)
	}
}

func TestFindingsExitOne(t *testing.T) {
	code, out, errOut := lint(t, "-run", "qmisuse", "../../internal/analysis/testdata/src/qarith")
	if code != 1 {
		t.Fatalf("fixture with findings should exit 1, got %d", code)
	}
	if !strings.Contains(out, "qmisuse:") {
		t.Errorf("findings output missing analyzer name:\n%s", out)
	}
	if !strings.Contains(errOut, "finding(s)") {
		t.Errorf("stderr missing the finding count:\n%s", errOut)
	}
}

func TestUsageErrorsExitTwo(t *testing.T) {
	cases := []struct {
		name string
		args []string
	}{
		{"unknown analyzer", []string{"-run", "nosuchanalyzer"}},
		{"bad pattern", []string{"./does/not/exist"}},
		{"bad flag", []string{"-definitely-not-a-flag"}},
		{"removed campaigns flag", []string{"-campaigns"}},
		{"removed json flag", []string{"-json"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if code, _, _ := lint(t, tc.args...); code != 2 {
				t.Errorf("wiotlint %s: exit %d, want 2", strings.Join(tc.args, " "), code)
			}
		})
	}
}

// TestLinksOnlyTheAnalyzers pins the linter's footprint: within this
// module it imports internal/analysis and nothing else, so linting never
// builds the simulator.
func TestLinksOnlyTheAnalyzers(t *testing.T) {
	const module = "github.com/wiot-security/sift/"
	out, err := exec.Command("go", "list", "-deps", "-f", "{{.ImportPath}}", ".").Output()
	if err != nil {
		t.Fatalf("go list -deps: %v", err)
	}
	var own []string
	for _, path := range strings.Fields(string(out)) {
		if strings.HasPrefix(path, module) {
			own = append(own, strings.TrimPrefix(path, module))
		}
	}
	if got, want := strings.Join(own, " "), "internal/analysis cmd/wiotlint"; got != want {
		t.Errorf("wiotlint links module packages %q, want %q", got, want)
	}
}
