package main

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

// TestRunFlagsOnlyHijackedWindows runs the walk-through: the five live
// windows print genuine and the five hijacked ones print altered.
func TestRunFlagsOnlyHijackedWindows(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	verdicts := make(map[int]string)
	for _, line := range strings.Split(out.String(), "\n") {
		var idx int
		var margin float64
		if _, err := fmt.Sscanf(strings.TrimSpace(line), "window %d: margin %f →", &idx, &margin); err != nil {
			continue
		}
		if _, dup := verdicts[idx]; dup {
			t.Fatalf("window %d printed twice:\n%s", idx, out.String())
		}
		verdicts[idx] = line
	}
	if len(verdicts) != 10 {
		t.Fatalf("printed %d windows, want 10:\n%s", len(verdicts), out.String())
	}
	for idx := 0; idx < 10; idx++ {
		line, ok := verdicts[idx]
		if !ok {
			t.Fatalf("window %d not printed:\n%s", idx, out.String())
		}
		altered := strings.Contains(line, "ALTERED")
		if want := idx >= 5; altered != want || strings.Contains(line, "genuine") == want {
			t.Errorf("window %d: %q, want altered=%v", idx, line, want)
		}
	}
}
