package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestRunRejectsUnknownVersion(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-version", "Turbo"}, &out)
	if err == nil || !strings.Contains(err.Error(), "unknown detector version") {
		t.Fatalf("err = %v, want an unknown-version error", err)
	}
	if exitCode(err) != 1 || out.Len() != 0 {
		t.Errorf("exit %d with output %q, want exit 1 and no output", exitCode(err), out.String())
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	if err := run([]string{"-nonsense"}, new(bytes.Buffer)); exitCode(err) != 2 {
		t.Errorf("unknown flag: err = %v, exit %d, want exit 2", err, exitCode(err))
	}
	if err := run([]string{"-h"}, new(bytes.Buffer)); exitCode(err) != 0 {
		t.Errorf("-h: err = %v, exit %d, want exit 0", err, exitCode(err))
	}
}

func TestRunRendersPanel(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-version", "Reduced", "-disasm"}, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Reduced", "firmware: ", "cycles/window", "disassembly:"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}
}
