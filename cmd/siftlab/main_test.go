package main

import (
	"errors"
	"strings"
	"testing"
)

// An unknown name is a usage error, found before the environment is
// synthesized.
func TestRunRejectsUnknownExperiment(t *testing.T) {
	err := run([]string{"-quick", "definitely-not-an-experiment"})
	if !errors.As(err, new(usageError)) || !strings.Contains(err.Error(), "unknown experiment") {
		t.Errorf("err = %v, want an unknown-experiment usageError", err)
	}
}

func TestRunRequiresExactlyOneArg(t *testing.T) {
	if err := run([]string{"-quick"}); err == nil {
		t.Error("no experiment should error")
	}
	if err := run([]string{"-quick", "table2", "extra"}); err == nil {
		t.Error("extra args should error")
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	if err := run([]string{"-nonsense"}); err == nil {
		t.Error("unknown flag should error")
	}
}

func TestRunFeaturesQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("runs an experiment")
	}
	// The cheapest real experiment exercises env construction and the
	// Table I path end to end.
	if err := run([]string{"-quick", "features"}); err != nil {
		t.Fatalf("features experiment failed: %v", err)
	}
}

func TestTrainSpans(t *testing.T) {
	spans := trainSpans(1200)
	if len(spans) != 5 || spans[len(spans)-1] != 1200 {
		t.Errorf("full spans = %v", spans)
	}
	short := trainSpans(120)
	for _, s := range short {
		if s > 120 {
			t.Errorf("span %v exceeds the training record", s)
		}
	}
	if got := trainSpans(10); len(got) != 1 || got[0] != 10 {
		t.Errorf("degenerate spans = %v", got)
	}
}

// A negative -svm-iter would train the zero model, which reports every
// version at 100% FP, and a negative -subjects would fall back to the
// protocol's cohort size unnoticed.
func TestRunRejectsNegativeCounts(t *testing.T) {
	for _, args := range [][]string{
		{"-quick", "-svm-iter", "-1", "table2"},
		{"-quick", "-subjects", "-2", "table2"},
	} {
		if err := run(args); exitCode(err) != 2 {
			t.Errorf("%v: err = %v, exit %d, want exit 2", args, err, exitCode(err))
		}
	}
	if err := run([]string{"-nonsense"}); exitCode(err) != 2 {
		t.Errorf("unknown flag: err = %v, exit %d, want exit 2", err, exitCode(err))
	}
	if err := run([]string{"-quick", "no-such-experiment"}); exitCode(err) != 2 {
		t.Errorf("unknown experiment: err = %v, exit %d, want exit 2", err, exitCode(err))
	}
}
