package experiments

import (
	"fmt"
	"strings"
	"testing"

	"github.com/wiot-security/sift/internal/amulet/program"
	"github.com/wiot-security/sift/internal/dataset"
	"github.com/wiot-security/sift/internal/features"
	"github.com/wiot-security/sift/internal/sift"
)

// fig2Detectors trains the detector Fig 2 traces and flashes its
// quantized model onto a fresh device.
func fig2Detectors(t *testing.T, env *Env) (*sift.Detector, *program.DeviceDetector) {
	t.Helper()
	det, err := sift.TrainForSubject(env.TrainRecs[0], env.DonorsFor(0), sift.Config{
		Version: features.Original,
		SVM:     quickSVM(),
	})
	if err != nil {
		t.Fatal(err)
	}
	q, err := det.Quantize()
	if err != nil {
		t.Fatal(err)
	}
	dev, err := program.NewDeviceDetector(det.Version, nil, q)
	if err != nil {
		t.Fatal(err)
	}
	return det, dev
}

// TestFig2PrintsDetectorVerdicts checks that each margin and verdict
// Fig 2 prints is the one sift.Detector.Classify and
// program.DeviceDetector.Classify return for that window.
func TestFig2PrintsDetectorVerdicts(t *testing.T) {
	env := quickEnv(t)
	text, err := Fig2(env, quickSVM())
	if err != nil {
		t.Fatal(err)
	}
	det, dev := fig2Detectors(t, env)
	wins, err := dataset.FromRecord(env.TestRecs[0], dataset.WindowSec)
	if err != nil {
		t.Fatal(err)
	}
	blocks := strings.Split(text, "\nwindow ")
	if len(blocks) != fig2Windows+1 {
		t.Fatalf("Fig 2 traces %d windows, want %d:\n%s", len(blocks)-1, fig2Windows, text)
	}
	for i, w := range wins[:fig2Windows] {
		block := blocks[i+1]
		if !strings.HasPrefix(block, fmt.Sprintf("%d:\n", w.Index)) {
			t.Fatalf("block %d is not window %d:\n%s", i, w.Index, block)
		}
		host, err := det.Classify(w)
		if err != nil {
			t.Fatal(err)
		}
		before := dev.TotalCycles
		out, err := dev.Classify(w)
		if err != nil {
			t.Fatal(err)
		}
		for _, want := range []string{
			fmt.Sprintf("host   margin %+.3f → %s", host.Margin, verdict(host.Altered)),
			fmt.Sprintf("device margin %+.4f (Q16.16) → %s, %d cycles",
				out.Margin.Float(), verdict(out.Altered), dev.TotalCycles-before),
		} {
			if !strings.Contains(block, want) {
				t.Errorf("window %d: trace lacks %q:\n%s", w.Index, want, block)
			}
		}
	}
}

// TestFig2TracesPeaklessWindow strips a window's R peaks: both
// detectors' PeaksDataCheck flags it altered at the sanity margin, and
// the trace says so and prints no host features.
func TestFig2TracesPeaklessWindow(t *testing.T) {
	env := quickEnv(t)
	det, dev := fig2Detectors(t, env)
	wins, err := dataset.FromRecord(env.TestRecs[0], dataset.WindowSec)
	if err != nil {
		t.Fatal(err)
	}
	w := wins[0]
	w.RPeaks, w.Pairs = nil, nil
	var b strings.Builder
	if err := traceWindow(&b, det, dev, w); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	for _, want := range []string{
		"host   0 R peaks, 3 systolic peaks, sanity rule fired: true",
		fmt.Sprintf("host   margin %+.3f → altered", sift.SanityMargin),
		fmt.Sprintf("device margin %+.4f (Q16.16) → altered", sift.SanityMargin),
		fmt.Sprintf("    %-49s %10s", "spatial filling index", "-"),
	} {
		if !strings.Contains(text, want) {
			t.Errorf("peakless trace lacks %q:\n%s", want, text)
		}
	}
}

// TestFig2StopsAtMalformedWindow hands the trace windows no station
// should cut, with and without R peaks: both detectors reject them, so
// the trace is an error and prints nothing for that window.
func TestFig2StopsAtMalformedWindow(t *testing.T) {
	env := quickEnv(t)
	det, dev := fig2Detectors(t, env)
	for _, w := range []dataset.Window{
		{},
		{ECG: []float64{1, 2}, ABP: []float64{1}},
		{ECG: []float64{1, 2}, ABP: []float64{1}, RPeaks: []int{0}},
	} {
		if _, err := det.Classify(w); err == nil {
			t.Errorf("host classified a window of %d ECG, %d ABP samples", len(w.ECG), len(w.ABP))
		}
		if _, err := dev.Classify(w); err == nil {
			t.Errorf("device classified a window of %d ECG, %d ABP samples", len(w.ECG), len(w.ABP))
		}
		var b strings.Builder
		if err := traceWindow(&b, det, dev, w); err == nil {
			t.Errorf("traced a window of %d ECG, %d ABP samples:\n%s", len(w.ECG), len(w.ABP), b.String())
		}
		if b.Len() != 0 {
			t.Errorf("a failed trace printed:\n%s", b.String())
		}
	}
}
