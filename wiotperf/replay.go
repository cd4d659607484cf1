package main

import (
	"fmt"
	"runtime"
	"time"

	"github.com/wiot-security/sift/internal/amulet/program"
	"github.com/wiot-security/sift/internal/dataset"
	"github.com/wiot-security/sift/internal/features"
	"github.com/wiot-security/sift/internal/peaks"
	"github.com/wiot-security/sift/internal/portrait"
	"github.com/wiot-security/sift/internal/sift"
	"github.com/wiot-security/sift/internal/wiot"
)

// Replay probes split the station's and the classifier's self time into
// stages: each times one public function over the windows and frames the
// traced run captured, outside any fleet run.

// probeResult is one function's cost per call.
type probeResult struct {
	ns       float64 // median over batches of wall ns per call
	allocKiB float64 // heap bytes allocated per call, KiB
}

// probeBatches batches of each probe are timed; the median batch is
// reported so one preempted batch does not move the figure.
const probeBatches = 7

// probe calls fn(i) for every captured item, probeBatches times over,
// with at least minCalls calls per batch.
func probe(items, minCalls int, fn func(i int) error) (probeResult, error) {
	if items == 0 {
		return probeResult{}, fmt.Errorf("nothing captured to replay")
	}
	rounds := (minCalls + items - 1) / items
	calls := rounds * items
	run := func() error {
		for r := 0; r < rounds; r++ {
			for i := 0; i < items; i++ {
				if err := fn(i); err != nil {
					return err
				}
			}
		}
		return nil
	}
	if err := run(); err != nil { // warm-up
		return probeResult{}, err
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	perCall := make([]float64, probeBatches)
	for b := range perCall {
		start := time.Now()
		if err := run(); err != nil {
			return probeResult{}, err
		}
		perCall[b] = float64(time.Since(start).Nanoseconds()) / float64(calls)
	}
	runtime.ReadMemStats(&ms1)
	return probeResult{
		ns:       median(perCall),
		allocKiB: float64(ms1.TotalAlloc-ms0.TotalAlloc) / float64(probeBatches*calls) / 1024,
	}, nil
}

// replayProbes times, on the captured sample, the stage functions of the
// layers the workload runs: the host classifier's stages unless it runs
// on the device, input marshalling only on the device, and the codec and
// MAC only over the wire. Peak detection runs in the station everywhere.
// Probes it skips are absent from the result.
func replayProbes(wl workload, det *sift.Detector, windows []dataset.Window, frames []wiot.Frame) (map[string]probeResult, error) {
	out := map[string]probeResult{}
	fs := 0.0
	if len(windows) > 0 {
		fs = float64(len(windows[0].ECG)) / dataset.WindowSec
	}
	maxLag := int(dataset.MaxPairLagSec * fs)
	portraits := make([]*portrait.Portrait, len(windows))
	feats := make([][]float64, len(windows))
	for i, w := range windows {
		p, err := w.Portrait()
		if err != nil {
			return nil, fmt.Errorf("replay portrait: %w", err)
		}
		portraits[i] = p
		if feats[i], err = features.Extract(det.Version, p, det.GridN); err != nil {
			return nil, fmt.Errorf("replay features: %w", err)
		}
	}
	q, err := det.Quantize()
	if err != nil {
		return nil, err
	}
	session := wiot.ForgeSession(1, wiot.SensorECG, wiot.MACHMAC, []byte("wiotperf replay key"))
	encoded := make([][]byte, len(frames))
	for i := range frames {
		if encoded[i], err = frames[i].Encode(); err != nil {
			return nil, err
		}
	}

	probes := []struct {
		name     string
		use      bool
		n, calls int
		fn       func(i int) error
	}{
		{"peaks.detect_r", true, len(windows), 400, func(i int) error {
			_, err := peaks.DetectR(windows[i].ECG, peaks.DetectorConfig{SampleRate: fs})
			return err
		}},
		{"peaks.detect_systolic", true, len(windows), 400, func(i int) error {
			_, err := peaks.DetectSystolic(windows[i].ABP, fs)
			return err
		}},
		{"peaks.pair", true, len(windows), 4000, func(i int) error {
			peaks.Pair(windows[i].RPeaks, windows[i].SysPeaks, maxLag)
			return nil
		}},
		{"portrait.build", !wl.onDevice, len(windows), 1000, func(i int) error {
			_, err := windows[i].Portrait()
			return err
		}},
		{"features.extract", !wl.onDevice, len(windows), 400, func(i int) error {
			_, err := features.Extract(det.Version, portraits[i], det.GridN)
			return err
		}},
		{"svm.decision", !wl.onDevice, len(windows), 20000, func(i int) error {
			det.Model.Decision(feats[i])
			return nil
		}},
		{"program.input", wl.onDevice, len(windows), 1000, func(i int) error {
			_, err := program.Input(det.Version, windows[i], q)
			return err
		}},
		{"wiot.codec.encode", wl.overTCP, len(frames), 20000, func(i int) error {
			_, err := frames[i].Encode()
			return err
		}},
		{"wiot.codec.decode", wl.overTCP, len(frames), 20000, func(i int) error {
			_, _, err := wiot.DecodeFrame(encoded[i])
			return err
		}},
		{"wiot.auth.seal", wl.overTCP, len(frames), 10000, func(i int) error {
			_, err := session.SealFrame(&frames[i])
			return err
		}},
	}
	for _, p := range probes {
		if !p.use {
			continue
		}
		r, err := probe(p.n, p.calls, p.fn)
		if err != nil {
			return nil, fmt.Errorf("replay %s: %w", p.name, err)
		}
		out[p.name] = r
	}
	return out, nil
}
