package wiot

import (
	"math/rand"
	"slices"
	"testing"

	"github.com/wiot-security/sift/internal/dataset"
	"github.com/wiot-security/sift/internal/fixedpoint"
	"github.com/wiot-security/sift/internal/peaks"
	"github.com/wiot-security/sift/internal/physio"
)

// pipelineStation builds a station over a windowLog, with runtime peaks
// on or off.
func pipelineStation(t *testing.T, runtimePeaks bool) (*BaseStation, *windowLog, *MemorySink) {
	t.Helper()
	log, sink := &windowLog{}, &MemorySink{}
	st, err := NewBaseStation(StationConfig{
		SubjectID:            "S01",
		SampleRate:           physio.DefaultSampleRate,
		Detector:             log,
		Sink:                 sink,
		DetectPeaksAtRuntime: runtimePeaks,
	})
	if err != nil {
		t.Fatal(err)
	}
	return st, log, sink
}

// pipelineRecord is 12 s of a synthetic subject: four windows with
// several beats each.
func pipelineRecord(t *testing.T) *physio.Record {
	t.Helper()
	rec, err := physio.Generate(physio.DefaultSubject(), 12, physio.DefaultSampleRate, 31)
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

// TestStationRunsECGStageAtItsOwnWindow: ECG frames alone fill window 0.
// The ECG stage has run, so the window waits with its R peaks, while the
// detector and the sink have seen nothing. ABP's frames then complete
// the window, which reaches Classify with those same peaks.
func TestStationRunsECGStageAtItsOwnWindow(t *testing.T) {
	st, log, sink := pipelineStation(t, true)
	rec := pipelineRecord(t)
	sensors := make(map[SensorID]*Sensor)
	for _, id := range []SensorID{SensorECG, SensorABP} {
		s, err := NewSensor(id, rec, 90)
		if err != nil {
			t.Fatal(err)
		}
		sensors[id] = s
	}
	send := func(id SensorID, frames int) {
		t.Helper()
		for range frames {
			f, _ := sensors[id].Next()
			if err := st.HandleFrame(f); err != nil {
				t.Fatal(err)
			}
		}
	}
	send(SensorECG, 12)

	st.mu.Lock()
	ecg := st.ch[SensorECG-1]
	var queued cutWindow
	if ecg.waiting() == 1 {
		queued = ecg.queue[ecg.head]
	}
	st.mu.Unlock()
	if ecg.waiting() != 1 || len(ecg.part) != 0 {
		t.Fatalf("after one window of ECG frames: %d windows queued, %d samples partial; want 1, 0", ecg.waiting(), len(ecg.part))
	}
	want, err := peaks.DetectR(queued.samples, peaks.DetectorConfig{SampleRate: physio.DefaultSampleRate})
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 || !slices.Equal(queued.peaks, want) {
		t.Errorf("queued ECG window carries R peaks %v, want %v", queued.peaks, want)
	}
	if n := len(log.all()); n != 0 || len(sink.Alerts()) != 0 || st.Stats().Windows != 0 {
		t.Errorf("ECG alone gave a verdict: %d classified, %d alerts, stats %+v", n, len(sink.Alerts()), st.Stats())
	}
	if got := st.Stats().PeakLead; got != 1 {
		t.Errorf("PeakLead = %d, want 1", got)
	}

	send(SensorABP, 12)
	got := log.all()
	if len(got) != 1 || len(sink.Alerts()) != 1 {
		t.Fatalf("after ABP completes the window: %d classified, %d alerts; want 1, 1", len(got), len(sink.Alerts()))
	}
	if !slices.Equal(got[0].RPeaks, want) || &got[0].ECG[0] != &queued.samples[0] {
		t.Errorf("classified window has R peaks %v, want the queued %v on the queued samples", got[0].RPeaks, want)
	}
}

// TestStationWindowPeaksMatchDetectors: every classified window carries
// exactly what the peak detectors find in its own samples, through loss
// concealment and duplicates, and nothing when runtime peaks are off.
func TestStationWindowPeaksMatchDetectors(t *testing.T) {
	rec := pipelineRecord(t)
	const rate = physio.DefaultSampleRate
	maxLag := int(dataset.MaxPairLagSec * rate)
	for _, tc := range []struct {
		name         string
		loss, dup    float64
		runtimePeaks bool
	}{
		{"clean", 0, 0, true},
		{"concealed", 0.1, 0, true},
		{"duplicated", 0, 0.2, true},
		{"peaks-off", 0.1, 0.2, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st, log, _ := pipelineStation(t, tc.runtimePeaks)
			ch := MustLossy(tc.loss, tc.dup, 5)
			ecg, err := NewSensor(SensorECG, rec, 90)
			if err != nil {
				t.Fatal(err)
			}
			abp, err := NewSensor(SensorABP, rec, 90)
			if err != nil {
				t.Fatal(err)
			}
			// ECG runs at twice ABP's pace, so ECG's windows queue.
			for more := true; more; {
				more = false
				for _, s := range []*Sensor{ecg, ecg, abp} {
					f, ok := s.Next()
					if !ok {
						continue
					}
					more = true
					for _, g := range ch.Transmit(f) {
						if err := st.HandleFrame(g); err != nil {
							t.Fatal(err)
						}
					}
				}
			}
			stats := st.Stats()
			if (tc.loss > 0) != (stats.Concealed > 0) || (tc.dup > 0) != (stats.Stale > 0) {
				t.Fatalf("channel did not exercise the case: stats %+v", stats)
			}
			windows := log.all()
			if len(windows) < 3 {
				t.Fatalf("%d windows classified, want at least 3", len(windows))
			}
			for _, w := range windows {
				if !tc.runtimePeaks {
					if w.RPeaks != nil || w.SysPeaks != nil || w.Pairs != nil {
						t.Errorf("window %d carries peaks with runtime detection off", w.Index)
					}
					continue
				}
				r, err := peaks.DetectR(w.ECG, peaks.DetectorConfig{SampleRate: rate})
				if err != nil {
					t.Fatal(err)
				}
				s, err := peaks.DetectSystolic(w.ABP, rate)
				if err != nil {
					t.Fatal(err)
				}
				if len(r) == 0 || len(s) == 0 {
					t.Fatalf("window %d: detectors found %d R / %d systolic peaks", w.Index, len(r), len(s))
				}
				if !slices.Equal(w.RPeaks, r) || !slices.Equal(w.SysPeaks, s) || !slices.Equal(w.Pairs, peaks.Pair(r, s, maxLag)) {
					t.Errorf("window %d: peaks R %v sys %v pairs %v, want R %v sys %v pairs %v",
						w.Index, w.RPeaks, w.SysPeaks, w.Pairs, r, s, peaks.Pair(r, s, maxLag))
				}
			}
		})
	}
}

// TestStationResyncCountsQueuedWindows: ECG holds three complete windows that
// wait for ABP when it declares a long outage. The resync places frame
// 200 at sample 18,000 only if it counts those windows: window 16, 720
// samples in. The queued windows are dropped unclassified, and frames
// 200–239 of both sensors fill windows 16–19 in place. The three-window
// lead shows in PeakLead.
func TestStationResyncCountsQueuedWindows(t *testing.T) {
	log := &windowLog{}
	sink := &MemorySink{}
	st := newTestStation(t, log, sink)
	frame := func(id SensorID, seq uint32) Frame {
		samples := make([]float64, 90)
		for i := range samples {
			samples[i] = float64(seq)
		}
		return FrameFromFloats(id, seq, samples)
	}
	admitAll := func(id SensorID, from, to uint32) {
		t.Helper()
		for seq := from; seq < to; seq++ {
			if a, _, err := st.admit(frame(id, seq)); a != admitted || err != nil {
				t.Fatalf("%v frame %d: admission %d, err %v", id, seq, a, err)
			}
		}
	}
	delivered := map[int]bool{}
	admitAll(SensorECG, 0, 40) // three windows and 360 samples
	admitAll(SensorABP, 0, 2)
	if got := buffered(st, SensorECG); got != 40*90 {
		t.Fatalf("ECG holds %d samples, want %d", got, 40*90)
	}
	if got := st.Stats().PeakLead; got != 3 {
		t.Errorf("PeakLead = %d, want 3", got)
	}
	st.declareGap(SensorECG, 200)
	st.declareGap(SensorABP, 200)
	for seq := uint32(200); seq < 240; seq++ {
		delivered[int(seq)] = true
		admitAll(SensorECG, seq, seq+1)
		if seq == 200 && st.Stats().Resyncs != 1 {
			t.Fatalf("the declared gap did not resync: %+v", st.Stats())
		}
		admitAll(SensorABP, seq, seq+1)
	}
	if got := st.Stats(); got.Windows != 4 || got.Resyncs != 1 {
		t.Errorf("station stats %+v, want 4 windows after one resync", got)
	}
	for i, a := range sink.Alerts() {
		if a.WindowIndex != 16+i {
			t.Errorf("alert %d has window index %d, want %d", i, a.WindowIndex, 16+i)
		}
	}
	checkAlignment(t, log.all(), delivered)
}

// TestStationWindowRangesMatchSamples: every window the station
// classifies carries ECG and ABP ranges bound to its arrays and equal,
// bit for bit, to dsp.MinMax of them (windowLog refuses any other). It
// drives the ways a window's samples arrive: frames that straddle
// window edges, hold-last concealment whose value lies outside the
// frames' own samples, duplicates, and a resync that fills a sensor
// with its hold before that sensor sent its first sample.
func TestStationWindowRangesMatchSamples(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	frame := func(id SensorID, seq uint32, n int, lo, hi float64) Frame {
		samples := make([]float64, n)
		for i := range samples {
			samples[i] = lo + rng.Float64()*(hi-lo)
		}
		return FrameFromFloats(id, seq, samples)
	}

	t.Run("lossy", func(t *testing.T) {
		st, log, _ := pipelineStation(t, false)
		for seq := uint32(0); seq < 200; seq++ {
			for _, id := range []SensorID{SensorECG, SensorABP} {
				if rng.Intn(6) == 0 {
					continue // lost: concealed when the next frame arrives
				}
				f := frame(id, seq, 70, -5, 5)
				if rng.Intn(4) == 0 {
					// The last sample, the hold a gap conceals with,
					// lies outside every other sample's range.
					f.Samples[len(f.Samples)-1] = fixedpoint.FromFloat(float64(rng.Intn(3)-1) * 20)
				}
				for range 1 + rng.Intn(2) { // sometimes duplicated
					if err := st.HandleFrame(f); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		if got := st.Stats(); got.Windows < 10 || got.Concealed == 0 || got.Stale == 0 {
			t.Fatalf("stats %+v: want windows, concealment and duplicates", got)
		}
		for _, w := range log.all() {
			if err := checkRanges(w); err != nil {
				t.Fatal(err)
			}
		}
	})

	t.Run("resync before the partner's first sample", func(t *testing.T) {
		st, log, _ := pipelineStation(t, false)
		for seq := uint32(0); seq < 5; seq++ {
			if a, _, err := st.admit(frame(SensorECG, seq, 90, -9, -1)); a != admitted || err != nil {
				t.Fatalf("ECG frame %d: admission %d, err %v", seq, a, err)
			}
		}
		// ABP has sent nothing, so its hold is 0. The resync at 305
		// fills 450 samples of window 25 with it in both streams.
		st.declareGap(SensorECG, 305)
		for seq := uint32(305); seq < 336; seq++ {
			for _, id := range []SensorID{SensorECG, SensorABP} {
				if a, _, err := st.admit(frame(id, seq, 90, 60, 120)); a != admitted || err != nil {
					t.Fatalf("%v frame %d: admission %d, err %v", id, seq, a, err)
				}
			}
		}
		windows := log.all()
		if got := st.Stats(); got.Resyncs != 1 || len(windows) != 3 || windows[0].Index != 25 {
			t.Fatalf("stats %+v, %d windows: want one resync, then windows 25 to 27", got, len(windows))
		}
		if lo, _, _ := windows[0].ABPRange.Of(windows[0].ABP); lo != 0 {
			t.Errorf("window 25's ABP minimum = %v, want the pre-first-sample hold 0", lo)
		}
		if lo, _, _ := windows[0].ECGRange.Of(windows[0].ECG); lo >= -1 {
			t.Errorf("window 25's ECG minimum = %v, want the hold (< -1), below every new sample", lo)
		}
	})
}
