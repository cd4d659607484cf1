package wiot

import (
	"math/rand"
	"slices"
	"testing"

	"github.com/wiot-security/sift/internal/dataset"
	"github.com/wiot-security/sift/internal/dsp"
	"github.com/wiot-security/sift/internal/fixedpoint"
	"github.com/wiot-security/sift/internal/peaks"
	"github.com/wiot-security/sift/internal/physio"
)

// pipelineStation builds a station over a windowLog.
func pipelineStation(t *testing.T) (*BaseStation, *windowLog, *MemorySink) {
	t.Helper()
	log, sink := &windowLog{}, &MemorySink{}
	st, err := NewBaseStation(StationConfig{
		SubjectID:  "S01",
		SampleRate: physio.DefaultSampleRate,
		Detector:   log,
		Sink:       sink,
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
	st, log, sink := pipelineStation(t)
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

// checkFold fails unless each sensor's filling window carries the range
// of its own samples and their sum, added in index order from +0: the
// sum and maximum the station's systolic scan takes at the cut.
func checkFold(t *testing.T, st *BaseStation) {
	t.Helper()
	st.mu.Lock()
	defer st.mu.Unlock()
	for i := range st.ch {
		ch := &st.ch[i]
		if len(ch.part) == 0 {
			continue
		}
		lo, hi, _ := dsp.MinMax(ch.part)
		var sum float64
		for _, v := range ch.part {
			sum += v
		}
		if ch.lo.Float() != lo || ch.hi.Float() != hi || ch.sum != sum {
			t.Fatalf("sensor %d, %d samples filled: range [%v, %v] sum %v, samples give [%v, %v] sum %v",
				i+1, len(ch.part), ch.lo.Float(), ch.hi.Float(), ch.sum, lo, hi, sum)
		}
	}
}

// lossyFeed streams both sensors through a lossy channel, ECG at twice
// ABP's pace so that ECG's windows queue.
func lossyFeed(loss, dup float64) func(*testing.T, *BaseStation, *Sensor, *Sensor) {
	return func(t *testing.T, st *BaseStation, ecg, abp *Sensor) {
		ch := MustLossy(loss, dup, 5)
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
					checkFold(t, st)
				}
			}
		}
		if stats := st.Stats(); (loss > 0) != (stats.Concealed > 0) || (dup > 0) != (stats.Stale > 0) {
			t.Fatalf("channel did not exercise the case: stats %+v", stats)
		}
	}
}

// outageFeed loses frames 12–29 of both sensors on a lossy link: frame
// 30 conceals them, so window 1 is wholly concealment and window 2
// starts with 540 samples of it.
func outageFeed(t *testing.T, st *BaseStation, ecg, abp *Sensor) {
	for seq := 0; ; seq++ {
		more := false
		for _, s := range []*Sensor{ecg, abp} {
			f, ok := s.Next()
			if !ok {
				continue
			}
			more = true
			if seq >= 12 && seq < 30 {
				continue
			}
			if err := st.HandleFrame(f); err != nil {
				t.Fatal(err)
			}
			checkFold(t, st)
		}
		if !more {
			break
		}
	}
	if stats := st.Stats(); stats.Concealed != 2*18*90 || stats.Resyncs != 0 {
		t.Fatalf("outage not concealed as 18 frames per sensor: stats %+v", stats)
	}
}

// resyncFeed sends frames 0–19 of both sensors over a reliable link,
// then ECG's sender declares 101 frames lost, past the concealment
// bound, and both streams go on at seq 121 with frame 20's samples. The
// resync drops both sensors' part-filled window 1, moves to window 10
// and refills its first 90 samples with hold, so window 10 starts with
// concealment.
func resyncFeed(t *testing.T, st *BaseStation, ecg, abp *Sensor) {
	for seq := uint32(0); ; seq++ {
		more := false
		for _, s := range []*Sensor{ecg, abp} {
			f, ok := s.Next()
			if !ok {
				continue
			}
			more = true
			if seq == 20 && s == ecg {
				st.declareGap(SensorECG, 121)
			}
			if seq >= 20 {
				f.Seq += 101
			}
			if adm, _, err := st.admit(f); adm != admitted || err != nil {
				t.Fatalf("sensor %v seq %d: admission %d, err %v", f.Sensor, f.Seq, adm, err)
			}
			checkFold(t, st)
		}
		if !more {
			break
		}
	}
	if stats := st.Stats(); stats.Resyncs != 1 || stats.Concealed != 2*90 {
		t.Fatalf("declared gap did not resync with 90 samples of hold per sensor: stats %+v", stats)
	}
}

// TestStationWindowPeaksMatchDetectors: every classified window carries
// exactly what the peak detectors find in its own samples, through loss
// concealment, duplicates, windows of concealment alone and a resync.
// The station's running sums and ranges are checked after every frame.
func TestStationWindowPeaksMatchDetectors(t *testing.T) {
	rec := pipelineRecord(t)
	const rate = physio.DefaultSampleRate
	maxLag := int(dataset.MaxPairLagSec * rate)
	for _, tc := range []struct {
		name        string
		feed        func(*testing.T, *BaseStation, *Sensor, *Sensor)
		indices     []int // the windows classified
		concealment []int // windows wholly concealment, which hold no peaks
	}{
		{"clean", lossyFeed(0, 0), []int{0, 1, 2, 3}, nil},
		{"concealed", lossyFeed(0.1, 0), nil, nil},
		{"duplicated", lossyFeed(0, 0.2), []int{0, 1, 2, 3}, nil},
		{"outage", outageFeed, []int{0, 1, 2, 3}, []int{1}},
		{"resync", resyncFeed, []int{0, 10, 11}, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st, log, _ := pipelineStation(t)
			ecg, err := NewSensor(SensorECG, rec, 90)
			if err != nil {
				t.Fatal(err)
			}
			abp, err := NewSensor(SensorABP, rec, 90)
			if err != nil {
				t.Fatal(err)
			}
			tc.feed(t, st, ecg, abp)
			windows := log.all()
			if len(windows) < 3 {
				t.Fatalf("%d windows classified, want at least 3", len(windows))
			}
			var indices []int
			for _, w := range windows {
				indices = append(indices, w.Index)
				r, err := peaks.DetectR(w.ECG, peaks.DetectorConfig{SampleRate: rate})
				if err != nil {
					t.Fatal(err)
				}
				s, err := peaks.DetectSystolic(w.ABP, rate)
				if err != nil {
					t.Fatal(err)
				}
				if slices.Contains(tc.concealment, w.Index) {
					if len(r) != 0 || len(s) != 0 {
						t.Fatalf("window %d is wholly concealment, but detectors found %d R / %d systolic peaks", w.Index, len(r), len(s))
					}
				} else if len(r) == 0 || len(s) == 0 {
					t.Fatalf("window %d: detectors found %d R / %d systolic peaks", w.Index, len(r), len(s))
				}
				if !slices.Equal(w.RPeaks, r) || !slices.Equal(w.SysPeaks, s) || !slices.Equal(w.Pairs, peaks.Pair(r, s, maxLag)) {
					t.Errorf("window %d: peaks R %v sys %v pairs %v, want R %v sys %v pairs %v",
						w.Index, w.RPeaks, w.SysPeaks, w.Pairs, r, s, peaks.Pair(r, s, maxLag))
				}
			}
			if tc.indices != nil && !slices.Equal(indices, tc.indices) {
				t.Errorf("classified windows %v, want %v", indices, tc.indices)
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
		st, log, _ := pipelineStation(t)
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
		st, log, _ := pipelineStation(t)
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
