package wiot

import (
	"math"
	"runtime"
	"sync"
	"testing"

	"github.com/wiot-security/sift/internal/physio"
)

func TestReliableDeliversOnce(t *testing.T) {
	f := FrameFromFloats(SensorECG, 0, []float64{1})
	out := (Reliable{}).Transmit(f)
	if len(out) != 1 || out[0].Seq != 0 {
		t.Errorf("Reliable.Transmit = %v", out)
	}
}

func TestLossyValidation(t *testing.T) {
	if _, err := NewLossy(-0.1, 0, 1); err == nil {
		t.Error("negative probability should error")
	}
	if _, err := NewLossy(0, 1.1, 1); err == nil {
		t.Error("probability > 1 should error")
	}
	for _, p := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := NewLossy(p, 0, 1); err == nil {
			t.Errorf("loss probability %g should error", p)
		}
		if _, err := NewLossy(0, p, 1); err == nil {
			t.Errorf("dup probability %g should error", p)
		}
	}
	if _, err := NewLossy(0.1, 0.1, 1); err != nil {
		t.Errorf("valid channel errored: %v", err)
	}
}

func TestMustLossyPanicsOnBadInput(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustLossy(2, 0, 1) should panic")
		}
	}()
	MustLossy(2, 0, 1)
}

func TestLossyStatistics(t *testing.T) {
	ch := MustLossy(0.3, 0.1, 1)
	f := FrameFromFloats(SensorECG, 0, []float64{1})
	delivered := int64(0)
	for i := 0; i < 2000; i++ {
		delivered += int64(len(ch.Transmit(f)))
	}
	if ch.Sent() != 2000 {
		t.Errorf("Sent = %d", ch.Sent())
	}
	lossRate := float64(ch.Lost()) / float64(ch.Sent())
	if lossRate < 0.25 || lossRate > 0.35 {
		t.Errorf("loss rate = %.3f, want ≈0.3", lossRate)
	}
	if ch.Duplicated() == 0 {
		t.Error("expected some duplicates")
	}
	if delivered != ch.Sent()-ch.Lost()+ch.Duplicated() {
		t.Errorf("delivered %d inconsistent with telemetry", delivered)
	}
}

func TestLossyDeterministicSeed(t *testing.T) {
	a := MustLossy(0.5, 0, 7)
	b := MustLossy(0.5, 0, 7)
	f := FrameFromFloats(SensorABP, 0, []float64{1})
	for i := 0; i < 100; i++ {
		if len(a.Transmit(f)) != len(b.Transmit(f)) {
			t.Fatal("identical seeds diverged")
		}
	}
}

// TestLossyTransmitSteadyStateAllocs: called through the ChannelEffect
// interface, as Scenario.stream calls it, Lossy.Transmit allocates
// nothing per frame; it returns its own two-frame buffer, valid until the
// next call. Allocations are counted with runtime.MemStats over many
// calls, because testing.AllocsPerRun divides integers and would read
// 0.98 allocations a call as 0.
func TestLossyTransmitSteadyStateAllocs(t *testing.T) {
	var ch ChannelEffect = MustLossy(0.02, 0.01, 3)
	f := FrameFromFloats(SensorECG, 5, []float64{1, 2})
	const calls = 100_000
	var delivered, dups int
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		out := ch.Transmit(f)
		delivered += len(out)
		if len(out) == 2 {
			dups++
		}
		for _, d := range out {
			if d.Seq != f.Seq || &d.Samples[0] != &f.Samples[0] {
				t.Fatalf("call %d delivered %+v, want the sent frame", i, d)
			}
		}
	}
	runtime.ReadMemStats(&after)
	if n := after.Mallocs - before.Mallocs; n > calls/100 {
		t.Errorf("%d allocations over %d Transmit calls (%.2f a call), want ≈ 0", n, calls, float64(n)/calls)
	}
	l := ch.(*Lossy)
	if want := int(l.Sent() - l.Lost() + l.Duplicated()); delivered != want || dups == 0 {
		t.Errorf("delivered %d frames (%d duplicated), telemetry says %d", delivered, dups, want)
	}
}

func TestLossyConcurrentTransmitAndObserve(t *testing.T) {
	// One goroutine drives the channel while others read telemetry, as a
	// fleet metrics scraper does: under -race this proves the channel is
	// observable mid-scenario.
	ch := MustLossy(0.2, 0.1, 9)
	f := FrameFromFloats(SensorECG, 0, []float64{1})
	const senders, frames = 4, 500
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = ch.Sent() + ch.Lost() + ch.Duplicated()
			}
		}
	}()
	var sent sync.WaitGroup
	for s := 0; s < senders; s++ {
		sent.Add(1)
		go func() {
			defer sent.Done()
			for i := 0; i < frames; i++ {
				ch.Transmit(f)
			}
		}()
	}
	sent.Wait()
	close(stop)
	wg.Wait()
	if got := ch.Sent(); got != senders*frames {
		t.Errorf("Sent = %d, want %d", got, senders*frames)
	}
	if ch.Lost()+ch.Duplicated() == 0 {
		t.Error("expected losses or duplicates at these probabilities")
	}
}

func TestStationConcealsLoss(t *testing.T) {
	sink := &MemorySink{}
	st := newTestStation(t, &flagEveryOther{}, sink)
	// Send frames 0, 2 (frame 1 lost): the gap must be concealed so the
	// buffer still holds 3 frames' worth of samples.
	mk := func(seq uint32, v float64) Frame {
		s := make([]float64, 90)
		for i := range s {
			s[i] = v
		}
		return FrameFromFloats(SensorECG, seq, s)
	}
	if err := st.HandleFrame(mk(0, 1)); err != nil {
		t.Fatal(err)
	}
	if err := st.HandleFrame(mk(2, 3)); err != nil {
		t.Fatal(err)
	}
	if got := st.Stats().Concealed; got != 90 {
		t.Errorf("concealed = %d, want 90", got)
	}
	if st.Stats().SeqErrors != 1 {
		t.Errorf("seq errors = %d, want 1", st.Stats().SeqErrors)
	}
	if n := buffered(st, SensorECG); n != 270 {
		t.Fatalf("buffer = %d samples, want 270", n)
	}
	// The concealed span holds the last value before the gap.
	if v := st.ch[SensorECG-1].part[100]; v != 1 {
		t.Errorf("concealed sample = %v, want hold-last 1", v)
	}
}

func TestStationDropsDuplicates(t *testing.T) {
	st := newTestStation(t, &flagEveryOther{}, &MemorySink{})
	f := FrameFromFloats(SensorABP, 0, []float64{1, 2})
	if err := st.HandleFrame(f); err != nil {
		t.Fatal(err)
	}
	if err := st.HandleFrame(f); err != nil { // duplicate
		t.Fatal(err)
	}
	if st.Stats().Stale != 1 {
		t.Errorf("stale = %d, want 1", st.Stats().Stale)
	}
	if n := buffered(st, SensorABP); n != 2 {
		t.Errorf("buffer = %d samples, want 2 (duplicate dropped)", n)
	}
}

func TestStationStreamsStayAlignedUnderLoss(t *testing.T) {
	det := &flagEveryOther{}
	st := newTestStation(t, det, &MemorySink{})
	ch := MustLossy(0.1, 0, 3)
	n := 4 * 1080 / 90 // four windows of frames
	for seq := 0; seq < n; seq++ {
		s := make([]float64, 90)
		for _, f := range ch.Transmit(FrameFromFloats(SensorECG, uint32(seq), s)) {
			if err := st.HandleFrame(f); err != nil {
				t.Fatal(err)
			}
		}
		for _, f := range ch.Transmit(FrameFromFloats(SensorABP, uint32(seq), s)) {
			if err := st.HandleFrame(f); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Tail concealment only happens on the *next* frame, so the two
	// buffers may differ by at most the trailing lost frames; windows
	// already produced must match exactly.
	if st.Stats().Windows < 3 {
		t.Errorf("windows = %d, want >= 3 despite 10%% loss", st.Stats().Windows)
	}
	if st.Stats().Concealed == 0 {
		t.Error("expected concealment under 10% loss")
	}
}

func TestScenarioSurvivesLossyChannel(t *testing.T) {
	det, live, donor := trainEnv(t)
	half := len(live.ECG) / 2
	res, err := RunScenario(Scenario{
		Record:     live,
		Detector:   det,
		Attack:     &SubstitutionMITM{Donor: donor.ECG, ActiveFrom: half},
		AttackFrom: half,
		Channel:    MustLossy(0.05, 0.02, 11),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Windows < 18 {
		t.Errorf("windows = %d, want ~20 despite loss", res.Windows)
	}
	attacked := res.TruePos + res.FalseNeg
	if attacked == 0 {
		t.Fatal("no attacked windows scored")
	}
	if recall := float64(res.TruePos) / float64(attacked); recall < 0.5 {
		t.Errorf("attack recall under loss = %.2f (TP %d FN %d)", recall, res.TruePos, res.FalseNeg)
	}
}

func TestPhysioRecordAvailableForChannelBench(t *testing.T) {
	// Guard: the channel tests above rely on 90-sample frames at 360 Hz
	// dividing the window length evenly.
	if int(dWindowSamples())%90 != 0 {
		t.Fatal("window length no longer divisible by the 90-sample frame")
	}
}

func dWindowSamples() float64 { return 3 * physio.DefaultSampleRate }
