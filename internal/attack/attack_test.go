package attack

import (
	"math"
	"testing"

	"github.com/wiot-security/sift/internal/dataset"
	"github.com/wiot-security/sift/internal/features"
	"github.com/wiot-security/sift/internal/physio"
	"github.com/wiot-security/sift/internal/wiot"
)

func windowsFor(t *testing.T, id string, dur float64, seed int64) []dataset.Window {
	t.Helper()
	s := physio.DefaultSubject()
	s.ID = id
	rec, err := physio.Generate(s, dur, physio.DefaultSampleRate, seed)
	if err != nil {
		t.Fatal(err)
	}
	wins, err := dataset.FromRecord(rec, dataset.WindowSec)
	if err != nil {
		t.Fatal(err)
	}
	return wins
}

func TestSubstitutionApply(t *testing.T) {
	victim := windowsFor(t, "V", 12, 1)
	donors := windowsFor(t, "D", 12, 2)
	a := &Substitution{Donors: donors, SampleRate: physio.DefaultSampleRate}
	out, err := a.Apply(victim[0])
	if err != nil {
		t.Fatal(err)
	}
	if !out.Altered || out.Attack != "substitution" {
		t.Errorf("flags = %v %q", out.Altered, out.Attack)
	}
	if out.ECG[0] != donors[0].ECG[0] {
		t.Error("ECG should come from donor window 0")
	}
	// Second application rotates to the next donor window.
	out2, err := a.Apply(victim[1])
	if err != nil {
		t.Fatal(err)
	}
	if out2.ECG[0] != donors[1].ECG[0] {
		t.Error("second application should use donor window 1")
	}
}

func TestSubstitutionEmptyPool(t *testing.T) {
	a := &Substitution{SampleRate: physio.DefaultSampleRate}
	if _, err := a.Apply(dataset.Window{}); err == nil {
		t.Error("empty donor pool should error")
	}
}

func TestReplayUsesOwnHistory(t *testing.T) {
	wins := windowsFor(t, "V", 24, 4)
	history := wins[:4]
	live := wins[4:]
	a := &Replay{History: history, SampleRate: physio.DefaultSampleRate}
	out, err := a.Apply(live[0])
	if err != nil {
		t.Fatal(err)
	}
	if out.Attack != "replay" || !out.Altered {
		t.Errorf("flags = %v %q", out.Altered, out.Attack)
	}
	if out.ECG[0] != history[0].ECG[0] {
		t.Error("replayed ECG should come from history")
	}
	if out.ABP[0] != live[0].ABP[0] {
		t.Error("ABP should stay live")
	}
}

func TestReplayEmptyHistory(t *testing.T) {
	a := &Replay{SampleRate: physio.DefaultSampleRate}
	if _, err := a.Apply(dataset.Window{}); err == nil {
		t.Error("empty history should error")
	}
}

func TestFlatline(t *testing.T) {
	wins := windowsFor(t, "V", 6, 5)
	a := &Flatline{Value: 0.2}
	out, err := a.Apply(wins[0])
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range out.ECG {
		if v != 0.2 {
			t.Fatal("flatline ECG should be constant")
		}
	}
	if len(out.RPeaks) != 0 || len(out.Pairs) != 0 {
		t.Error("flatline should clear R peaks and pairs")
	}
	if out.Attack != "flatline" {
		t.Errorf("Attack = %q", out.Attack)
	}
	// Input must not be mutated.
	if wins[0].ECG[0] == 0.2 && wins[0].ECG[1] == 0.2 {
		t.Error("input window mutated")
	}
}

func TestNoiseInjection(t *testing.T) {
	wins := windowsFor(t, "V", 6, 6)
	a := &NoiseInjection{Sigma: 0.5, SampleRate: physio.DefaultSampleRate, Seed: 1}
	out, err := a.Apply(wins[0])
	if err != nil {
		t.Fatal(err)
	}
	var diff float64
	for i := range out.ECG {
		d := out.ECG[i] - wins[0].ECG[i]
		diff += d * d
	}
	if diff == 0 {
		t.Error("noise injection should perturb the ECG")
	}
	if out.Attack != "noise" || !out.Altered {
		t.Errorf("flags = %v %q", out.Altered, out.Attack)
	}
}

func TestNoiseInjectionValidation(t *testing.T) {
	wins := windowsFor(t, "V", 6, 6)
	if _, err := (&NoiseInjection{Sigma: 0, SampleRate: 360}).Apply(wins[0]); err == nil {
		t.Error("zero sigma should error")
	}
	if _, err := (&NoiseInjection{Sigma: 1, SampleRate: 0}).Apply(wins[0]); err == nil {
		t.Error("zero sample rate should error")
	}
}

func TestNoiseInjectionVariesAcrossCalls(t *testing.T) {
	wins := windowsFor(t, "V", 6, 6)
	a := &NoiseInjection{Sigma: 0.5, SampleRate: physio.DefaultSampleRate, Seed: 1}
	o1, err := a.Apply(wins[0])
	if err != nil {
		t.Fatal(err)
	}
	o2, err := a.Apply(wins[0])
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range o1.ECG {
		if o1.ECG[i] != o2.ECG[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("successive noise applications should differ")
	}
}

func TestTimeShift(t *testing.T) {
	wins := windowsFor(t, "V", 6, 7)
	shift := 100
	a := &TimeShift{Samples: shift}
	out, err := a.Apply(wins[0])
	if err != nil {
		t.Fatal(err)
	}
	n := wins[0].Len()
	for i := 0; i < n; i++ {
		if out.ECG[i] != wins[0].ECG[(i-shift+n)%n] {
			t.Fatalf("sample %d not shifted correctly", i)
		}
	}
	for _, p := range out.RPeaks {
		if p < 0 || p >= n {
			t.Errorf("shifted R peak %d out of range", p)
		}
	}
	for i := 1; i < len(out.RPeaks); i++ {
		if out.RPeaks[i] < out.RPeaks[i-1] {
			t.Error("shifted R peaks not sorted")
		}
	}
}

func TestTimeShiftEmptyWindow(t *testing.T) {
	if _, err := (&TimeShift{Samples: 5}).Apply(dataset.Window{}); err == nil {
		t.Error("empty window should error")
	}
}

func TestTimeShiftNegativeAndLargeShifts(t *testing.T) {
	wins := windowsFor(t, "V", 6, 8)
	n := wins[0].Len()
	for _, s := range []int{-50, n + 10, 0} {
		a := &TimeShift{Samples: s}
		if _, err := a.Apply(wins[0]); err != nil {
			t.Errorf("shift %d errored: %v", s, err)
		}
	}
}

func TestGallery(t *testing.T) {
	wins := windowsFor(t, "V", 12, 9)
	donors := windowsFor(t, "D", 12, 10)
	gallery := Gallery(wins[:2], donors, physio.DefaultSampleRate, 1)
	if len(gallery) != 5 {
		t.Fatalf("gallery size = %d, want 5", len(gallery))
	}
	seen := map[string]bool{}
	for _, a := range gallery {
		out, err := a.Apply(wins[2])
		if err != nil {
			t.Errorf("%s: %v", a.Name(), err)
			continue
		}
		if !out.Altered {
			t.Errorf("%s did not mark window altered", a.Name())
		}
		if seen[a.Name()] {
			t.Errorf("duplicate attack name %q", a.Name())
		}
		seen[a.Name()] = true
	}
}

// windowCapture is a station detector that keeps every window it gets.
type windowCapture struct{ windows []dataset.Window }

func (c *windowCapture) Classify(w dataset.Window) (bool, error) {
	c.windows = append(c.windows, w)
	return false, nil
}

// TestAttacksOnStationWindowsDropStaleRanges: a window the base station
// cut carries its ECG and ABP ranges. Every attack replaces the ECG
// array, so the ECG range it keeps no longer matches; features of the
// attacked window must equal, bit for bit, those of the same window
// carrying no range at all.
func TestAttacksOnStationWindowsDropStaleRanges(t *testing.T) {
	rec, err := physio.Generate(physio.DefaultSubject(), 12, physio.DefaultSampleRate, 5)
	if err != nil {
		t.Fatal(err)
	}
	capture := &windowCapture{}
	st, err := wiot.NewBaseStation(wiot.StationConfig{
		SubjectID:  "V",
		SampleRate: rec.SampleRate,
		Detector:   capture,
		Sink:       &wiot.MemorySink{},
	})
	if err != nil {
		t.Fatal(err)
	}
	for lo, seq := 0, uint32(0); lo < len(rec.ECG); lo, seq = lo+90, seq+1 {
		hi := min(lo+90, len(rec.ECG))
		for _, f := range []wiot.Frame{
			wiot.FrameFromFloats(wiot.SensorECG, seq, rec.ECG[lo:hi]),
			wiot.FrameFromFloats(wiot.SensorABP, seq, rec.ABP[lo:hi]),
		} {
			if err := st.HandleFrame(f); err != nil {
				t.Fatal(err)
			}
		}
	}
	if len(capture.windows) != 4 {
		t.Fatalf("station cut %d windows, want 4", len(capture.windows))
	}
	history := windowsFor(t, "V", 12, 1)
	donors := windowsFor(t, "D", 12, 2)
	for _, a := range Gallery(history, donors, rec.SampleRate, 7) {
		for _, w := range capture.windows {
			if _, _, ok := w.ECGRange.Of(w.ECG); !ok {
				t.Fatalf("station window %d carries no ECG range", w.Index)
			}
			out, err := a.Apply(w)
			if err != nil {
				t.Fatalf("%s on window %d: %v", a.Name(), w.Index, err)
			}
			bare := out
			bare.ECGRange, bare.ABPRange = dataset.Range{}, dataset.Range{}
			for _, v := range features.Versions {
				got, err := features.FromWindow(nil, v, &out, 50)
				if err != nil {
					t.Fatalf("%s %s window %d: %v", a.Name(), v, w.Index, err)
				}
				want, err := features.FromWindow(nil, v, &bare, 50)
				if err != nil {
					t.Fatalf("%s %s window %d without ranges: %v", a.Name(), v, w.Index, err)
				}
				for i := range want {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Errorf("%s %s window %d: feature %d = %v with the carried ranges, %v without",
							a.Name(), v, w.Index, i, got[i], want[i])
					}
				}
			}
		}
	}
}
