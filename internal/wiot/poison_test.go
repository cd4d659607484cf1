//go:build wiotpoison

package wiot

import (
	"math"
	"testing"

	"github.com/wiot-security/sift/internal/dataset"
)

// keepLent is a Detector that breaks the lending rule: it keeps every
// window it is lent without copying it.
type keepLent struct{ windows []dataset.Window }

func (k *keepLent) Classify(w dataset.Window) (bool, error) {
	k.windows = append(k.windows, w)
	return false, nil
}

// TestPoisonBitesKeptWindow: in a wiotpoison build, a window kept past
// Classify without copying reads NaN once the call returns, while a
// copy (windowLog's) keeps its samples.
func TestPoisonBitesKeptWindow(t *testing.T) {
	keep, log := &keepLent{}, &windowLog{}
	for _, det := range []Detector{keep, log} {
		st := newTestStation(t, det, &MemorySink{})
		samples := make([]float64, 90)
		for i := range samples {
			samples[i] = float64(i)
		}
		for seq := uint32(0); seq < 12; seq++ {
			for _, id := range []SensorID{SensorECG, SensorABP} {
				if err := st.HandleFrame(FrameFromFloats(id, seq, samples)); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if len(keep.windows) != 1 || len(log.all()) != 1 {
		t.Fatalf("classified %d and %d windows, want 1 each", len(keep.windows), len(log.all()))
	}
	for _, w := range [][]float64{keep.windows[0].ECG, keep.windows[0].ABP} {
		for i, v := range w {
			if !math.IsNaN(v) {
				t.Fatalf("kept sample %d reads %v after Classify returned, want NaN", i, v)
			}
		}
	}
	for i, v := range log.all()[0].ECG {
		if v != float64(i%90) {
			t.Fatalf("copied sample %d reads %v, want %v", i, v, float64(i%90))
		}
	}
}
