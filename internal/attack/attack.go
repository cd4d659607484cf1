// Package attack models sensor-hijacking attacks against the ECG channel.
//
// The paper defines sensor-hijacking as "attacks that prevent sensors from
// accurately collecting or reporting their measurements" and evaluates the
// substitution form (replacing a user's ECG with someone else's). SIFT is
// attack-agnostic by design, so this package also implements the other
// canonical manifestations — replaying stale data, flatlining, noise
// injection, and time-shifting — used by the extension experiments to test
// generalization beyond the attack the detector was trained on.
//
// Attacks operate on dataset.Window values: the ECG channel (and its R
// peaks) is what the adversary controls; the ABP channel is trusted.
package attack

import (
	"errors"
	"fmt"
	"math/rand"

	"github.com/wiot-security/sift/internal/dataset"
	"github.com/wiot-security/sift/internal/peaks"
)

// Attack transforms a genuine window into an attacked one. Implementations
// must not mutate the input window's slices.
type Attack interface {
	// Name identifies the attack in reports.
	Name() string
	// Apply returns the attacked version of w.
	Apply(w dataset.Window) (dataset.Window, error)
}

// Verify interface compliance.
var (
	_ Attack = (*Substitution)(nil)
	_ Attack = (*Replay)(nil)
	_ Attack = (*Flatline)(nil)
	_ Attack = (*NoiseInjection)(nil)
	_ Attack = (*TimeShift)(nil)
)

// Substitution replaces the victim's ECG with a donor's — the paper's
// evaluated attack. Donor windows are drawn round-robin from the pool.
type Substitution struct {
	Donors     []dataset.Window
	SampleRate float64

	next int
}

// Name implements Attack.
func (a *Substitution) Name() string { return "substitution" }

// Apply implements Attack.
func (a *Substitution) Apply(w dataset.Window) (dataset.Window, error) {
	if len(a.Donors) == 0 {
		return dataset.Window{}, errors.New("attack: substitution has no donor windows")
	}
	donor := a.Donors[a.next%len(a.Donors)]
	a.next++
	return dataset.Substitute(w, donor, a.SampleRate)
}

// Replay reports a stale copy of the victim's own earlier ECG — the
// "reporting old measurements" manifestation from the paper's definition.
// The replayed snippet comes from a history of the victim's own windows,
// so morphology matches but beat alignment with the live ABP does not.
type Replay struct {
	History    []dataset.Window // victim's own earlier windows
	SampleRate float64

	next int
}

// Name implements Attack.
func (a *Replay) Name() string { return "replay" }

// Apply implements Attack.
func (a *Replay) Apply(w dataset.Window) (dataset.Window, error) {
	if len(a.History) == 0 {
		return dataset.Window{}, errors.New("attack: replay has no history windows")
	}
	old := a.History[a.next%len(a.History)]
	a.next++
	out, err := dataset.Substitute(w, old, a.SampleRate)
	if err != nil {
		return dataset.Window{}, err
	}
	out.Attack = a.Name()
	return out, nil
}

// Flatline reports a constant ECG value, as a disabled or disconnected
// sensor would.
type Flatline struct {
	Value float64
}

// Name implements Attack.
func (a *Flatline) Name() string { return "flatline" }

// Apply implements Attack.
func (a *Flatline) Apply(w dataset.Window) (dataset.Window, error) {
	ecg := make([]float64, w.Len())
	for i := range ecg {
		ecg[i] = a.Value
	}
	out := w
	out.ECG = ecg
	out.RPeaks = nil // a flat signal has no R peaks
	out.Pairs = nil
	out.Altered = true
	out.Attack = a.Name()
	return out, nil
}

// NoiseInjection adds Gaussian noise to the ECG, modeling EMI-style
// sensory-channel injection (Ghost Talk / SCREAM class attacks cited by
// the paper). Peaks are re-detected on the corrupted signal, as the
// device's runtime peak detector would.
type NoiseInjection struct {
	Sigma      float64
	SampleRate float64
	Seed       int64

	calls int64
}

// Name implements Attack.
func (a *NoiseInjection) Name() string { return "noise" }

// Apply implements Attack.
func (a *NoiseInjection) Apply(w dataset.Window) (dataset.Window, error) {
	if a.Sigma <= 0 {
		return dataset.Window{}, fmt.Errorf("attack: noise sigma %.3g must be positive", a.Sigma)
	}
	if a.SampleRate <= 0 {
		return dataset.Window{}, fmt.Errorf("attack: noise sample rate %.3g must be positive", a.SampleRate)
	}
	rng := rand.New(rand.NewSource(a.Seed + a.calls))
	a.calls++
	ecg := make([]float64, w.Len())
	for i, v := range w.ECG {
		ecg[i] = v + a.Sigma*rng.NormFloat64()
	}
	rp, err := peaks.DetectR(ecg, peaks.DetectorConfig{SampleRate: a.SampleRate})
	if err != nil {
		return dataset.Window{}, fmt.Errorf("attack: re-detect R peaks: %w", err)
	}
	out := w
	out.ECG = ecg
	out.RPeaks = rp
	out.Pairs = peaks.Pair(rp, w.SysPeaks, int(dataset.MaxPairLagSec*a.SampleRate))
	out.Altered = true
	out.Attack = a.Name()
	return out, nil
}

// TimeShift delays the reported ECG by a fixed number of samples
// (circularly within the window), desynchronizing it from the ABP — the
// "reporting measurements late" manifestation.
type TimeShift struct {
	Samples int
}

// Name implements Attack.
func (a *TimeShift) Name() string { return "timeshift" }

// Apply implements Attack.
func (a *TimeShift) Apply(w dataset.Window) (dataset.Window, error) {
	n := w.Len()
	if n == 0 {
		return dataset.Window{}, errors.New("attack: cannot shift an empty window")
	}
	shift := ((a.Samples % n) + n) % n
	ecg := make([]float64, n)
	for i := range ecg {
		ecg[i] = w.ECG[(i-shift+n)%n]
	}
	rp := make([]int, 0, len(w.RPeaks))
	for _, p := range w.RPeaks {
		rp = append(rp, (p+shift)%n)
	}
	sortInts(rp)
	out := w
	out.ECG = ecg
	out.RPeaks = rp
	out.Pairs = nil
	out.Altered = true
	out.Attack = a.Name()
	return out, nil
}

func sortInts(x []int) {
	for i := 1; i < len(x); i++ {
		for j := i; j > 0 && x[j] < x[j-1]; j-- {
			x[j], x[j-1] = x[j-1], x[j]
		}
	}
}

// Gallery returns one instance of every attack type, configured for the
// given victim history and donor pool — the extension experiments iterate
// over this.
func Gallery(history, donors []dataset.Window, sampleRate float64, seed int64) []Attack {
	return []Attack{
		&Substitution{Donors: donors, SampleRate: sampleRate},
		&Replay{History: history, SampleRate: sampleRate},
		&Flatline{Value: 0},
		&NoiseInjection{Sigma: 0.5, SampleRate: sampleRate, Seed: seed},
		&TimeShift{Samples: int(0.4 * sampleRate)},
	}
}
