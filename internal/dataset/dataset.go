// Package dataset implements the paper's experimental protocol: slicing
// synchronized ECG+ABP recordings into w-second windows, building the
// negative (own signals) and positive (someone else's ECG over the
// wearer's ABP) training classes, and assembling the 2-minute test sets
// with 50 % of the windows altered at random positions.
package dataset

import (
	"errors"
	"fmt"
	"math/rand"

	"github.com/wiot-security/sift/internal/peaks"
	"github.com/wiot-security/sift/internal/physio"
	"github.com/wiot-security/sift/internal/portrait"
)

// Protocol constants from the paper.
const (
	// WindowSec is w: the detector operates on 3-second snippets.
	WindowSec = 3.0
	// TrainSec is Δ: 20 minutes of training data per subject.
	TrainSec = 20 * 60.0
	// TestSec is the length of the unseen test span (2 minutes).
	TestSec = 2 * 60.0
	// TestAlteredFrac is the fraction of test windows that are altered.
	TestAlteredFrac = 0.5
	// MaxPairLagSec bounds the R-peak → systolic-peak pairing delay.
	MaxPairLagSec = 1.0
)

// Window is one w-second snippet of synchronized ECG and ABP with its
// characteristic-point indices, ready for feature extraction.
type Window struct {
	SubjectID string
	Index     int // position within the source record

	ECG []float64
	ABP []float64

	RPeaks   []int
	SysPeaks []int
	Pairs    [][2]int

	Altered bool
	Attack  string // attack name when Altered
}

// Len returns the window's length in samples (its ECG's; a well-formed
// window's ABP is as long).
func (w *Window) Len() int { return len(w.ECG) }

// Portrait builds the window's portrait.
func (w *Window) Portrait() (*portrait.Portrait, error) {
	return portrait.New(w.ECG, w.ABP, w.RPeaks, w.SysPeaks, w.Pairs)
}

// FromRecord slices rec into non-overlapping windows of wSec seconds,
// re-basing peak indices and pairing R peaks with systolic peaks. A final
// partial window is discarded, as on the device.
func FromRecord(rec *physio.Record, wSec float64) ([]Window, error) {
	if rec == nil || len(rec.ECG) == 0 {
		return nil, errors.New("dataset: empty record")
	}
	if wSec <= 0 {
		return nil, fmt.Errorf("dataset: window length %.3g s must be positive", wSec)
	}
	wlen := int(wSec * rec.SampleRate)
	if wlen <= 0 || wlen > len(rec.ECG) {
		return nil, fmt.Errorf("dataset: window of %d samples impossible for %d-sample record", wlen, len(rec.ECG))
	}
	maxLag := int(MaxPairLagSec * rec.SampleRate)
	var out []Window
	for lo := 0; lo+wlen <= len(rec.ECG); lo += wlen {
		sub, err := rec.Slice(lo, lo+wlen)
		if err != nil {
			return nil, fmt.Errorf("dataset: slice window at %d: %w", lo, err)
		}
		out = append(out, Window{
			SubjectID: rec.SubjectID,
			Index:     lo / wlen,
			ECG:       sub.ECG,
			ABP:       sub.ABP,
			RPeaks:    sub.RPeaks,
			SysPeaks:  sub.SystolicPeaks,
			Pairs:     peaks.Pair(sub.RPeaks, sub.SystolicPeaks, maxLag),
		})
	}
	return out, nil
}

// Substitute implements the paper's attack model at the window level: the
// wearer's ECG (and its R peaks) is replaced with the donor's, while the
// trusted ABP channel stays the wearer's own. Pairing is recomputed across
// the mismatched channels. The donor window must have the same length.
func Substitute(victim, donor Window, sampleRate float64) (Window, error) {
	if victim.Len() != donor.Len() {
		return Window{}, fmt.Errorf("dataset: victim window (%d samples) and donor window (%d samples) differ", victim.Len(), donor.Len())
	}
	maxLag := int(MaxPairLagSec * sampleRate)
	out := Window{
		SubjectID: victim.SubjectID,
		Index:     victim.Index,
		ECG:       donor.ECG,
		ABP:       victim.ABP,
		RPeaks:    donor.RPeaks,
		SysPeaks:  victim.SysPeaks,
		Pairs:     peaks.Pair(donor.RPeaks, victim.SysPeaks, maxLag),
		Altered:   true,
		Attack:    "substitution",
	}
	return out, nil
}

// LabeledSet is a set of windows with ground-truth alteration labels.
type LabeledSet struct {
	Windows []Window
}

// Counts returns the number of altered and unaltered windows.
func (s *LabeledSet) Counts() (altered, unaltered int) {
	for _, w := range s.Windows {
		if w.Altered {
			altered++
		} else {
			unaltered++
		}
	}
	return altered, unaltered
}

// BuildTraining constructs the training set for one subject: negatives are
// the subject's own windows over the training span; positives substitute
// each donor's ECG into the subject's windows, cycling donors so the
// positive class mixes "several different users" as in the paper.
func BuildTraining(subject *physio.Record, donors []*physio.Record, wSec float64) (*LabeledSet, error) {
	if len(donors) == 0 {
		return nil, errors.New("dataset: training needs at least one donor")
	}
	own, err := FromRecord(subject, wSec)
	if err != nil {
		return nil, fmt.Errorf("dataset: window subject: %w", err)
	}
	donorWindows := make([][]Window, len(donors))
	for i, d := range donors {
		dw, err := FromRecord(d, wSec)
		if err != nil {
			return nil, fmt.Errorf("dataset: window donor %s: %w", d.SubjectID, err)
		}
		if len(dw) == 0 {
			return nil, fmt.Errorf("dataset: donor %s yielded no windows", d.SubjectID)
		}
		donorWindows[i] = dw
	}

	set := &LabeledSet{Windows: make([]Window, 0, 2*len(own))}
	set.Windows = append(set.Windows, own...)
	for k, w := range own {
		dws := donorWindows[k%len(donors)]
		donor := dws[k%len(dws)]
		alt, err := Substitute(w, donor, subject.SampleRate)
		if err != nil {
			return nil, err
		}
		set.Windows = append(set.Windows, alt)
	}
	return set, nil
}

// BuildTest assembles the paper's test protocol over an unseen record
// span: every window is kept, and alteredFrac of them (at seeded random
// positions) have their ECG replaced with donor ECG. With a 2-minute span
// and 3-second windows this yields the paper's 40 examples per subject.
func BuildTest(subject *physio.Record, donors []*physio.Record, wSec, alteredFrac float64, seed int64) (*LabeledSet, error) {
	if alteredFrac < 0 || alteredFrac > 1 {
		return nil, fmt.Errorf("dataset: altered fraction %.3g outside [0,1]", alteredFrac)
	}
	if len(donors) == 0 {
		return nil, errors.New("dataset: test needs at least one donor")
	}
	own, err := FromRecord(subject, wSec)
	if err != nil {
		return nil, fmt.Errorf("dataset: window subject: %w", err)
	}
	var donorPool []Window
	for _, d := range donors {
		dw, err := FromRecord(d, wSec)
		if err != nil {
			return nil, fmt.Errorf("dataset: window donor %s: %w", d.SubjectID, err)
		}
		donorPool = append(donorPool, dw...)
	}
	if len(donorPool) == 0 {
		return nil, errors.New("dataset: donors yielded no windows")
	}

	rng := rand.New(rand.NewSource(seed))
	nAltered := int(float64(len(own)) * alteredFrac)
	perm := rng.Perm(len(own))
	alter := make(map[int]bool, nAltered)
	for _, i := range perm[:nAltered] {
		alter[i] = true
	}

	set := &LabeledSet{Windows: make([]Window, 0, len(own))}
	for i, w := range own {
		if !alter[i] {
			set.Windows = append(set.Windows, w)
			continue
		}
		donor := donorPool[rng.Intn(len(donorPool))]
		alt, err := Substitute(w, donor, subject.SampleRate)
		if err != nil {
			return nil, err
		}
		set.Windows = append(set.Windows, alt)
	}
	return set, nil
}
