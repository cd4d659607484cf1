// Package sift implements SIgnal Feature-correlation-based Testing — the
// paper's core contribution: an attack-agnostic detector for ECG
// sensor-hijacking that exploits the inherent correlation between ECG and
// arterial blood pressure measurements of the same cardiac process.
//
// The detector follows the paper's three-stage pipeline (Fig. 2):
//
//	PeaksDataCheck → FeatureExtraction → MLClassifier
//
// A w-second window of synchronized ECG+ABP becomes a 2-D portrait, the
// portrait yields a feature point (8-D for the Original/Simplified
// versions, 5-D for Reduced), and a per-user linear SVM labels the point
// altered or genuine.
//
// This package is the host-side (full-precision, "MATLAB" gold-standard)
// implementation used for offline training and as the reference in
// Table II; the device-side implementation is the fixed-point bytecode in
// internal/amulet/program, built from the same trained model via
// Detector.Quantize.
package sift

import (
	"encoding/json"
	"errors"
	"fmt"

	"github.com/wiot-security/sift/internal/dataset"
	"github.com/wiot-security/sift/internal/features"
	"github.com/wiot-security/sift/internal/metrics"
	"github.com/wiot-security/sift/internal/physio"
	"github.com/wiot-security/sift/internal/portrait"
	"github.com/wiot-security/sift/internal/svm"
)

// Config parameterizes training of a user-specific detector.
type Config struct {
	Version features.Version // feature extractor variant (default Original)
	GridN   int              // portrait grid size (default 50, per the paper)
	SVM     svm.Config       // SVM trainer settings
}

func (c Config) fillDefaults() Config {
	if c.Version == 0 {
		c.Version = features.Original
	}
	if c.GridN == 0 {
		c.GridN = portrait.DefaultGridSize
	}
	return c
}

// Detector is a trained user-specific SIFT detector.
type Detector struct {
	SubjectID string           `json:"subjectId"`
	Version   features.Version `json:"version"`
	GridN     int              `json:"gridN"`
	Model     *svm.Model       `json:"model"`

	// PeakSanity enables the PeaksDataCheck plausibility rule: a window
	// with zero R peaks cannot be a live cardiac signal (≥1 beat must
	// occur in any 3 s window), so it is flagged altered outright. This
	// catches flatline/dead-sensor hijacking that a linear SVM cannot —
	// the SVM measures direction, not out-of-distribution distance.
	PeakSanity bool `json:"peakSanity"`
}

// SanityMargin is the decision value reported for windows rejected by the
// PeaksDataCheck plausibility rule (far outside any SVM margin).
const SanityMargin = 100.0

// Result is one classification outcome.
type Result struct {
	Altered bool    // detector verdict
	Margin  float64 // signed SVM decision value (positive = altered)
}

// FeaturesOf runs the PeaksDataCheck and FeatureExtraction stages: it
// validates the window and extracts the detector's feature vector from
// the window's portrait.
func (d *Detector) FeaturesOf(w dataset.Window) ([]float64, error) {
	return d.featuresInto(make([]float64, 0, d.Version.Dim()), &w)
}

func (d *Detector) featuresInto(dst []float64, w *dataset.Window) ([]float64, error) {
	f, err := features.FromWindow(dst, d.Version, w, d.GridN)
	if err != nil {
		return nil, fmt.Errorf("sift: extract features: %w", err)
	}
	return f, nil
}

// FailsPeakCheck reports whether the PeaksDataCheck plausibility rule
// flags the window altered: PeakSanity is on and it has no R peak.
// Classify then reports SanityMargin without extracting features, once
// it has checked that the window is well-formed.
func (d *Detector) FailsPeakCheck(w dataset.Window) bool {
	return d.PeakSanity && len(w.RPeaks) == 0
}

// Classify runs the full pipeline on one window. It allocates nothing
// unless it fails, and is safe for concurrent use.
func (d *Detector) Classify(w dataset.Window) (Result, error) {
	if d.Model == nil {
		return Result{}, errors.New("sift: detector has no trained model")
	}
	if d.FailsPeakCheck(w) {
		// The sanity rule judges well-formed windows only: a malformed
		// one is a fault of its source, not an attack.
		if err := portrait.Validate(w.ECG, w.ABP, w.RPeaks, w.SysPeaks, w.Pairs); err != nil {
			return Result{}, fmt.Errorf("sift: malformed window %d: %w", w.Index, err)
		}
		return Result{Altered: true, Margin: SanityMargin}, nil
	}
	var buf [8]float64
	f, err := d.featuresInto(buf[:0], &w)
	if err != nil {
		return Result{}, err
	}
	margin := d.Model.Decision(f)
	return Result{Altered: margin >= 0, Margin: margin}, nil
}

// HostDetector adapts a trained Detector to the base station's
// boolean-verdict interface (wiot.Detector), which needs only whether a
// window was altered.
type HostDetector struct{ D *Detector }

// Classify implements wiot.Detector.
func (h HostDetector) Classify(w dataset.Window) (bool, error) {
	r, err := h.D.Classify(w)
	if err != nil {
		return false, err
	}
	return r.Altered, nil
}

// Evaluate classifies every window in the set and accumulates a confusion
// matrix against the ground-truth labels.
func (d *Detector) Evaluate(set *dataset.LabeledSet) (metrics.Confusion, error) {
	var c metrics.Confusion
	if set == nil || len(set.Windows) == 0 {
		return c, errors.New("sift: empty evaluation set")
	}
	for i, w := range set.Windows {
		r, err := d.Classify(w)
		if err != nil {
			return c, fmt.Errorf("sift: classify window %d: %w", i, err)
		}
		c.Add(w.Altered, r.Altered)
	}
	return c, nil
}

// Quantize exports the detector's prediction function for the device.
func (d *Detector) Quantize() (*svm.Quantized, error) {
	if d.Model == nil {
		return nil, errors.New("sift: detector has no trained model")
	}
	return d.Model.Quantize()
}

// Marshal serializes the detector (model, version, grid) for storage.
func (d *Detector) Marshal() ([]byte, error) { return json.Marshal(d) }

// Unmarshal decodes a detector produced by Marshal.
func Unmarshal(data []byte) (*Detector, error) {
	var d Detector
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, fmt.Errorf("sift: decode detector: %w", err)
	}
	return &d, nil
}

// Train fits a user-specific detector from a labeled window set. This is
// the offline training step the paper runs off-device.
func Train(subjectID string, set *dataset.LabeledSet, cfg Config) (*Detector, error) {
	cfg = cfg.fillDefaults()
	if set == nil || len(set.Windows) == 0 {
		return nil, errors.New("sift: empty training set")
	}
	d := &Detector{
		SubjectID:  subjectID,
		Version:    cfg.Version,
		GridN:      cfg.GridN,
		PeakSanity: true,
	}

	x := make([][]float64, 0, len(set.Windows))
	y := make([]svm.Label, 0, len(set.Windows))
	for i, w := range set.Windows {
		f, err := d.FeaturesOf(w)
		if err != nil {
			return nil, fmt.Errorf("sift: features for training window %d: %w", i, err)
		}
		x = append(x, f)
		if w.Altered {
			y = append(y, svm.Positive)
		} else {
			y = append(y, svm.Negative)
		}
	}
	model, err := svm.Train(x, y, cfg.SVM)
	if err != nil {
		return nil, fmt.Errorf("sift: train SVM: %w", err)
	}
	d.Model = model
	return d, nil
}

// TrainForSubject runs the paper's end-to-end training protocol: build the
// balanced positive/negative set from the subject's training record and
// the donor records, then fit the detector.
func TrainForSubject(subject *physio.Record, donors []*physio.Record, cfg Config) (*Detector, error) {
	set, err := dataset.BuildTraining(subject, donors, dataset.WindowSec)
	if err != nil {
		return nil, fmt.Errorf("sift: build training set: %w", err)
	}
	return Train(subject.SubjectID, set, cfg)
}
