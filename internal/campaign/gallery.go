package campaign

import (
	"fmt"

	"github.com/wiot-security/sift/internal/attack"
	"github.com/wiot-security/sift/internal/dataset"
	"github.com/wiot-security/sift/internal/features"
	"github.com/wiot-security/sift/internal/physio"
	"github.com/wiot-security/sift/internal/sift"
	"github.com/wiot-security/sift/internal/svm"
)

// ArmOutcome is one attack arm's window-level detection tally.
type ArmOutcome struct {
	Name     string
	Detected int
	Total    int
}

// GalleryOutcome is the verdict set of a gallery campaign: specificity
// on the clean stream plus per-arm detection counts.
type GalleryOutcome struct {
	Clean   int // clean windows that passed (true negatives)
	Windows int // total clean-stream windows
	Arms    []ArmOutcome
}

// galleryAttack materializes one declared arm as an internal/attack
// implementation. History and donor windows come from the synthesized
// cohort; zero magnitudes take the gallery defaults (noise sigma 0.5,
// timeshift 0.4 s) so declarations match attack.Gallery's canon.
func galleryAttack(a AttackWindow, history, donors []dataset.Window, sampleRate float64) (attack.Attack, error) {
	switch a.Kind {
	case AttackSubstitution:
		return &attack.Substitution{Donors: donors, SampleRate: sampleRate}, nil
	case AttackReplay:
		return &attack.Replay{History: history, SampleRate: sampleRate}, nil
	case AttackFlatline:
		return &attack.Flatline{Value: a.Magnitude}, nil
	case AttackNoise:
		sigma := a.Magnitude
		if sigma == 0 {
			sigma = 0.5
		}
		return &attack.NoiseInjection{Sigma: sigma, SampleRate: sampleRate, Seed: a.Seed}, nil
	case AttackTimeShift:
		shift := a.Magnitude
		if shift == 0 {
			shift = 0.4
		}
		return &attack.TimeShift{Samples: int(shift * sampleRate)}, nil
	}
	return nil, fmt.Errorf("campaign: unknown attack kind %d", int(a.Kind))
}

// runGallery executes a gallery campaign: train the detector on the
// substitution attack only, score the clean live stream, then confront
// the detector with every declared arm over the windows inside the
// arm's attack window. Detector and live arm are the cohort recipe's
// wearer 0 at generation seed 0, which reproduces the pre-migration
// examples/attackgallery imperative path exactly (train seeds 1/2/3,
// live 100/101), so declared and legacy runs are byte-identical.
func (c Campaign) runGallery() (*GalleryOutcome, error) {
	version, err := features.ParseVersion(c.Detector.Version)
	if err != nil {
		return nil, err
	}
	subjects, err := physio.Cohort(c.Cohort.Subjects, c.Cohort.BaseSeed)
	if err != nil {
		return nil, err
	}
	det, err := TrainWearer(subjects, 0, 0, c.Cohort.TrainSec, sift.Config{
		Version: version,
		SVM:     svm.Config{Seed: c.Detector.SVMSeed, MaxIter: c.Detector.MaxIter},
	})
	if err != nil {
		return nil, err
	}
	live, donorLive, err := LiveArm(subjects, 0, 0, c.Cohort.LiveSec)
	if err != nil {
		return nil, err
	}
	wins, err := dataset.FromRecord(live, dataset.WindowSec)
	if err != nil {
		return nil, err
	}
	donorWins, err := dataset.FromRecord(donorLive, dataset.WindowSec)
	if err != nil {
		return nil, err
	}

	out := &GalleryOutcome{Windows: len(wins)}
	for _, w := range wins {
		r, err := det.Classify(w)
		if err != nil {
			return nil, err
		}
		if !r.Altered {
			out.Clean++
		}
	}

	for _, arm := range c.Attacks {
		// The arm's window bounds which live windows are attacked; the
		// windows before it are the victim's own history (what a replay
		// arm can draw from).
		from := windowIndex(arm.FromSec)
		to := len(wins)
		if arm.ToSec > 0 {
			to = min(windowIndex(arm.ToSec), len(wins))
		}
		if from < 0 || from >= len(wins) || to <= from {
			return nil, fmt.Errorf("campaign %q: arm %s window [%g,%g)s selects no live windows", c.Name, arm.Kind, arm.FromSec, arm.ToSec)
		}
		history, targets := wins[:from], wins[from:to]
		atk, err := galleryAttack(arm, history, donorWins, live.SampleRate)
		if err != nil {
			return nil, err
		}
		tally := ArmOutcome{Name: atk.Name()}
		for _, w := range targets {
			attacked, err := atk.Apply(w)
			if err != nil {
				return nil, err
			}
			r, err := det.Classify(attacked)
			if err != nil {
				return nil, err
			}
			tally.Total++
			if r.Altered {
				tally.Detected++
			}
		}
		out.Arms = append(out.Arms, tally)
	}
	return out, nil
}

// windowIndex converts a live-span second into a detector window index.
func windowIndex(sec float64) int { return int(sec / dataset.WindowSec) }
