package experiments

import (
	"fmt"
	"strings"

	"github.com/wiot-security/sift/internal/dataset"
	"github.com/wiot-security/sift/internal/features"
	"github.com/wiot-security/sift/internal/peaks"
	"github.com/wiot-security/sift/internal/physio"
	"github.com/wiot-security/sift/internal/sensors"
	"github.com/wiot-security/sift/internal/sift"
	"github.com/wiot-security/sift/internal/svm"
)

// MotionRow is one policy's outcome in the motion-artifact study.
type MotionRow struct {
	Policy   string
	FPRate   float64 // genuine windows flagged altered
	Coverage float64 // fraction of windows actually classified
}

// accelSampleRate is the ADXL362's configured output data rate.
const accelSampleRate = 50.0

// MotionStudy quantifies the wearable-reality problem the paper's
// evaluation sidesteps by pre-storing clean signals: wrist motion couples
// artifact into the ECG and inflates false positives on *genuine* data.
// Three base-station policies are compared: classify everything (ungated),
// skip windows whose accelerometer shows non-rest activity (gated), and a
// clean-signal control. No windows are attacked, so every alarm is false.
func MotionStudy(env *Env, svmCfg svm.Config) ([]MotionRow, error) {
	episodes := []sensors.Episode{
		{Activity: sensors.Rest, StartSec: 0, EndSec: 40},
		{Activity: sensors.Walk, StartSec: 40, EndSec: 80},
		{Activity: sensors.Run, StartSec: 80, EndSec: 120},
	}

	var clean, ungatedFP, gatedFP int
	var ungatedN, gatedN, totalN int

	for i := range env.Subjects {
		// Train under the same peak pipeline deployment uses: runtime
		// detection, not generator ground truth — otherwise the model
		// sees a systematic train/serve skew in the geometric features.
		trainSet, err := dataset.BuildTraining(env.TrainRecs[i], env.DonorsFor(i), dataset.WindowSec)
		if err != nil {
			return nil, err
		}
		if err := redetectPeaks(trainSet, env.TrainRecs[i].SampleRate); err != nil {
			return nil, err
		}
		det, err := sift.Train(env.TrainRecs[i].SubjectID, trainSet, sift.Config{
			Version: features.Original,
			SVM:     svmCfg,
		})
		if err != nil {
			return nil, err
		}
		live := env.TestRecs[i]
		if live.Duration() < 120 {
			return nil, fmt.Errorf("experiments: motion study needs 120 s test records, got %.0f s", live.Duration())
		}
		accel, err := sensors.Generate(episodes, live.Duration(), accelSampleRate, env.Config.Seed+int64(i))
		if err != nil {
			return nil, err
		}
		corrupted, err := sensors.CorruptECG(live.ECG, live.SampleRate, accel, 0.35, env.Config.Seed+int64(i))
		if err != nil {
			return nil, err
		}
		activity, err := sensors.DetectActivity(accel, dataset.WindowSec)
		if err != nil {
			return nil, err
		}

		classify := func(ecg []float64) ([]bool, error) {
			rec := &physio.Record{SubjectID: live.SubjectID, SampleRate: live.SampleRate, ECG: ecg, ABP: live.ABP}
			// Peaks must be re-detected on the (possibly corrupted) ECG,
			// as the device's runtime pipeline would.
			wins, err := dataset.FromRecord(rec, dataset.WindowSec)
			if err != nil {
				return nil, err
			}
			rdet, err := peaks.NewRDetector(peaks.DetectorConfig{SampleRate: live.SampleRate})
			if err != nil {
				return nil, err
			}
			var verdicts []bool
			for _, w := range wins {
				r, err := rdet.Detect(w.ECG)
				if err != nil {
					return nil, err
				}
				s, err := peaks.DetectSystolic(w.ABP, live.SampleRate)
				if err != nil {
					return nil, err
				}
				w.RPeaks = r
				w.SysPeaks = s
				w.Pairs = peaks.Pair(r, s, int(dataset.MaxPairLagSec*live.SampleRate))
				res, err := det.Classify(w)
				if err != nil {
					return nil, err
				}
				verdicts = append(verdicts, res.Altered)
			}
			return verdicts, nil
		}

		cleanVerdicts, err := classify(live.ECG)
		if err != nil {
			return nil, err
		}
		corruptVerdicts, err := classify(corrupted)
		if err != nil {
			return nil, err
		}

		for k, altered := range cleanVerdicts {
			totalN++
			if altered {
				clean++
			}
			_ = k
		}
		for k, altered := range corruptVerdicts {
			ungatedN++
			if altered {
				ungatedFP++
			}
			if k < len(activity) && activity[k] != sensors.Rest {
				continue // gated out
			}
			gatedN++
			if altered {
				gatedFP++
			}
		}
	}

	rate := func(fp, n int) float64 {
		if n == 0 {
			return 0
		}
		return float64(fp) / float64(n)
	}
	return []MotionRow{
		{Policy: "clean signal (control)", FPRate: rate(clean, totalN), Coverage: 1},
		{Policy: "motion, ungated", FPRate: rate(ungatedFP, ungatedN), Coverage: 1},
		{Policy: "motion, activity-gated", FPRate: rate(gatedFP, gatedN), Coverage: float64(gatedN) / float64(ungatedN)},
	}, nil
}

// redetectPeaks replaces every window's peak annotations with what the
// runtime detectors find on its actual samples.
func redetectPeaks(set *dataset.LabeledSet, fs float64) error {
	maxLag := int(dataset.MaxPairLagSec * fs)
	rdet, err := peaks.NewRDetector(peaks.DetectorConfig{SampleRate: fs})
	if err != nil {
		return err
	}
	for i := range set.Windows {
		w := &set.Windows[i]
		r, err := rdet.Detect(w.ECG)
		if err != nil {
			return err
		}
		s, err := peaks.DetectSystolic(w.ABP, fs)
		if err != nil {
			return err
		}
		w.RPeaks = r
		w.SysPeaks = s
		w.Pairs = peaks.Pair(r, s, maxLag)
	}
	return nil
}

// FormatMotion renders the study.
func FormatMotion(rows []MotionRow) string {
	var sb strings.Builder
	sb.WriteString("Motion-artifact study (no attacks; every alarm is false)\n")
	sb.WriteString(fmt.Sprintf("%-26s %9s %10s\n", "Policy", "FP rate", "Coverage"))
	for _, r := range rows {
		sb.WriteString(fmt.Sprintf("%-26s %8.2f%% %9.1f%%\n", r.Policy, 100*r.FPRate, 100*r.Coverage))
	}
	return sb.String()
}
