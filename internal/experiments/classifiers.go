package experiments

import (
	"fmt"
	"strings"

	"github.com/wiot-security/sift/internal/baseline"
	"github.com/wiot-security/sift/internal/dataset"
	"github.com/wiot-security/sift/internal/features"
	"github.com/wiot-security/sift/internal/metrics"
	"github.com/wiot-security/sift/internal/sift"
	"github.com/wiot-security/sift/internal/svm"
)

// ClassifierRow is one algorithm's result in the model-selection study.
type ClassifierRow struct {
	Name    string
	Summary metrics.Summary
}

// ClassifierComparison backs the paper's model-selection claim ("SVM
// performed the best among the algorithms we tried"): every algorithm in
// the baseline package trains on the same Original-feature points per
// subject and is evaluated on the same test protocol.
func ClassifierComparison(env *Env, svmCfg svm.Config) ([]ClassifierRow, error) {
	// Feature extraction is shared across algorithms, so precompute the
	// per-subject design matrices once.
	type subjectData struct {
		trainX [][]float64
		trainY []svm.Label
		testX  [][]float64
		testY  []bool
	}
	extractor := &sift.Detector{Version: features.Original, GridN: 50}
	var data []subjectData
	for i := range env.Subjects {
		trainSet, err := dataset.BuildTraining(env.TrainRecs[i], env.DonorsFor(i), dataset.WindowSec)
		if err != nil {
			return nil, err
		}
		testSet, err := dataset.BuildTest(env.TestRecs[i], env.TestDonorsFor(i),
			dataset.WindowSec, dataset.TestAlteredFrac, env.Config.Seed+7000+int64(i))
		if err != nil {
			return nil, err
		}
		var sd subjectData
		for _, w := range trainSet.Windows {
			f, err := extractor.FeaturesOf(w)
			if err != nil {
				return nil, err
			}
			sd.trainX = append(sd.trainX, f)
			if w.Altered {
				sd.trainY = append(sd.trainY, svm.Positive)
			} else {
				sd.trainY = append(sd.trainY, svm.Negative)
			}
		}
		for _, w := range testSet.Windows {
			f, err := extractor.FeaturesOf(w)
			if err != nil {
				return nil, err
			}
			sd.testX = append(sd.testX, f)
			sd.testY = append(sd.testY, w.Altered)
		}
		data = append(data, sd)
	}

	var rows []ClassifierRow
	for _, proto := range baseline.All(svmCfg) {
		var cms []metrics.Confusion
		for si, sd := range data {
			c := freshClassifier(proto, svmCfg)
			if err := c.Fit(sd.trainX, sd.trainY); err != nil {
				return nil, fmt.Errorf("experiments: fit %s subject %d: %w", c.Name(), si, err)
			}
			var cm metrics.Confusion
			for k := range sd.testX {
				cm.Add(sd.testY[k], c.Predict(sd.testX[k]) == svm.Positive)
			}
			cms = append(cms, cm)
		}
		s, err := metrics.Summarize(cms)
		if err != nil {
			return nil, err
		}
		rows = append(rows, ClassifierRow{Name: proto.Name(), Summary: s})
	}
	return rows, nil
}

// freshClassifier returns an untrained instance matching proto's type
// (classifiers are stateful, so each subject gets its own).
func freshClassifier(proto baseline.Classifier, svmCfg svm.Config) baseline.Classifier {
	switch proto.(type) {
	case *baseline.SVM:
		return &baseline.SVM{Config: svmCfg}
	case *baseline.RBFSVM:
		return &baseline.RBFSVM{Config: svmCfg}
	case *baseline.KNN:
		return &baseline.KNN{K: 5}
	case *baseline.Logistic:
		return &baseline.Logistic{}
	case *baseline.NearestCentroid:
		return &baseline.NearestCentroid{}
	default:
		return proto
	}
}

// FormatClassifiers renders the comparison.
func FormatClassifiers(rows []ClassifierRow) string {
	var sb strings.Builder
	sb.WriteString("Classifier comparison (Original features, per-user models)\n")
	sb.WriteString(fmt.Sprintf("%-18s %9s %9s %10s %9s\n", "Algorithm", "Avg. FP", "Avg. FN", "Avg. Acc", "Avg. F1"))
	for _, r := range rows {
		sb.WriteString(fmt.Sprintf("%-18s %8.2f%% %8.2f%% %9.2f%% %8.2f%%\n",
			r.Name, 100*r.Summary.AvgFP, 100*r.Summary.AvgFN, 100*r.Summary.AvgAcc, 100*r.Summary.AvgF1))
	}
	return sb.String()
}
