// Quickstart: train a user-specific SIFT detector and catch an ECG
// substitution attack, end to end, in under a minute of CPU time.
//
// This walks the paper's Fig 2 pipeline: each window of synchronized
// ECG+ABP goes through Detector.Classify — PeaksDataCheck →
// FeatureExtraction → MLClassifier — and altered windows raise alerts.
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"github.com/wiot-security/sift/internal/dataset"
	"github.com/wiot-security/sift/internal/features"
	"github.com/wiot-security/sift/internal/physio"
	"github.com/wiot-security/sift/internal/sift"
	"github.com/wiot-security/sift/internal/svm"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(out io.Writer) error {
	// 1. Synthesize a small cohort: the wearer plus two other people whose
	//    ECG the adversary might substitute.
	subjects, err := physio.Cohort(3, 1)
	if err != nil {
		return err
	}
	wearer, donorA, donorB := subjects[0], subjects[1], subjects[2]
	fmt.Fprintf(out, "wearer %s: age %d, %.0f bpm, BP %.0f/%.0f\n\n",
		wearer.ID, wearer.Age, wearer.HeartRate, wearer.Systolic, wearer.Diastolic)

	// 2. Record 5 minutes of training data from everyone.
	const trainSec = 300
	trainRec, err := physio.Generate(wearer, trainSec, physio.DefaultSampleRate, 10)
	if err != nil {
		return err
	}
	recA, err := physio.Generate(donorA, trainSec, physio.DefaultSampleRate, 11)
	if err != nil {
		return err
	}
	recB, err := physio.Generate(donorB, trainSec, physio.DefaultSampleRate, 12)
	if err != nil {
		return err
	}

	// 3. Train the full-featured (Original) detector for the wearer.
	det, err := sift.TrainForSubject(trainRec, []*physio.Record{recA, recB}, sift.Config{
		Version: features.Original,
		SVM:     svm.Config{Seed: 1, MaxIter: 150},
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "trained %s detector: %d features, %d support vectors\n\n",
		det.Version, det.Version.Dim(), det.Model.SupportVectors)

	// 4. Stream unseen live data through the detector, window by window.
	liveRec, err := physio.Generate(wearer, 30, physio.DefaultSampleRate, 99)
	if err != nil {
		return err
	}
	donorLive, err := physio.Generate(donorA, 30, physio.DefaultSampleRate, 98)
	if err != nil {
		return err
	}
	wins, err := dataset.FromRecord(liveRec, dataset.WindowSec)
	if err != nil {
		return err
	}
	donorWins, err := dataset.FromRecord(donorLive, dataset.WindowSec)
	if err != nil {
		return err
	}

	classify := func(w dataset.Window) error {
		r, err := det.Classify(w)
		if err != nil {
			return err
		}
		verdict := "genuine"
		if r.Altered {
			verdict = "** ALTERED — alert raised **"
		}
		fmt.Fprintf(out, "   window %2d: margin %+7.3f → %s\n", w.Index, r.Margin, verdict)
		return nil
	}

	fmt.Fprintln(out, "live stream (genuine windows):")
	for _, w := range wins[:5] {
		if err := classify(w); err != nil {
			return err
		}
	}

	// 5. The adversary hijacks the ECG sensor: the wearer's ECG channel
	//    now reports someone else's heartbeat.
	fmt.Fprintln(out, "\nsensor hijacked (donor ECG substituted over wearer ABP):")
	for i, w := range wins[5:10] {
		attacked, err := dataset.Substitute(w, donorWins[i], liveRec.SampleRate)
		if err != nil {
			return err
		}
		if err := classify(attacked); err != nil {
			return err
		}
	}
	return nil
}
