// Motion-aware detection: a wearer goes from rest to a run while wearing
// the device. Wrist motion couples artifact into the ECG and triggers
// false alarms; gating SIFT on the accelerometer's activity estimate
// (classify only at rest) suppresses them. The pedometer app counts steps
// on the same emulated device, demonstrating multi-app co-residency.
package main

import (
	"fmt"
	"log"

	"github.com/wiot-security/sift/internal/amulet"
	"github.com/wiot-security/sift/internal/amulet/program"
	"github.com/wiot-security/sift/internal/dataset"
	"github.com/wiot-security/sift/internal/features"
	"github.com/wiot-security/sift/internal/peaks"
	"github.com/wiot-security/sift/internal/physio"
	"github.com/wiot-security/sift/internal/sensors"
	"github.com/wiot-security/sift/internal/sift"
	"github.com/wiot-security/sift/internal/svm"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	subjects, err := physio.Cohort(2, 55)
	if err != nil {
		return err
	}
	wearer := subjects[0]
	trainRec, err := physio.Generate(wearer, 300, physio.DefaultSampleRate, 1)
	if err != nil {
		return err
	}
	donor, err := physio.Generate(subjects[1], 300, physio.DefaultSampleRate, 2)
	if err != nil {
		return err
	}
	det, err := sift.TrainForSubject(trainRec, []*physio.Record{donor}, sift.Config{
		Version: features.Original,
		SVM:     svm.Config{Seed: 5, MaxIter: 150},
	})
	if err != nil {
		return err
	}

	// One minute of genuine signal: 20 s rest → 20 s walk → 20 s run.
	live, err := physio.Generate(wearer, 60, physio.DefaultSampleRate, 99)
	if err != nil {
		return err
	}
	episodes := []sensors.Episode{
		{Activity: sensors.Rest, StartSec: 0, EndSec: 20},
		{Activity: sensors.Walk, StartSec: 20, EndSec: 40},
		{Activity: sensors.Run, StartSec: 40, EndSec: 60},
	}
	accel, err := sensors.Generate(episodes, 60, 50, 7)
	if err != nil {
		return err
	}
	corrupted, err := sensors.CorruptECG(live.ECG, live.SampleRate, accel, 0.5, 7)
	if err != nil {
		return err
	}
	activity, err := sensors.DetectActivity(accel, dataset.WindowSec)
	if err != nil {
		return err
	}

	// Shared device: the pedometer runs beside the detector.
	dev := amulet.NewDevice()
	mag := accel.Magnitude()
	perWin := int(dataset.WindowSec * accel.SampleRate)

	wins, err := dataset.FromRecord(&physio.Record{
		SubjectID:  wearer.ID,
		SampleRate: live.SampleRate,
		ECG:        corrupted,
		ABP:        live.ABP,
	}, dataset.WindowSec)
	if err != nil {
		return err
	}

	fmt.Println("no attacks in this stream — every ALARM below is false")
	fmt.Printf("%-4s %-8s %-6s %-10s %-10s\n", "win", "activity", "steps", "ungated", "gated")
	falseUngated, falseGated := 0, 0
	rdet, err := peaks.NewRDetector(peaks.DetectorConfig{SampleRate: live.SampleRate})
	if err != nil {
		return err
	}
	for i, w := range wins {
		// Runtime peak detection: R on the (corrupted) ECG, systolic on
		// the trusted ABP.
		r, err := rdet.Detect(w.ECG)
		if err != nil {
			return err
		}
		s, err := peaks.DetectSystolic(w.ABP, live.SampleRate)
		if err != nil {
			return err
		}
		w.RPeaks = r
		w.SysPeaks = s
		w.Pairs = peaks.Pair(r, s, int(dataset.MaxPairLagSec*live.SampleRate))
		res, err := det.Classify(w)
		if err != nil {
			return err
		}
		steps, err := program.CountSteps(dev, mag[i*perWin:(i+1)*perWin])
		if err != nil {
			return err
		}
		ungated := "ok"
		if res.Altered {
			ungated = "ALARM"
			falseUngated++
		}
		gated := ungated
		if activity[i] != sensors.Rest {
			gated = "deferred"
		} else if res.Altered {
			falseGated++
		}
		fmt.Printf("%-4d %-8s %-6d %-10s %-10s\n", i, activity[i], steps, ungated, gated)
	}
	fmt.Printf("\nfalse alarms: %d ungated → %d with activity gating\n", falseUngated, falseGated)
	return nil
}
