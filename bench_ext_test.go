package bench

import (
	"testing"

	"github.com/wiot-security/sift/internal/amulet"
	"github.com/wiot-security/sift/internal/amulet/program"
	"github.com/wiot-security/sift/internal/dsp"
	"github.com/wiot-security/sift/internal/experiments"
	"github.com/wiot-security/sift/internal/features"
	"github.com/wiot-security/sift/internal/physio"
	"github.com/wiot-security/sift/internal/sensors"
	"github.com/wiot-security/sift/internal/svm"
	"github.com/wiot-security/sift/internal/wiot"
)

// --- Extension-study harnesses ----------------------------------------------

// BenchmarkStudy_Classifiers regenerates the model-selection comparison.
func BenchmarkStudy_Classifiers(b *testing.B) {
	l := getLab(b)
	for i := 0; i < b.N; i++ {
		rows, err := experiments.ClassifierComparison(l.env, quickSVM())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", experiments.FormatClassifiers(rows))
		}
	}
}

// BenchmarkStudy_Motion regenerates the motion-artifact study.
func BenchmarkStudy_Motion(b *testing.B) {
	l := getLab(b)
	for i := 0; i < b.N; i++ {
		rows, err := experiments.MotionStudy(l.env, quickSVM())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", experiments.FormatMotion(rows))
		}
	}
}

// BenchmarkStudy_CoResidency regenerates the multi-app study.
func BenchmarkStudy_CoResidency(b *testing.B) {
	l := getLab(b)
	for i := 0; i < b.N; i++ {
		rows, err := experiments.CoResidency(l.env, features.Simplified)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", experiments.FormatCoResidency(rows))
		}
	}
}

// --- Trainer and kernel ablations -------------------------------------------

// trainingMatrix extracts one subject's training design matrix once.
func trainingMatrix(b *testing.B) ([][]float64, []svm.Label) {
	b.Helper()
	l := getLab(b)
	det := l.dets[features.Original]
	x := make([][]float64, 0, len(l.test.Windows))
	y := make([]svm.Label, 0, len(l.test.Windows))
	for _, w := range l.test.Windows {
		f, err := det.FeaturesOf(w)
		if err != nil {
			b.Fatal(err)
		}
		x = append(x, f)
		if w.Altered {
			y = append(y, svm.Positive)
		} else {
			y = append(y, svm.Negative)
		}
	}
	return x, y
}

// BenchmarkAblation_KernelPredictCost compares per-window prediction cost
// for the linear and RBF models — the device-side argument for the
// paper's linear-kernel choice.
func BenchmarkAblation_KernelPredictCost(b *testing.B) {
	x, y := trainingMatrix(b)
	lin, err := svm.Train(x, y, svm.Config{Seed: 2, MaxIter: 60})
	if err != nil {
		b.Fatal(err)
	}
	rbfModel, err := svm.TrainRBF(x, y, svm.RBFConfig{Seed: 2, MaxIter: 60})
	if err != nil {
		b.Fatal(err)
	}
	probe := x[0]
	b.Run("linear", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = lin.Predict(probe)
		}
	})
	b.Run("RBF", func(b *testing.B) {
		b.ReportAllocs()
		b.ReportMetric(float64(len(rbfModel.SupportVecs)), "supportVectors")
		for i := 0; i < b.N; i++ {
			_ = rbfModel.Predict(probe)
		}
	})
}

// --- Component benches -------------------------------------------------------

// BenchmarkFFT1080 transforms one detector window's worth of samples
// (zero-padded to 2048) — the Insight #2 capability.
func BenchmarkFFT1080(b *testing.B) {
	x := make([]float64, 1080)
	for i := range x {
		x[i] = float64(i % 37)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := dsp.PowerSpectrum(x, 360); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPedometerWindow runs the bytecode step counter on one 3 s
// accelerometer window.
func BenchmarkPedometerWindow(b *testing.B) {
	accel, err := sensors.Generate([]sensors.Episode{
		{Activity: sensors.Walk, StartSec: 0, EndSec: 3},
	}, 3, 50, 1)
	if err != nil {
		b.Fatal(err)
	}
	mag := accel.Magnitude()
	dev := amulet.NewDevice()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := program.CountSteps(dev, mag); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFirmwareImageRoundTrip encodes and decodes the largest
// detector image.
func BenchmarkFirmwareImageRoundTrip(b *testing.B) {
	p, err := program.Build(features.Original)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		img, err := amulet.EncodeImage(p)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := amulet.DecodeImage(img); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLossyScenario runs the Fig 1 pipeline under 5 % frame loss,
// exercising the base station's gap concealment.
func BenchmarkLossyScenario(b *testing.B) {
	l := getLab(b)
	live := l.env.TestRecs[0]
	det := l.dets[features.Reduced]
	adapter := wiotAdapter{det}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := runLossy(live, adapter, int64(i))
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("lossy scenario: %d windows, %d seq errors", res.Windows, res.SeqErrors)
		}
	}
}

func runLossy(live *physio.Record, det wiot.Detector, seed int64) (wiot.ScenarioResult, error) {
	return wiot.RunScenario(wiot.Scenario{
		Record:   live,
		Detector: det,
		Channel:  wiot.MustLossy(0.05, 0, seed),
	})
}
