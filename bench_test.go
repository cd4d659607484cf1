// Package bench is the reproduction harness: one benchmark per table and
// figure in the paper's evaluation, plus ablation benches for the design
// constants DESIGN.md calls out.
//
// Run everything with:
//
//	go test -bench=. -benchmem
//
// Benchmarks print the reproduced rows/series once per run (via b.Logf on
// the first iteration), so `-bench . -v` doubles as the results harness;
// `go run ./cmd/siftlab all` produces the same tables standalone.
package bench

import (
	"sync"
	"testing"

	"github.com/wiot-security/sift/internal/amulet/program"
	"github.com/wiot-security/sift/internal/dataset"
	"github.com/wiot-security/sift/internal/experiments"
	"github.com/wiot-security/sift/internal/features"
	"github.com/wiot-security/sift/internal/fixedpoint"
	"github.com/wiot-security/sift/internal/physio"
	"github.com/wiot-security/sift/internal/sift"
	"github.com/wiot-security/sift/internal/svm"
	"github.com/wiot-security/sift/internal/wiot"
)

// lab lazily builds the shared benchmark environment: a quick-protocol
// cohort, one trained detector per version, and a test window set.
type lab struct {
	env  *experiments.Env
	dets map[features.Version]*sift.Detector
	devs map[features.Version]*program.DeviceDetector
	test *dataset.LabeledSet
}

var (
	labOnce sync.Once
	labInst *lab
	labErr  error
)

func getLab(b *testing.B) *lab {
	b.Helper()
	labOnce.Do(func() {
		env, err := experiments.NewEnv(experiments.QuickConfig())
		if err != nil {
			labErr = err
			return
		}
		l := &lab{
			env:  env,
			dets: map[features.Version]*sift.Detector{},
			devs: map[features.Version]*program.DeviceDetector{},
		}
		for _, v := range features.Versions {
			det, err := sift.TrainForSubject(env.TrainRecs[0], env.DonorsFor(0), sift.Config{
				Version: v,
				SVM:     svm.Config{Seed: 7, MaxIter: 60},
			})
			if err != nil {
				labErr = err
				return
			}
			l.dets[v] = det
			q, err := det.Quantize()
			if err != nil {
				labErr = err
				return
			}
			dev, err := program.NewDeviceDetector(v, nil, q)
			if err != nil {
				labErr = err
				return
			}
			l.devs[v] = dev
		}
		l.test, err = dataset.BuildTest(env.TestRecs[0], env.TestDonorsFor(0),
			dataset.WindowSec, dataset.TestAlteredFrac, 99)
		if err != nil {
			labErr = err
			return
		}
		labInst = l
	})
	if labErr != nil {
		b.Fatal(labErr)
	}
	return labInst
}

// quickSVM bounds the trainer for benchmark-internal retraining.
func quickSVM() svm.Config { return svm.Config{Seed: 7, MaxIter: 60} }

// --- Table II -------------------------------------------------------------

// BenchmarkTable2 regenerates the full Table II (all versions, both
// platforms) once per iteration and reports the rows.
func BenchmarkTable2(b *testing.B) {
	l := getLab(b)
	for i := 0; i < b.N; i++ {
		res, err := experiments.Table2(l.env, quickSVM())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", res.Format())
		}
	}
}

// Per-window classification cost, host ("MATLAB") platform.
func BenchmarkTable2_HostClassify(b *testing.B) {
	l := getLab(b)
	for _, v := range features.Versions {
		v := v
		b.Run(v.String(), func(b *testing.B) {
			det := l.dets[v]
			w := l.test.Windows[0]
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := det.Classify(w); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Per-window classification cost on the emulated Amulet; MCU cycles per
// window are reported as a custom metric (the device-side cost that
// drives Table III's lifetime column).
func BenchmarkTable2_AmuletClassify(b *testing.B) {
	l := getLab(b)
	for _, v := range features.Versions {
		v := v
		b.Run(v.String(), func(b *testing.B) {
			dev := l.devs[v]
			w := l.test.Windows[0]
			b.ReportAllocs()
			b.ResetTimer()
			startCycles, startWindows := dev.TotalCycles, dev.Windows
			for i := 0; i < b.N; i++ {
				if _, err := dev.Classify(w); err != nil {
					b.Fatal(err)
				}
			}
			ran := dev.Windows - startWindows
			if ran > 0 {
				b.ReportMetric(float64(dev.TotalCycles-startCycles)/float64(ran), "MCUcycles/window")
			}
		})
	}
}

// --- Table III ------------------------------------------------------------

// BenchmarkTable3 regenerates the resource-usage table (flash, measure,
// profile) once per iteration.
func BenchmarkTable3(b *testing.B) {
	l := getLab(b)
	for i := 0; i < b.N; i++ {
		res, err := experiments.Table3(l.env, nil)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", res.Format())
		}
	}
}

// --- Figures ----------------------------------------------------------------

// BenchmarkFig1_WIoTScenario runs the full Fig 1 environment: sensors →
// MITM → base station → sink, over one 60 s live stream.
func BenchmarkFig1_WIoTScenario(b *testing.B) {
	l := getLab(b)
	live, err := physio.Generate(l.env.Subjects[0], 60, physio.DefaultSampleRate, 500)
	if err != nil {
		b.Fatal(err)
	}
	donor, err := physio.Generate(l.env.Subjects[1], 60, physio.DefaultSampleRate, 501)
	if err != nil {
		b.Fatal(err)
	}
	det := l.dets[features.Original]
	adapter := sift.HostDetector{D: det}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		half := len(live.ECG) / 2
		res, err := wiot.RunScenario(wiot.Scenario{
			Record:     live,
			Detector:   adapter,
			Attack:     &wiot.SubstitutionMITM{Donor: donor.ECG, ActiveFrom: half},
			AttackFrom: half,
		})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("Fig 1 scenario: %d windows, TP=%d FN=%d FP=%d TN=%d",
				res.Windows, res.TruePos, res.FalseNeg, res.FalsePos, res.TrueNeg)
		}
	}
}

// BenchmarkFig2_Pipeline traces the three stages of both detectors
// over Fig 2's windows, training included.
func BenchmarkFig2_Pipeline(b *testing.B) {
	l := getLab(b)
	for i := 0; i < b.N; i++ {
		trace, err := experiments.Fig2(l.env, quickSVM())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", trace)
		}
	}
}

// BenchmarkFig3_ARPView renders the resource-profiler panel.
func BenchmarkFig3_ARPView(b *testing.B) {
	l := getLab(b)
	for i := 0; i < b.N; i++ {
		view, err := experiments.Fig3(l.env)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", view)
		}
	}
}

// --- Ablations (design choices DESIGN.md calls out) -------------------------

// BenchmarkAblation_GridSize sweeps the portrait grid n (the paper fixes
// n = 50) and reports accuracy per size.
func BenchmarkAblation_GridSize(b *testing.B) {
	l := getLab(b)
	for i := 0; i < b.N; i++ {
		pts, err := experiments.SweepGrid(l.env, features.Simplified, []int{10, 50, 100}, quickSVM())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", experiments.FormatSweep("accuracy vs grid size", "n", pts))
		}
	}
}

// BenchmarkAblation_Precision quantizes features at several fixed-point
// precisions (the device uses Q16.16 → 16 fractional bits).
func BenchmarkAblation_Precision(b *testing.B) {
	l := getLab(b)
	for i := 0; i < b.N; i++ {
		pts, err := experiments.PrecisionSweep(l.env, features.Simplified, []int{4, 8, 16}, quickSVM())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", experiments.FormatSweep("accuracy vs fractional bits", "bits", pts))
		}
	}
}

// BenchmarkAblation_AdaptivePolicy compares fixed-version deployments with
// the hysteresis engine (Insight #4).
func BenchmarkAblation_AdaptivePolicy(b *testing.B) {
	tel := map[features.Version]experiments.DeviceTelemetry{}
	l := getLab(b)
	for v, dev := range l.devs {
		// Ensure at least one classification so telemetry is populated.
		if dev.Windows == 0 {
			if _, err := dev.Classify(l.test.Windows[0]); err != nil {
				b.Fatal(err)
			}
		}
		tel[v] = experiments.DeviceTelemetry{CyclesPerWindow: dev.AvgCyclesPerWindow()}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.AdaptiveStudy(tel)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", experiments.FormatAdaptive(rows))
		}
	}
}

// --- Component micro-benchmarks ---------------------------------------------

// BenchmarkFeatureExtraction isolates the FeatureExtraction stage (host).
func BenchmarkFeatureExtraction(b *testing.B) {
	l := getLab(b)
	w := l.test.Windows[0]
	for _, v := range features.Versions {
		v := v
		b.Run(v.String(), func(b *testing.B) {
			det := l.dets[v]
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := det.FeaturesOf(w); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSVMTrain measures offline training cost at the quick protocol.
func BenchmarkSVMTrain(b *testing.B) {
	l := getLab(b)
	for i := 0; i < b.N; i++ {
		if _, err := sift.TrainForSubject(l.env.TrainRecs[0], l.env.DonorsFor(0), sift.Config{
			Version: features.Simplified,
			SVM:     quickSVM(),
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSignalSynthesis measures the physiological generator (one
// minute of coupled ECG+ABP).
func BenchmarkSignalSynthesis(b *testing.B) {
	s := physio.DefaultSubject()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := physio.Generate(s, 60, physio.DefaultSampleRate, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVMThroughput measures raw interpreter speed in the fixed-point
// and software-float regimes via the two heaviest detector programs.
func BenchmarkVMThroughput(b *testing.B) {
	l := getLab(b)
	w := l.test.Windows[0]
	for _, v := range []features.Version{features.Original, features.Simplified} {
		v := v
		b.Run(v.String(), func(b *testing.B) {
			dev := l.devs[v]
			b.ResetTimer()
			start := dev.PeakUsage
			_ = start
			before := dev.TotalCycles
			beforeWin := dev.Windows
			for i := 0; i < b.N; i++ {
				if _, err := dev.Classify(w); err != nil {
					b.Fatal(err)
				}
			}
			if ran := dev.Windows - beforeWin; ran > 0 {
				b.ReportMetric(float64(dev.TotalCycles-before)/float64(ran), "MCUcycles/window")
			}
		})
	}
}

// BenchmarkFixedpointOps measures the Q16.16 primitives the Simplified
// detector leans on.
func BenchmarkFixedpointOps(b *testing.B) {
	x := fixedpoint.FromFloat(1.2345)
	y := fixedpoint.FromFloat(-0.9876)
	b.Run("Mul", func(b *testing.B) {
		var acc fixedpoint.Q
		for i := 0; i < b.N; i++ {
			acc = fixedpoint.Mul(x, y)
		}
		_ = acc
	})
	b.Run("Div", func(b *testing.B) {
		var acc fixedpoint.Q
		for i := 0; i < b.N; i++ {
			acc = fixedpoint.Div(x, y)
		}
		_ = acc
	})
	b.Run("Sqrt", func(b *testing.B) {
		var acc fixedpoint.Q
		for i := 0; i < b.N; i++ {
			acc = fixedpoint.Sqrt(x)
		}
		_ = acc
	})
	b.Run("Atan2", func(b *testing.B) {
		var acc fixedpoint.Q
		for i := 0; i < b.N; i++ {
			acc = fixedpoint.Atan2(y, x)
		}
		_ = acc
	})
}
