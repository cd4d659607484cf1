package experiments

import (
	"fmt"
	"strings"

	"github.com/wiot-security/sift/internal/amulet/program"
	"github.com/wiot-security/sift/internal/dataset"
	"github.com/wiot-security/sift/internal/features"
	"github.com/wiot-security/sift/internal/sift"
	"github.com/wiot-security/sift/internal/svm"
)

// fig2Windows is how many of the first subject's test windows Fig 2
// traces.
const fig2Windows = 3

// Fig2 traces the paper's three stages (PeaksDataCheck →
// FeatureExtraction → MLClassifier) on the first subject's first test
// windows, through the two detectors verdicts come from: the host
// sift.Detector and, flashed with its quantized model, the device
// program.DeviceDetector.
func Fig2(env *Env, svmCfg svm.Config) (string, error) {
	det, err := sift.TrainForSubject(env.TrainRecs[0], env.DonorsFor(0), sift.Config{
		Version: features.Original,
		SVM:     svmCfg,
	})
	if err != nil {
		return "", err
	}
	q, err := det.Quantize()
	if err != nil {
		return "", err
	}
	dev, err := program.NewDeviceDetector(det.Version, nil, q)
	if err != nil {
		return "", err
	}
	wins, err := dataset.FromRecord(env.TestRecs[0], dataset.WindowSec)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	b.WriteString("Fig 2: SIFT pipeline, stage by stage (PeaksDataCheck → FeatureExtraction → MLClassifier)\n")
	fmt.Fprintf(&b, "%s detector of subject %s: host float64, device Amulet VM with the Q16.16 model\n",
		det.Version, det.SubjectID)
	for _, w := range wins[:min(fig2Windows, len(wins))] {
		if err := traceWindow(&b, det, dev, w); err != nil {
			return "", err
		}
	}
	return b.String(), nil
}

// traceWindow classifies w on both detectors and prints what each stage
// of each returned.
func traceWindow(b *strings.Builder, det *sift.Detector, dev *program.DeviceDetector, w dataset.Window) error {
	host, err := det.Classify(w)
	if err != nil {
		return err
	}
	var hostFeat []float64
	flagged := det.FailsPeakCheck(w)
	if !flagged {
		if hostFeat, err = det.FeaturesOf(w); err != nil {
			return err
		}
	}
	before := dev.TotalCycles
	out, err := dev.Classify(w)
	if err != nil && !out.Rejected {
		return err
	}
	cycles := dev.TotalCycles - before

	devVerdict := verdict(out.Altered)
	if out.Rejected {
		devVerdict = "rejected"
	}

	fmt.Fprintf(b, "window %d:\n", w.Index)
	fmt.Fprintf(b, "  PeaksDataCheck     host   %d R peaks, %d systolic peaks, sanity rule fired: %v\n",
		len(w.RPeaks), len(w.SysPeaks), flagged)
	fmt.Fprintf(b, "                     device header rejected: %v\n", out.Rejected)
	fmt.Fprintf(b, "  FeatureExtraction  %-32s %10s %10s\n", "", "host", "device")
	for i, name := range det.Version.Names() {
		h := "-"
		if hostFeat != nil {
			h = fmt.Sprintf("%.4f", hostFeat[i])
		}
		fmt.Fprintf(b, "    %-49s %10s %10.4f\n", name, h, out.Features[i])
	}
	fmt.Fprintf(b, "  MLClassifier       host   margin %+.3f → %s\n", host.Margin, verdict(host.Altered))
	fmt.Fprintf(b, "                     device margin %+.4f (Q16.16) → %s, %d cycles\n",
		out.Margin.Float(), devVerdict, cycles)
	return nil
}

func verdict(altered bool) string {
	if altered {
		return "altered"
	}
	return "genuine"
}
