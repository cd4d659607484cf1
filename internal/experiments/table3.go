package experiments

import (
	"fmt"
	"strings"

	"github.com/wiot-security/sift/internal/amulet"
	"github.com/wiot-security/sift/internal/amulet/program"
	"github.com/wiot-security/sift/internal/arp"
	"github.com/wiot-security/sift/internal/dataset"
	"github.com/wiot-security/sift/internal/features"
	"github.com/wiot-security/sift/internal/physio"
	"github.com/wiot-security/sift/internal/svm"
)

// Table3Row is one row block of the paper's Table III.
type Table3Row struct {
	Version         features.Version
	CyclesPerWindow float64 // measured device cycles per classified window, the Report's energy input
	Report          arp.Report
}

// Table3Result is the full Table III reproduction.
type Table3Result struct {
	Rows []Table3Row
}

// Table3 measures each version's resource usage: the detector program is
// assembled and flashed, exercised on real windows to measure cycles and
// peak SRAM, then profiled with the ARP memory and energy models. When
// telemetry from a prior Table2 run is provided it is reused; otherwise a
// short measurement run is performed here.
func Table3(env *Env, telemetry map[features.Version]DeviceTelemetry) (*Table3Result, error) {
	mem := arp.DefaultMemoryModel()
	energy := arp.DefaultEnergyModel()
	res := &Table3Result{}

	for _, v := range features.Versions {
		tel, ok := telemetry[v]
		if !ok {
			var err error
			tel, err = measureVersion(env, v)
			if err != nil {
				return nil, fmt.Errorf("experiments: measure %v: %w", v, err)
			}
		}
		p, err := program.Build(v)
		if err != nil {
			return nil, err
		}
		usage := amulet.Usage{MaxStack: 0, MaxLocals: 0}
		prof, err := arp.ProfileDetector(p, usage, tel.CyclesPerWindow, dataset.WindowSec,
			tel.ModelConstBytes, v != features.Reduced)
		if err != nil {
			return nil, err
		}
		prof.DetectorSRAMBytes = tel.PeakSRAMBytes
		rep, err := arp.BuildReport(prof, mem, energy, amulet.DefaultSystemSRAM)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, Table3Row{Version: v, CyclesPerWindow: tel.CyclesPerWindow, Report: rep})
	}
	return res, nil
}

// measureVersion flashes the version and classifies a handful of windows
// from the first subject to collect cycle and SRAM telemetry.
func measureVersion(env *Env, v features.Version) (DeviceTelemetry, error) {
	wins, err := dataset.FromRecord(env.TestRecs[0], dataset.WindowSec)
	if err != nil {
		return DeviceTelemetry{}, err
	}
	if len(wins) > 5 {
		wins = wins[:5]
	}
	dev, err := program.NewDeviceDetector(v, nil, svm.UnitModel(v.Dim()))
	if err != nil {
		return DeviceTelemetry{}, err
	}
	if env.Telemetry != nil {
		dev.Telemetry = env.Telemetry.Device("arp/" + v.String())
		dev.Energy = arp.NewAccounting(arp.DefaultEnergyModel(), dataset.WindowSec)
	}
	for _, w := range wins {
		if _, err := dev.Classify(w); err != nil {
			return DeviceTelemetry{}, err
		}
	}
	return DeviceTelemetry{
		CyclesPerWindow: dev.AvgCyclesPerWindow(),
		PeakSRAMBytes:   dev.PeakUsage.SRAMBytes(),
		ModelConstBytes: 4 * (1 + 3*v.Dim()),
	}, nil
}

// Format renders the result in the paper's Table III layout.
func (r *Table3Result) Format() string {
	var sb strings.Builder
	sb.WriteString("TABLE III: Resource Usage of Three Versions of Detector\n")
	for _, row := range r.Rows {
		rep := row.Report
		sb.WriteString(fmt.Sprintf("%-11s Memory Use (FRAM)   %6.2f KB(system) + %5.2f KB(detector)\n",
			row.Version, float64(rep.SystemFRAM)/1024, float64(rep.DetectorFRAM)/1024))
		sb.WriteString(fmt.Sprintf("%-11s Max Ram Use (SRAM)  %6d B(system) + %5d B(detector)\n",
			"", rep.SystemSRAM, rep.DetectorSRAM))
		sb.WriteString(fmt.Sprintf("%-11s Expected Lifetime   %6.0f days\n", "", rep.LifetimeDays))
	}
	return sb.String()
}

// CycleModel measures the detector's cycles-per-window on rec at several
// window lengths and fits cycles(w) = fixed + perSecond·w, so ARP-view's
// window slider reflects the real split between the per-window fixed
// overhead (matrix zeroing, grid statistics) and the per-sample work.
func CycleModel(rec *physio.Record, v features.Version) (func(wSec float64) float64, error) {
	q := svm.UnitModel(v.Dim())
	var ws, cs []float64
	for _, w := range []float64{1, 2, 3} {
		wins, err := dataset.FromRecord(rec, w)
		if err != nil {
			return nil, err
		}
		if len(wins) > 4 {
			wins = wins[:4]
		}
		dev, err := program.NewDeviceDetector(v, nil, q)
		if err != nil {
			return nil, err
		}
		for _, win := range wins {
			if _, err := dev.Classify(win); err != nil {
				return nil, err
			}
		}
		ws = append(ws, w)
		cs = append(cs, dev.AvgCyclesPerWindow())
	}
	// Least-squares line through the measurements.
	n := float64(len(ws))
	var sw, sc, sww, swc float64
	for i := range ws {
		sw += ws[i]
		sc += cs[i]
		sww += ws[i] * ws[i]
		swc += ws[i] * cs[i]
	}
	slope := (n*swc - sw*sc) / (n*sww - sw*sw)
	fixed := (sc - slope*sw) / n
	return func(w float64) float64 {
		c := fixed + slope*w
		if c < 0 {
			return 0
		}
		return c
	}, nil
}

// Fig3 renders the ARP-view snapshot for the Original detector app.
func Fig3(env *Env) (string, error) {
	tel, err := measureVersion(env, features.Original)
	if err != nil {
		return "", err
	}
	p, err := program.Build(features.Original)
	if err != nil {
		return "", err
	}
	prof, err := arp.ProfileDetector(p, amulet.Usage{}, tel.CyclesPerWindow, dataset.WindowSec,
		tel.ModelConstBytes, true)
	if err != nil {
		return "", err
	}
	prof.DetectorSRAMBytes = tel.PeakSRAMBytes
	rep, err := arp.BuildReport(prof, arp.DefaultMemoryModel(), arp.DefaultEnergyModel(), amulet.DefaultSystemSRAM)
	if err != nil {
		return "", err
	}
	cyclesAt, err := CycleModel(env.TestRecs[0], features.Original)
	if err != nil {
		return "", err
	}
	return arp.RenderView(rep, arp.DefaultEnergyModel(), tel.CyclesPerWindow, cyclesAt), nil
}
