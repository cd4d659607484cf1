package campaign

import (
	"github.com/wiot-security/sift/internal/adaptive"
	"github.com/wiot-security/sift/internal/amulet/program"
	"github.com/wiot-security/sift/internal/arp"
	"github.com/wiot-security/sift/internal/dataset"
	"github.com/wiot-security/sift/internal/features"
	"github.com/wiot-security/sift/internal/physio"
	"github.com/wiot-security/sift/internal/svm"
)

// VersionCost is one detector version's measured per-window cost on the
// emulated Amulet — the adaptive engine's dynamic-constraint input.
type VersionCost struct {
	Version         string
	CyclesPerWindow float64
	FRAMBytes       int
}

// DecileRow is one battery-decile snapshot of the discharge simulation.
type DecileRow struct {
	Day         float64
	BatteryFrac float64
	Version     string
}

// VersionWindows tallies how many windows one version classified over
// the whole discharge.
type VersionWindows struct {
	Version string
	Windows int
}

// AdaptiveOutcome is the verdict set of an adaptive campaign: the cost
// profile, the discharge trajectory, and the lifetime totals.
type AdaptiveOutcome struct {
	Profiles  []VersionCost
	Deciles   []DecileRow
	ElapsedHr float64
	Switches  int
	Windows   []VersionWindows
}

// runAdaptive executes an adaptive campaign: measure each version's real
// per-window cycle cost on the emulated device, then simulate a full
// battery discharge with the hysteresis policy switching versions as
// energy drains. The construction replicates the pre-migration
// examples/adaptivesecurity imperative path exactly (default subject,
// live record seeded from BaseSeed) so declared and legacy runs are
// byte-identical.
func (c Campaign) runAdaptive() (*AdaptiveOutcome, error) {
	rec, err := physio.Generate(physio.DefaultSubject(), c.Cohort.LiveSec, physio.DefaultSampleRate, c.Cohort.BaseSeed)
	if err != nil {
		return nil, err
	}
	wins, err := dataset.FromRecord(rec, dataset.WindowSec)
	if err != nil {
		return nil, err
	}

	out := &AdaptiveOutcome{}
	profiles := make([]adaptive.VersionProfile, 0, len(features.Versions))
	for _, v := range features.Versions {
		dev, err := program.NewDeviceDetector(v, nil, svm.UnitModel(v.Dim()))
		if err != nil {
			return nil, err
		}
		for _, w := range wins {
			if _, err := dev.Classify(w); err != nil {
				return nil, err
			}
		}
		out.Profiles = append(out.Profiles, VersionCost{
			Version:         v.String(),
			CyclesPerWindow: dev.AvgCyclesPerWindow(),
			FRAMBytes:       dev.Program().FootprintBytes(),
		})
		profiles = append(profiles, adaptive.VersionProfile{
			Version:         v,
			CyclesPerWindow: dev.AvgCyclesPerWindow(),
			DetectorFRAM:    dev.Program().FootprintBytes(),
			NeedsSoftFloat:  v == features.Original,
			NeedsFixMath:    v != features.Original,
		})
	}

	caps := adaptive.StaticConstraints{HasSoftFloat: true, HasFixMath: true}
	engine, err := adaptive.NewEngine(profiles, caps, adaptive.HysteresisPolicy{}, arp.DefaultEnergyModel(), dataset.WindowSec)
	if err != nil {
		return nil, err
	}
	lastDecile := 11
	for {
		alive, err := engine.Step(adaptive.ResourceState{BatteryFrac: engine.BatteryFrac(), CPUBudget: 1})
		if err != nil {
			return nil, err
		}
		if decile := int(engine.BatteryFrac() * 10); decile < lastDecile {
			lastDecile = decile
			out.Deciles = append(out.Deciles, DecileRow{
				Day:         engine.ElapsedHr / 24,
				BatteryFrac: engine.BatteryFrac(),
				Version:     engine.Current().String(),
			})
		}
		if !alive {
			break
		}
	}
	out.ElapsedHr = engine.ElapsedHr
	out.Switches = engine.Switches
	for _, v := range features.Versions {
		out.Windows = append(out.Windows, VersionWindows{Version: v.String(), Windows: engine.Windows[v]})
	}
	return out, nil
}
