package main

import (
	"fmt"

	"github.com/wiot-security/sift/internal/amulet/program"
	"github.com/wiot-security/sift/internal/dataset"
	"github.com/wiot-security/sift/internal/features"
	"github.com/wiot-security/sift/internal/physio"
	"github.com/wiot-security/sift/internal/sift"
	"github.com/wiot-security/sift/internal/svm"
	"github.com/wiot-security/sift/internal/wiot"
)

// The cohort every workload streams. The recipe is the campaign layer's
// fleet recipe: wearer i trains on its own data against its two cohort
// neighbours, with generation seeds at fixed offsets from the slot seed
// (seed + i), then streams live with a substitution MITM from mid-stream.
const (
	cohortSize    = 8
	trainSec      = 300.0
	liveSec       = 120.0 // 40 windows of 3 s
	attackFromSec = 60.0
	lossProb      = 0.02
	dupProb       = 0.01
	svmMaxIter    = 150
)

var detectorVersion = features.Original

// wearer is one cohort member's trained state and live recordings.
type wearer struct {
	live      *physio.Record
	donorLive *physio.Record
	host      *sift.Detector
	device    *program.DeviceDetector // nil unless the workload runs on the device
}

// cohort is the set-up product every timed fleet run draws from.
type cohort struct {
	seed    int64
	wearers []wearer
}

// setupCost is the CPU time one set-up spent in each layer.
type setupCost struct {
	total, generate, train, install float64
}

func (c *setupCost) add(o setupCost, rate float64) {
	c.total += atReference(o.total, rate)
	c.generate += atReference(o.generate, rate)
	c.train += atReference(o.train, rate)
	c.install += atReference(o.install, rate)
}

// buildCohort synthesizes and trains the cohort, and, when onDevice is
// set, quantizes each detector and flashes it (verify + JIT compile)
// onto its own emulated Amulet. Each wearer's set-up is bracketed by
// calibrations, and its CPU time is counted at the reference speed.
func buildCohort(seed int64, onDevice bool, cal *calibrator) (*cohort, setupCost, error) {
	var cost setupCost
	rate := cal.rate()
	start, spent := cpuSeconds(), cal.spentCPU
	subjects, err := physio.Cohort(cohortSize, seed)
	if err != nil {
		return nil, cost, err
	}
	c := &cohort{seed: seed, wearers: make([]wearer, cohortSize)}
	for i := range c.wearers {
		var part setupCost
		if err := c.buildWearer(i, subjects, onDevice, &part); err != nil {
			return nil, cost, err
		}
		// The span runs to the end of the next calibration, so collection
		// work still running then is charged to this wearer; the kernel's
		// own CPU time is taken out.
		after := cal.rate()
		now := cpuSeconds()
		part.total = now - start - (cal.spentCPU - spent)
		cost.add(part, (rate+after)/2)
		rate, start, spent = after, now, cal.spentCPU
	}
	return c, cost, nil
}

// buildWearer generates wearer i's recordings and trains its detector,
// adding the CPU time of each layer to cost.
func (c *cohort) buildWearer(i int, subjects []physio.Subject, onDevice bool, cost *setupCost) error {
	slotSeed := c.seed + int64(i)
	gen := func(s physio.Subject, dur float64, offset int64) (*physio.Record, error) {
		t0 := cpuSeconds()
		defer func() { cost.generate += cpuSeconds() - t0 }()
		return physio.Generate(s, dur, physio.DefaultSampleRate, slotSeed+offset)
	}
	neighbour := func(k int) physio.Subject { return subjects[(i+k)%len(subjects)] }
	trainRec, err := gen(subjects[i], trainSec, 1)
	if err != nil {
		return err
	}
	donorA, err := gen(neighbour(1), trainSec, 2)
	if err != nil {
		return err
	}
	donorB, err := gen(neighbour(2), trainSec, 3)
	if err != nil {
		return err
	}
	w := &c.wearers[i]
	if w.live, err = gen(subjects[i], liveSec, 100); err != nil {
		return err
	}
	if w.donorLive, err = gen(neighbour(1), liveSec, 101); err != nil {
		return err
	}

	t0 := cpuSeconds()
	w.host, err = sift.TrainForSubject(trainRec, []*physio.Record{donorA, donorB}, sift.Config{
		Version: detectorVersion,
		SVM:     svm.Config{Seed: slotSeed, MaxIter: svmMaxIter},
	})
	cost.train += cpuSeconds() - t0
	if err != nil {
		return fmt.Errorf("train wearer %d: %w", i, err)
	}
	if !onDevice {
		return nil
	}
	t0 = cpuSeconds()
	defer func() { cost.install += cpuSeconds() - t0 }()
	q, err := w.host.Quantize()
	if err != nil {
		return fmt.Errorf("quantize wearer %d: %w", i, err)
	}
	if w.device, err = program.NewDeviceDetector(detectorVersion, nil, q); err != nil {
		return fmt.Errorf("flash wearer %d: %w", i, err)
	}
	return nil
}

// scenario builds wearer i's live scenario afresh. Everything stateful
// (the lossy channel's rng, the MITM's stream position) is new on every
// call, so every fleet run over the cohort replays identical inputs.
func (c *cohort) scenario(i int, seed int64, channel channelKind, det wiot.Detector) (wiot.Scenario, error) {
	w := &c.wearers[i]
	var ch wiot.ChannelEffect = wiot.Reliable{}
	if channel == channelLossy {
		l, err := wiot.NewLossy(lossProb, dupProb, seed)
		if err != nil {
			return wiot.Scenario{}, err
		}
		ch = l
	}
	from := int(attackFromSec * w.live.SampleRate)
	return wiot.Scenario{
		Record:     w.live,
		Detector:   det,
		Channel:    ch,
		Attack:     &wiot.SubstitutionMITM{Donor: w.donorLive.ECG, ActiveFrom: from},
		AttackFrom: from,
	}, nil
}

// hostVerdict adapts the float64 SIFT detector to the station.
type hostVerdict struct{ d *sift.Detector }

func (h hostVerdict) Classify(w dataset.Window) (bool, error) {
	r, err := h.d.Classify(w)
	return r.Altered, err
}

// deviceVerdict adapts the flashed device detector to the station.
type deviceVerdict struct{ d *program.DeviceDetector }

func (d deviceVerdict) Classify(w dataset.Window) (bool, error) {
	out, err := d.d.Classify(w)
	return out.Altered, err
}
