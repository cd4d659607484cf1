package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"time"

	"github.com/wiot-security/sift/internal/campaign"
	"github.com/wiot-security/sift/internal/fleet"
	"github.com/wiot-security/sift/internal/fleet/shard"
	"github.com/wiot-security/sift/internal/obs"
	"github.com/wiot-security/sift/internal/physio"
	"github.com/wiot-security/sift/internal/sift"
	"github.com/wiot-security/sift/internal/svm"
	"github.com/wiot-security/sift/internal/wiot"
)

// streamProfiles bounds the distinct physiology profiles a streamed run
// cycles through. Wearer i reuses profile i%streamProfiles but streams
// its own seeded recording, so a million-wearer cohort costs 64
// profiles of setup while every slot still sees unique signals.
const streamProfiles = 64

// runStreamFleet is the bounded-memory smoke path: one detector is
// trained up front and shared read-only by every station worker, each
// wearer streams a short seeded recording with a mid-stream MITM, and
// the sharded control plane aggregates with per-subject tracking off.
// A background heap-watermark sampler measures the run; the cohort size
// should not move the peak, and -max-heap-mib turns that claim into a
// hard failure. The digest line at the end is canonical: it must be
// byte-identical for any -shards/-workers split of the same cohort.
func runStreamFleet(opt fleetOptions) error {
	src, err := streamSource(opt, os.Stdout)
	if err != nil {
		return err
	}

	hw := obs.StartHeapWatermark(50 * time.Millisecond)
	reg := wiot.NewStationRegistry()
	start := time.Now()
	res, err := shard.Run(context.Background(), shard.Config{
		Scenarios: opt.subjects,
		Shards:    opt.shards,
		Workers:   opt.workers,
		BaseSeed:  opt.seed,
		Source:    src,
		Stream:    true,
		Registry:  reg,
	})
	peak := hw.Stop()
	if err != nil {
		return err
	}
	elapsed := time.Since(start).Round(time.Millisecond)

	fmt.Printf("\nstations:\n%s", reg)
	fmt.Printf("\n%s", res)
	fmt.Printf("\nmerged metrics after %v:\n%s", elapsed, res.MergedMetrics())
	// The digest is the shard-invariance fingerprint: identical inputs
	// must print an identical line for every -shards/-workers split.
	fmt.Printf("\ndigest: scenarios=%d completed=%d failed=%d skipped=%d windows=%d tp=%d fn=%d fp=%d tn=%d seqerr=%d\n",
		res.Scenarios, res.Completed, res.Failed, res.Skipped,
		res.Windows, res.TruePos, res.FalseNeg, res.FalsePos, res.TrueNeg, res.SeqErrors)
	fmt.Printf("heap peak: %.1f MiB across %d wearers\n", float64(peak)/(1<<20), opt.subjects)
	if opt.maxHeapMiB > 0 && peak > uint64(opt.maxHeapMiB)<<20 {
		return fmt.Errorf("heap peak %.1f MiB exceeds the -max-heap-mib %d bound: streamed aggregation is supposed to be cohort-size-invariant",
			float64(peak)/(1<<20), opt.maxHeapMiB)
	}
	return res.Err()
}

// streamSource builds the streamed cohort over at most streamProfiles
// physiology profiles: the cohort recipe's wearer 0 trains one detector
// at the base seed, shared by every slot, and slot i streams wearer i's
// live arm at its slot seed. Progress lines go to w.
func streamSource(opt fleetOptions, w io.Writer) (fleet.Source, error) {
	if opt.subjects < campaign.MinFleetSubjects {
		return nil, fmt.Errorf("-fleet %d: the streamed smoke needs at least %d wearers (the shared detector trains against two other profiles as donors)", opt.subjects, campaign.MinFleetSubjects)
	}
	profiles := min(opt.subjects, streamProfiles)
	subjects, err := physio.Cohort(profiles, opt.seed)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "stream: %d wearers over %d profiles, %d station(s) x %d worker(s), %.0f s per wearer\n",
		opt.subjects, profiles, opt.shards, opt.workers, opt.liveSec)
	fmt.Fprintf(w, "training one shared %s detector on %.0f s of %s's signals...\n",
		opt.version, opt.trainSec, subjects[0].ID)
	trainStart := time.Now()
	det, err := campaign.TrainWearer(subjects, 0, opt.seed, opt.trainSec, sift.Config{
		Version: opt.version,
		SVM:     svm.Config{Seed: opt.seed, MaxIter: 150},
	})
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "trained in %v (%d support vectors)\n", time.Since(trainStart).Round(time.Millisecond), det.Model.SupportVectors)

	return func(index int, seed int64) (wiot.Scenario, error) {
		live, donorLive, err := campaign.LiveArm(subjects, index, seed, opt.liveSec)
		if err != nil {
			return wiot.Scenario{}, err
		}
		attackFrom := int(opt.attackAt * live.SampleRate)
		return wiot.Scenario{
			Record:     live,
			Detector:   sift.HostDetector{D: det},
			Attack:     &wiot.SubstitutionMITM{Donor: donorLive.ECG, ActiveFrom: attackFrom},
			AttackFrom: attackFrom,
			Channel:    wiot.Reliable{},
		}, nil
	}, nil
}
