package main

import (
	"io"
	"reflect"
	"testing"

	"github.com/wiot-security/sift/internal/campaign"
	"github.com/wiot-security/sift/internal/features"
	"github.com/wiot-security/sift/internal/sift"
	"github.com/wiot-security/sift/internal/wiot"
)

// TestStreamSourceMatchesCampaignRecipe pins the streamed smoke to the
// campaign layer's cohort recipe: its shared detector is the one
// campaign fleet slot 0 trains at the same base seed, and every slot
// streams the same live and donor ECG as the campaign slot.
func TestStreamSourceMatchesCampaignRecipe(t *testing.T) {
	opt := fleetOptions{
		subjects: 4, workers: 1, seed: 9, trainSec: 60, liveSec: 6,
		attackAt: 3, loss: 0.02, dup: 0.01, version: features.Reduced,
	}
	src, err := streamSource(opt, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	hosts := make([]*sift.Detector, opt.subjects)
	plan, err := fleetCampaign(opt).Synthesize(campaign.WrapDetector(
		func(slot int, _ string, host *sift.Detector, d wiot.Detector) (wiot.Detector, error) {
			hosts[slot] = host
			return d, nil
		}))
	if err != nil {
		t.Fatal(err)
	}

	var shared *sift.Detector
	for i := 0; i < opt.subjects; i++ {
		seed := opt.seed + int64(i)
		got, err := src(i, seed)
		if err != nil {
			t.Fatal(err)
		}
		want, err := plan.Fleet.Source(i, seed)
		if err != nil {
			t.Fatal(err)
		}
		d := got.Detector.(sift.HostDetector).D
		if i == 0 {
			shared = d
			if !reflect.DeepEqual(d.Model, hosts[0].Model) {
				t.Fatal("shared stream detector differs from the model campaign slot 0 trains")
			}
		} else if d != shared {
			t.Fatalf("slot %d does not share the stream detector", i)
		}
		if !reflect.DeepEqual(got.Record, want.Record) {
			t.Errorf("slot %d: live recording differs from campaign slot %d", i, i)
		}
		gotDonor := got.Attack.(*wiot.SubstitutionMITM).Donor
		wantDonor := want.Attack.(*wiot.SubstitutionMITM).Donor
		if !reflect.DeepEqual(gotDonor, wantDonor) {
			t.Errorf("slot %d: donor ECG differs from campaign slot %d", i, i)
		}
		if got.AttackFrom != want.AttackFrom {
			t.Errorf("slot %d: attack starts at sample %d, campaign at %d", i, got.AttackFrom, want.AttackFrom)
		}
	}
}
