package campaign

import (
	"fmt"

	"github.com/wiot-security/sift/internal/physio"
	"github.com/wiot-security/sift/internal/sift"
)

// The cohort recipe is how every wearer in this repository is trained
// and streamed. Wearer i is subjects[i%n]. Its detector trains on the
// wearer's own signals against its two cohort neighbours i+1 and i+2 as
// donors, the paper's "altered" class of other subjects' ECG. Its live
// arm is the wearer's live recording plus the next neighbour's, whose
// ECG a SubstitutionMITM splices in. Every recording is generated at the
// caller's seed plus a fixed offset: +1/+2/+3 for the wearer and donors'
// training spans, +100/+101 for the two live spans.

// TrainWearer trains wearer index's detector on trainSec seconds of its
// own signals against its two cohort neighbours. cfg is passed to
// sift.TrainForSubject as given.
func TrainWearer(subjects []physio.Subject, index int, seed int64, trainSec float64, cfg sift.Config) (*sift.Detector, error) {
	if len(subjects) < MinFleetSubjects {
		return nil, fmt.Errorf("campaign: a cohort of %d cannot train a wearer (needs at least %d: the wearer and two donors)", len(subjects), MinFleetSubjects)
	}
	recs := make([]*physio.Record, 3)
	for k := range recs {
		var err error
		recs[k], err = physio.Generate(neighbour(subjects, index, k), trainSec, physio.DefaultSampleRate, seed+int64(k+1))
		if err != nil {
			return nil, err
		}
	}
	return sift.TrainForSubject(recs[0], recs[1:], cfg)
}

// LiveArm generates wearer index's live recording and its next cohort
// neighbour's, the donor whose ECG the substitution attack streams.
func LiveArm(subjects []physio.Subject, index int, seed int64, liveSec float64) (live, donor *physio.Record, err error) {
	if live, err = physio.Generate(neighbour(subjects, index, 0), liveSec, physio.DefaultSampleRate, seed+100); err != nil {
		return nil, nil, err
	}
	if donor, err = physio.Generate(neighbour(subjects, index, 1), liveSec, physio.DefaultSampleRate, seed+101); err != nil {
		return nil, nil, err
	}
	return live, donor, nil
}

// neighbour is the cohort member k places after wearer index.
func neighbour(subjects []physio.Subject, index, k int) physio.Subject {
	return subjects[(index+k)%len(subjects)]
}
