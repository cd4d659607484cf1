package bench

import (
	"context"
	"errors"
	"net"
	"testing"
	"time"

	"github.com/wiot-security/sift/internal/amulet"
	"github.com/wiot-security/sift/internal/amulet/program"
	"github.com/wiot-security/sift/internal/dataset"
	"github.com/wiot-security/sift/internal/features"
	"github.com/wiot-security/sift/internal/peaks"
	"github.com/wiot-security/sift/internal/physio"
	"github.com/wiot-security/sift/internal/sift"
	"github.com/wiot-security/sift/internal/svm"
	"github.com/wiot-security/sift/internal/wiot"
)

// deviceBackedDetector plugs the emulated Amulet into the WIoT base
// station: every window the station assembles is classified by the
// flashed fixed-point firmware, exactly as deployed hardware would.
type deviceBackedDetector struct {
	dev *program.DeviceDetector
}

func (d deviceBackedDetector) Classify(w dataset.Window) (bool, error) {
	out, err := d.dev.Classify(w)
	if err != nil {
		return false, err
	}
	return out.Altered, nil
}

// TestEndToEndFirmwareOverTCP is the whole-system test: offline training,
// model serialization, quantization, firmware imaging and flashing, then
// live sensors streaming over real TCP sockets through a MITM into a base
// station whose classifier is the emulated device running that firmware.
func TestEndToEndFirmwareOverTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end test is slow")
	}

	// 1. Cohort and offline training.
	subjects, err := physio.Cohort(3, 2026)
	if err != nil {
		t.Fatal(err)
	}
	gen := func(s physio.Subject, dur float64, seed int64) *physio.Record {
		rec, err := physio.Generate(s, dur, physio.DefaultSampleRate, seed)
		if err != nil {
			t.Fatal(err)
		}
		return rec
	}
	trainRec := gen(subjects[0], 120, 1)
	donors := []*physio.Record{gen(subjects[1], 120, 2), gen(subjects[2], 120, 3)}
	det, err := sift.TrainForSubject(trainRec, donors, sift.Config{
		Version: features.Simplified,
		SVM:     svm.Config{Seed: 9, MaxIter: 100},
	})
	if err != nil {
		t.Fatal(err)
	}

	// 2. The model survives serialization (what a provisioning service
	// would store and ship).
	blob, err := det.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	det2, err := sift.Unmarshal(blob)
	if err != nil {
		t.Fatal(err)
	}

	// 3. Quantize and flash: firmware image → fresh device.
	q, err := det2.Quantize()
	if err != nil {
		t.Fatal(err)
	}
	staging, err := program.NewDeviceDetector(features.Simplified, nil, q)
	if err != nil {
		t.Fatal(err)
	}
	img, err := amulet.EncodeImage(staging.Program())
	if err != nil {
		t.Fatal(err)
	}
	field := amulet.NewDevice()
	if _, err := field.Flash(img); err != nil {
		t.Fatal(err)
	}
	fieldDet, err := program.NewDeviceDetector(features.Simplified, field, q)
	if err != nil {
		t.Fatal(err)
	}

	// 4. Base station over TCP, classifier = the flashed device.
	sink := &wiot.MemorySink{}
	station, err := wiot.NewBaseStation(wiot.StationConfig{
		SubjectID:  trainRec.SubjectID,
		SampleRate: physio.DefaultSampleRate,
		Detector:   deviceBackedDetector{fieldDet},
		Sink:       sink,
	})
	if err != nil {
		t.Fatal(err)
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv, err := wiot.ServeTCP(context.Background(), lis, station)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// 5. Live stream with a MITM hijacking the ECG for the second half.
	live := gen(subjects[0], 60, 100)
	donorLive := gen(subjects[1], 60, 101)
	attackFrom := len(live.ECG) / 2
	mitm := &wiot.SubstitutionMITM{Donor: donorLive.ECG, ActiveFrom: attackFrom}

	stream := func(id wiot.SensorID, icpt wiot.Interceptor) error {
		out, err := wiot.NewReconnectSink(wiot.ReconnectConfig{Addr: lis.Addr().String(), Seed: int64(id)})
		if err != nil {
			return err
		}
		sensor, err := wiot.NewSensor(id, live, 90)
		if err != nil {
			return errors.Join(err, out.Close())
		}
		for {
			f, ok := sensor.Next()
			if !ok {
				// Close returns once the station has acked every frame.
				return out.Close()
			}
			if err := out.HandleFrame(icpt.Intercept(f)); err != nil {
				return errors.Join(err, out.Close())
			}
		}
	}
	errc := make(chan error, 2)
	go func() { errc <- stream(wiot.SensorECG, mitm) }()
	go func() { errc <- stream(wiot.SensorABP, wiot.PassThrough{}) }()
	for i := 0; i < 2; i++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(20 * time.Second)
	for station.Stats().Windows < 20 && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}

	// 6. Score the alerts against the attack interval.
	alerts := sink.Alerts()
	if len(alerts) != 20 {
		t.Fatalf("alerts = %d, want 20 (errors: %v)", len(alerts), srv.Errors())
	}
	var tp, fn, fp, tn int
	for _, a := range alerts {
		attacked := a.WindowIndex >= 10 // attack starts at t = 30 s = window 10
		switch {
		case attacked && a.Altered:
			tp++
		case attacked && !a.Altered:
			fn++
		case !attacked && a.Altered:
			fp++
		default:
			tn++
		}
	}
	if recall := float64(tp) / float64(tp+fn); recall < 0.6 {
		t.Errorf("device-backed recall = %.2f (TP %d FN %d)", recall, tp, fn)
	}
	if fp > 3 {
		t.Errorf("device-backed false positives = %d, want <= 3", fp)
	}

	// 7. Cross-check: the host reference agrees with the flashed device
	// on a fresh window set.
	wins, err := dataset.FromRecord(gen(subjects[0], 15, 200), dataset.WindowSec)
	if err != nil {
		t.Fatal(err)
	}
	agree := 0
	for _, w := range wins {
		hostRes, err := det.Classify(w)
		if err != nil {
			t.Fatal(err)
		}
		devRes, err := fieldDet.Classify(w)
		if err != nil {
			t.Fatal(err)
		}
		if hostRes.Altered == devRes.Altered {
			agree++
		}
	}
	if agree < len(wins)-1 {
		t.Errorf("host/device agreement %d/%d", agree, len(wins))
	}
}

// TestEndToEndOnDevicePeakPipeline runs the fully-on-device path: the
// bytecode R-peak detector feeds the bytecode classifier, no ground truth
// anywhere.
func TestEndToEndOnDevicePeakPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end test is slow")
	}
	subjects, err := physio.Cohort(2, 31)
	if err != nil {
		t.Fatal(err)
	}
	trainRec, err := physio.Generate(subjects[0], 120, physio.DefaultSampleRate, 1)
	if err != nil {
		t.Fatal(err)
	}
	donor, err := physio.Generate(subjects[1], 120, physio.DefaultSampleRate, 2)
	if err != nil {
		t.Fatal(err)
	}
	det, err := sift.TrainForSubject(trainRec, []*physio.Record{donor}, sift.Config{
		Version: features.Reduced,
		SVM:     svm.Config{Seed: 4, MaxIter: 100},
	})
	if err != nil {
		t.Fatal(err)
	}
	q, err := det.Quantize()
	if err != nil {
		t.Fatal(err)
	}
	dev := amulet.NewDevice()
	devDet, err := program.NewDeviceDetector(features.Reduced, dev, q)
	if err != nil {
		t.Fatal(err)
	}

	live, err := physio.Generate(subjects[0], 30, physio.DefaultSampleRate, 300)
	if err != nil {
		t.Fatal(err)
	}
	wins, err := dataset.FromRecord(live, dataset.WindowSec)
	if err != nil {
		t.Fatal(err)
	}
	clean := 0
	for _, w := range wins {
		// On-device peak detection replaces the generator ground truth;
		// the trusted ABP systolic peaks come from the host detector (the
		// ABP channel is not attacker-controlled).
		rp, _, err := program.DetectRPeaksOnDevice(dev, w.ECG)
		if err != nil {
			t.Fatal(err)
		}
		sp, err := peaks.DetectSystolic(w.ABP, live.SampleRate)
		if err != nil {
			t.Fatal(err)
		}
		w.RPeaks = rp
		w.SysPeaks = sp
		w.Pairs = peaks.Pair(rp, sp, int(dataset.MaxPairLagSec*live.SampleRate))
		out, err := devDet.Classify(w)
		if err != nil {
			t.Fatal(err)
		}
		if !out.Altered {
			clean++
		}
	}
	if spec := float64(clean) / float64(len(wins)); spec < 0.7 {
		t.Errorf("fully-on-device specificity = %.2f on genuine data", spec)
	}
}
