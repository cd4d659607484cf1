// WIoT over the network: the base station listens on a TCP socket, the
// ECG and ABP sensors dial in from separate goroutines and stream binary
// frames, and a man-in-the-middle on the ECG connection substitutes a
// donor's heartbeat halfway through — the full Fig 1 topology on the
// loopback interface.
//
// The wire is deliberately hostile: a chaos proxy corrupts ~5% of frames
// and occasionally severs a connection mid-frame. The sensors stream
// through reconnecting sinks and every wire record carries a checksum,
// so the detector still sees every sample exactly once.
package main

import (
	"context"
	"fmt"
	"log"
	"net"
	"time"

	"github.com/wiot-security/sift/internal/features"
	"github.com/wiot-security/sift/internal/physio"
	"github.com/wiot-security/sift/internal/sift"
	"github.com/wiot-security/sift/internal/svm"
	"github.com/wiot-security/sift/internal/wiot"
	"github.com/wiot-security/sift/internal/wiot/chaos"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	subjects, err := physio.Cohort(2, 33)
	if err != nil {
		return err
	}
	gen := func(s physio.Subject, dur float64, seed int64) (*physio.Record, error) {
		return physio.Generate(s, dur, physio.DefaultSampleRate, seed)
	}
	trainRec, err := gen(subjects[0], 240, 1)
	if err != nil {
		return err
	}
	donorRec, err := gen(subjects[1], 240, 2)
	if err != nil {
		return err
	}
	fmt.Println("training detector for", subjects[0].ID, "...")
	det, err := sift.TrainForSubject(trainRec, []*physio.Record{donorRec}, sift.Config{
		Version: features.Simplified,
		SVM:     svm.Config{Seed: 9, MaxIter: 150},
	})
	if err != nil {
		return err
	}

	// Base station: TCP listener + the sink-side statistics store.
	sink := wiot.NewStatsSink()
	station, err := wiot.NewBaseStation(wiot.StationConfig{
		SubjectID:            subjects[0].ID,
		SampleRate:           physio.DefaultSampleRate,
		Detector:             sift.HostDetector{D: det},
		Sink:                 sink,
		DetectPeaksAtRuntime: true,
	})
	if err != nil {
		return err
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	addr := lis.Addr().String()
	// Every sensor byte crosses this fault injector before the station
	// sees it.
	faulty := chaos.Wrap(lis, chaos.Config{Seed: 7, CorruptProb: 0.05, CutProb: 0.02})
	srv, err := wiot.ServeTCP(context.Background(), faulty, station)
	if err != nil {
		return err
	}
	defer func() { _ = srv.Close() }()
	fmt.Println("base station listening on", addr, "(chaos: 5% corruption, 2% mid-frame cuts)")

	// Live signals: 60 s; the MITM hijacks the ECG wire at t = 30 s.
	live, err := gen(subjects[0], 60, 100)
	if err != nil {
		return err
	}
	donorLive, err := gen(subjects[1], 60, 101)
	if err != nil {
		return err
	}
	attackFrom := int(30 * live.SampleRate)
	mitm := &wiot.SubstitutionMITM{Donor: donorLive.ECG, ActiveFrom: attackFrom}

	stream := func(id wiot.SensorID, intercept wiot.Interceptor, seed int64) error {
		out, err := wiot.NewReconnectSink(wiot.ReconnectConfig{Addr: addr, Seed: seed})
		if err != nil {
			return err
		}
		sensor, err := wiot.NewSensor(id, live, 90)
		if err != nil {
			_ = out.Close()
			return err
		}
		for {
			f, ok := sensor.Next()
			if !ok {
				// Close blocks until every buffered frame is acknowledged
				// (or the drain deadline passes).
				return out.Close()
			}
			if err := out.HandleFrame(intercept.Intercept(f)); err != nil {
				_ = out.Close()
				return err
			}
		}
	}

	errc := make(chan error, 2)
	go func() { errc <- stream(wiot.SensorECG, mitm, 1) }()
	go func() { errc <- stream(wiot.SensorABP, wiot.PassThrough{}, 2) }()
	for i := 0; i < 2; i++ {
		if err := <-errc; err != nil {
			return err
		}
	}

	// Let the station drain, then report.
	deadline := time.Now().Add(10 * time.Second)
	for station.Stats().Windows < 20 && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	fmt.Printf("station processed %d windows; MITM rewrote %d frames\n\n",
		station.Stats().Windows, mitm.Intercepts)
	for _, a := range sink.History() {
		status := "ok"
		if a.Altered {
			status = "ALTERED"
		}
		marker := " "
		if a.WindowIndex >= 10 { // attack starts at window 10 (t = 30 s)
			marker = "*"
		}
		fmt.Printf("  %s window %2d (t=%2d s): %s\n", marker, a.WindowIndex, a.WindowIndex*3, status)
	}
	fmt.Printf("\nsink timeline: %s\nsink summary:  %s\n", sink.Timeline(40), sink.Summary())
	st := srv.Stats()
	fmt.Printf("transport: %d conns, %d resyncs (%d bytes skipped), %d frames faulted of %d, %d cuts\n",
		st.Conns, st.Resyncs, st.SkippedBytes, faulty.Stats().Corrupted(), faulty.Stats().Frames(), faulty.Stats().Cuts())
	return nil
}
