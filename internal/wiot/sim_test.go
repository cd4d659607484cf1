package wiot

import (
	"context"
	"errors"
	"net"
	"testing"
	"time"

	"github.com/wiot-security/sift/internal/dataset"
	"github.com/wiot-security/sift/internal/features"
	"github.com/wiot-security/sift/internal/physio"
	"github.com/wiot-security/sift/internal/sift"
	"github.com/wiot-security/sift/internal/svm"
)

// trainEnv builds a trained detector plus live and donor records.
func trainEnv(t *testing.T) (det Detector, live, donor *physio.Record) {
	t.Helper()
	subjects, err := physio.Cohort(3, 77)
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
	trainRec := gen(subjects[0], 90, 1)
	donors := []*physio.Record{gen(subjects[1], 90, 2), gen(subjects[2], 90, 3)}
	d, err := sift.TrainForSubject(trainRec, donors, sift.Config{
		Version: features.Original,
		SVM:     svm.Config{Seed: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	return sift.HostDetector{D: d}, gen(subjects[0], 60, 50), gen(subjects[1], 60, 51)
}

func TestRunScenarioCleanStream(t *testing.T) {
	det, live, _ := trainEnv(t)
	res, err := RunScenario(Scenario{Record: live, Detector: det})
	if err != nil {
		t.Fatal(err)
	}
	if res.Windows != 20 { // 60 s / 3 s
		t.Errorf("windows = %d, want 20", res.Windows)
	}
	if res.TruePos+res.FalseNeg != 0 {
		t.Error("clean stream should have no attacked windows")
	}
	if res.Accuracy() < 0.7 {
		t.Errorf("clean accuracy = %.2f (FP %d), want >= 0.7", res.Accuracy(), res.FalsePos)
	}
}

func TestRunScenarioUnderAttack(t *testing.T) {
	det, live, donor := trainEnv(t)
	half := len(live.ECG) / 2
	mitm := &SubstitutionMITM{Donor: donor.ECG, ActiveFrom: half}
	res, err := RunScenario(Scenario{
		Record:     live,
		Detector:   det,
		Attack:     mitm,
		AttackFrom: half,
	})
	if err != nil {
		t.Fatal(err)
	}
	if mitm.Intercepts == 0 {
		t.Fatal("MITM never fired")
	}
	attacked := res.TruePos + res.FalseNeg
	if attacked == 0 {
		t.Fatal("no windows scored as attacked")
	}
	if recall := float64(res.TruePos) / float64(attacked); recall < 0.6 {
		t.Errorf("attack recall = %.2f (TP %d FN %d), want >= 0.6", recall, res.TruePos, res.FalseNeg)
	}
}

func TestRunScenarioValidation(t *testing.T) {
	if _, err := RunScenario(Scenario{}); err == nil {
		t.Error("nil record should error")
	}
}

func TestTCPEndToEnd(t *testing.T) {
	sink := &MemorySink{}
	det := &flagEveryOther{}
	station, err := NewBaseStation(StationConfig{
		SubjectID:  "S01",
		SampleRate: physio.DefaultSampleRate,
		Detector:   det,
		Sink:       sink,
	})
	if err != nil {
		t.Fatal(err)
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv, err := ServeTCP(context.Background(), lis, station)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	rec, err := physio.Generate(physio.DefaultSubject(), 6, physio.DefaultSampleRate, 9)
	if err != nil {
		t.Fatal(err)
	}
	stream := func(id SensorID) {
		sink, err := NewReconnectSink(ReconnectConfig{Addr: lis.Addr().String(), Seed: int64(id)})
		if err != nil {
			t.Error(err)
			return
		}
		// Close flushes: it returns once the station has acked every frame.
		defer func() {
			if err := sink.Close(); err != nil {
				t.Error(err)
			}
		}()
		s, err := NewSensor(id, rec, 90)
		if err != nil {
			t.Error(err)
			return
		}
		for {
			f, ok := s.Next()
			if !ok {
				return
			}
			if err := sink.HandleFrame(f); err != nil {
				t.Error(err)
				return
			}
		}
	}
	done := make(chan struct{})
	go func() { stream(SensorECG); close(done) }()
	stream(SensorABP)
	<-done

	// Wait for the station to drain both connections (6 s of signal → 2
	// full windows).
	deadline := time.Now().Add(5 * time.Second)
	for station.Stats().Windows < 2 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if got := station.Stats().Windows; got != 2 {
		t.Errorf("windows over TCP = %d, want 2 (errors: %v)", got, srv.Errors())
	}
}

func TestServeTCPValidation(t *testing.T) {
	if _, err := ServeTCP(context.Background(), nil, nil); err == nil {
		t.Error("nil listener should error")
	}
}

func TestScenarioResultAccuracyEmpty(t *testing.T) {
	if (ScenarioResult{}).Accuracy() != 0 {
		t.Error("empty result accuracy should be 0")
	}
}

// constDetector returns the same verdict for every window, making the
// scoring arithmetic the only variable under test.
type constDetector struct{ altered bool }

func (d constDetector) Classify(dataset.Window) (bool, error) { return d.altered, nil }

// TestRunScenarioWindowScoring pins the window-scoring edge cases: a
// window counts as attacked iff at least half of it overlaps the attack
// interval, and AttackTo == 0 means "to end of stream". The stream is 4
// windows of 3 s at 360 Hz (window length 1080 samples) delivered
// reliably, with a PassThrough "attack" so ground truth is decoupled
// from the detector, which is a constant stub.
func TestRunScenarioWindowScoring(t *testing.T) {
	const wlen = 1080 // 3 s at 360 Hz
	rec, err := physio.Generate(physio.DefaultSubject(), 12, physio.DefaultSampleRate, 21)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name           string
		attack         Interceptor
		from, to       int
		verdict        bool // constant detector output
		tp, fn, fp, tn int
	}{
		{
			// Attack covers exactly the second half of window 1:
			// overlap*2 == WindowLength sits on the >= boundary, so the
			// window is attacked.
			name:   "exact half overlap is attacked",
			attack: PassThrough{}, from: wlen + wlen/2, to: 2 * wlen,
			verdict: true,
			tp:      1, fp: 3,
		},
		{
			// One sample less than half: the window is clean, so the
			// always-flagging detector produces only false positives.
			name:   "under half overlap is clean",
			attack: PassThrough{}, from: wlen + wlen/2 + 1, to: 2 * wlen,
			verdict: true,
			fp:      4,
		},
		{
			name:   "AttackTo zero means end of stream",
			attack: PassThrough{}, from: 2 * wlen, to: 0,
			verdict: true,
			tp:      2, fp: 2,
		},
		{
			name:   "missed attack scores false negatives",
			attack: PassThrough{}, from: 2 * wlen, to: 0,
			verdict: false,
			fn:      2, tn: 2,
		},
		{
			name:    "no attack and quiet detector is all TN",
			verdict: false,
			tn:      4,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, err := RunScenario(Scenario{
				Record:     rec,
				Detector:   constDetector{tc.verdict},
				Attack:     tc.attack,
				AttackFrom: tc.from,
				AttackTo:   tc.to,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Windows != 4 {
				t.Fatalf("windows = %d, want 4", res.Windows)
			}
			if res.WindowLength != wlen {
				t.Fatalf("window length = %d, want %d", res.WindowLength, wlen)
			}
			if res.TruePos != tc.tp || res.FalseNeg != tc.fn || res.FalsePos != tc.fp || res.TrueNeg != tc.tn {
				t.Errorf("TP/FN/FP/TN = %d/%d/%d/%d, want %d/%d/%d/%d",
					res.TruePos, res.FalseNeg, res.FalsePos, res.TrueNeg,
					tc.tp, tc.fn, tc.fp, tc.tn)
			}
		})
	}
}

func TestRunScenarioContextCancellation(t *testing.T) {
	rec, err := physio.Generate(physio.DefaultSubject(), 12, physio.DefaultSampleRate, 22)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = RunScenarioContext(ctx, Scenario{Record: rec, Detector: constDetector{}})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled scenario returned %v, want context.Canceled", err)
	}
}

// reuseChannel delivers every frame once from a reused slice.
type reuseChannel struct{ out []Frame }

func (c *reuseChannel) Transmit(f Frame) []Frame {
	c.out = append(c.out[:0], f)
	return c.out
}

// frameCounter is a FrameSink that counts and drops frames.
type frameCounter struct{ n int }

func (c *frameCounter) HandleFrame(Frame) error {
	c.n++
	return nil
}

// TestStreamAllocatesNothingPerFrame: the one stream pump both scenario
// runners share costs no allocation per frame, over a channel that
// reuses its result and over Reliable, the default: each sensor
// quantises every frame into its one buffer.
func TestStreamAllocatesNothingPerFrame(t *testing.T) {
	rec, err := physio.Generate(physio.DefaultSubject(), 12, physio.DefaultSampleRate, 31)
	if err != nil {
		t.Fatal(err)
	}
	for _, ch := range []ChannelEffect{&reuseChannel{}, Reliable{}} {
		sc := Scenario{Record: rec, Attack: PassThrough{}, Channel: ch}
		frames := 2 * ((len(rec.ECG) + DefaultChunkSize - 1) / DefaultChunkSize)
		var sink frameCounter
		allocs := testing.AllocsPerRun(3, func() {
			if err := sc.stream(context.Background(), &sink, &sink); err != nil {
				t.Fatal(err)
			}
		})
		if sink.n != 4*frames {
			t.Fatalf("%T: sinks saw %d frames over 4 runs, want %d", ch, sink.n, 4*frames)
		}
		// Two per sensor: the sensor and its sample buffer.
		if allocs > 4 {
			t.Errorf("%T: streaming %d frames allocates %.0f times, want <= 4", ch, frames, allocs)
		}
	}
}
