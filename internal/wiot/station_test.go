package wiot

import (
	"context"
	"errors"
	"net"
	"runtime"
	"testing"
	"time"

	"github.com/wiot-security/sift/internal/fixedpoint"
	"github.com/wiot-security/sift/internal/physio"
)

// buffered counts the samples the station holds for a sensor: its
// partial window and the complete windows it has queued.
func buffered(b *BaseStation, sensor SensorID) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	ch := &b.ch[sensor-1]
	return ch.waiting()*b.wlen + len(ch.part)
}

// TestStationRefusesHugeSeqGap is the regression test for unbounded
// concealment: a frame whose sequence number jumps by 2^30 used to make
// the station allocate 2^30 frames of hold-last samples and die with an
// unrecoverable out-of-memory error. It must now be refused with
// ErrSeqGap, allocate nothing proportional to the gap, and leave the
// sensor's cursor where it was.
func TestStationRefusesHugeSeqGap(t *testing.T) {
	st := newTestStation(t, &flagEveryOther{}, &MemorySink{})
	if err := st.HandleFrame(FrameFromFloats(SensorECG, 0, make([]float64, 90))); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := st.HandleFrame(FrameFromFloats(SensorECG, 1<<30, make([]float64, 90)))
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrSeqGap) {
		t.Fatalf("err = %v, want ErrSeqGap", err)
	}
	if grown := after.TotalAlloc - before.TotalAlloc; grown > 1<<20 {
		t.Errorf("refusing the gap allocated %d bytes", grown)
	}
	if got := st.Stats(); got.Concealed != 0 || got.SeqErrors != 0 || buffered(st, SensorECG) != 90 {
		t.Errorf("after refusal: stats %+v, buffer %d samples; want nothing concealed or buffered", got, buffered(st, SensorECG))
	}
	// The cursor stayed at 1: the stream carries on as if the forged
	// frame never arrived.
	if err := st.HandleFrame(FrameFromFloats(SensorECG, 1, make([]float64, 90))); err != nil {
		t.Fatal(err)
	}
	if buffered(st, SensorECG) != 180 || st.Stats().Concealed != 0 {
		t.Errorf("next in-order frame: buffer %d samples, concealed %d; want 180, 0", buffered(st, SensorECG), st.Stats().Concealed)
	}
}

// TestStationConcealmentBound pins the bound at concealWindows windows of
// samples: the largest gap within it is concealed, one frame more is not.
func TestStationConcealmentBound(t *testing.T) {
	const frame = 90
	maxGap := uint32(concealWindows * 1080 / frame)
	for _, tc := range []struct {
		gap     uint32
		refused bool
	}{{maxGap, false}, {maxGap + 1, true}} {
		st := newTestStation(t, &flagEveryOther{}, &MemorySink{})
		if err := st.HandleFrame(FrameFromFloats(SensorECG, 0, make([]float64, frame))); err != nil {
			t.Fatal(err)
		}
		err := st.HandleFrame(FrameFromFloats(SensorECG, 1+tc.gap, make([]float64, frame)))
		if refused := errors.Is(err, ErrSeqGap); refused != tc.refused || (!refused && err != nil) {
			t.Errorf("gap %d: err = %v, want refused=%v", tc.gap, err, tc.refused)
		}
		if want := int(tc.gap) * frame; !tc.refused && st.Stats().Concealed != want {
			t.Errorf("gap %d: concealed %d, want %d", tc.gap, st.Stats().Concealed, want)
		}
	}
}

// TestTCPStationSurvivesSeqGap drives the same forged jump over a TCP
// connection: the go-back-N cursor nacks the out-of-order frame before
// the base station sees it, and the station keeps serving the sensor.
func TestTCPStationSurvivesSeqGap(t *testing.T) {
	station := newTestStation(t, &flagEveryOther{}, &MemorySink{})
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	st, err := ServeTCP(context.Background(), lis, station)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	conn, err := net.Dial("tcp", lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	samples := make([]float64, 90)
	send := func(id SensorID, seq uint32) {
		t.Helper()
		f := FrameFromFloats(id, seq, samples)
		rec, err := f.EncodeChecksummed()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write(rec); err != nil {
			t.Fatalf("connection died: %v", err)
		}
	}
	send(SensorECG, 0)
	send(SensorECG, 1<<30)
	for seq := uint32(1); seq < 12; seq++ {
		send(SensorECG, seq)
	}
	for seq := uint32(0); seq < 12; seq++ {
		send(SensorABP, seq)
	}
	waitUntil(t, 2*time.Second, func() bool {
		return station.Stats().Windows == 1
	}, "the window after the forged frame to complete")
	if got := st.Stats(); got.Nacks != 1 || got.FrameErrors != 0 {
		t.Errorf("transport stats %+v, want one nack and no frame errors", got)
	}
	if got := station.Stats(); got.SeqErrors != 0 || got.Concealed != 0 {
		t.Errorf("station stats %+v, want no gap seen and nothing concealed", got)
	}
}

// TestHandleFrameSteadyStateAllocs pins the station's ingest path: once
// the buffers have grown to a window, a frame that completes no window
// allocates nothing, with or without a one-frame gap to conceal.
func TestHandleFrameSteadyStateAllocs(t *testing.T) {
	st, err := NewBaseStation(StationConfig{
		SubjectID:  "S01",
		SampleRate: physio.DefaultSampleRate,
		Detector:   &flagEveryOther{},
		Sink:       &MemorySink{},
	})
	if err != nil {
		t.Fatal(err)
	}
	const frame = 10
	samples := make([]fixedpoint.Q, frame)
	for i := range samples {
		samples[i] = fixedpoint.FromFloat(float64(i))
	}
	seq := uint32(0)
	send := func() {
		for _, id := range []SensorID{SensorECG, SensorABP} {
			if err := st.HandleFrame(Frame{Sensor: id, Seq: seq, Samples: samples}); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Warm up past two windows so both buffers reach working capacity,
	// then stop on a window boundary.
	for st.Stats().Windows < 2 || buffered(st, SensorECG) != 0 {
		send()
		seq++
	}
	// Each pin runs 11 times (AllocsPerRun adds a warm-up call); at 10
	// and 20 samples a step, neither completes a 1080-sample window.
	if n := testing.AllocsPerRun(10, func() { send(); seq++ }); n != 0 {
		t.Errorf("in-order HandleFrame allocates %.1f/op, want 0", n)
	}
	if n := testing.AllocsPerRun(10, func() { seq++; send(); seq++ }); n != 0 {
		t.Errorf("HandleFrame after a 1-frame gap allocates %.1f/op, want 0", n)
	}
	if st.Stats().Windows != 2 || st.Stats().Concealed != 11*2*frame {
		t.Errorf("pins crossed a window or missed the gaps: %d windows, stats %+v", st.Stats().Windows, st.Stats())
	}
}
