package wiot

import (
	"context"
	"errors"
	"net"
	"runtime"
	"testing"
	"time"

	"github.com/wiot-security/sift/internal/dataset"
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

// lentArrays is a Detector that records the address of every window
// array it is lent. Holding the address keeps the array reachable, so
// no array made later can take it over. Like flagEveryOther it refuses
// a window whose carried ranges are wrong.
type lentArrays map[*float64]bool

func (a lentArrays) Classify(w dataset.Window) (bool, error) {
	if err := checkRanges(w); err != nil {
		return false, err
	}
	a[&w.ECG[0]], a[&w.ABP[0]] = true, true
	return false, nil
}

// TestStationRecyclesWindowArrays: the station takes back the arrays of
// every window it classifies and every queued window a resync drops, and
// lends them again. After a warm-up, whole windows streamed through
// HandleFrame are lent only arrays lent before, also after one sensor
// led by several windows; after a resync, only arrays the station held
// before it. The free list never holds more than freeCap.
func TestStationRecyclesWindowArrays(t *testing.T) {
	frame := func(id SensorID, seq uint32) Frame {
		samples := make([]float64, 90)
		for i := range samples {
			samples[i] = float64(seq%7) + float64(i)/90
		}
		return FrameFromFloats(id, seq, samples)
	}
	checkFree := func(t *testing.T, st *BaseStation) {
		t.Helper()
		st.mu.Lock()
		defer st.mu.Unlock()
		if st.free.n > freeCap {
			t.Fatalf("free list holds %d arrays, cap %d", st.free.n, freeCap)
		}
	}
	send := func(t *testing.T, st *BaseStation, id SensorID, from, to uint32) {
		t.Helper()
		for seq := from; seq < to; seq++ {
			if err := st.HandleFrame(frame(id, seq)); err != nil {
				t.Fatal(err)
			}
			checkFree(t, st)
		}
	}
	const perWindow = 12 // 90-sample frames in a 1080-sample window
	stream := func(t *testing.T, st *BaseStation, from, windows uint32) uint32 {
		t.Helper()
		for seq := from; seq < from+windows*perWindow; seq++ {
			send(t, st, SensorECG, seq, seq+1)
			send(t, st, SensorABP, seq, seq+1)
		}
		return from + windows*perWindow
	}

	t.Run("steady and after a lead", func(t *testing.T) {
		lent := lentArrays{}
		st := newTestStation(t, lent, &MemorySink{})
		seq := stream(t, st, 0, 3)
		warm := len(lent)
		seq = stream(t, st, seq, 20)
		if len(lent) != warm || st.Stats().Windows != 23 {
			t.Fatalf("20 windows after the warm-up were lent %d new arrays over %d windows, want 0", len(lent)-warm, st.Stats().Windows)
		}
		// ECG leads by six windows; ABP's catching up returns all of
		// them at once, more than the free list keeps.
		send(t, st, SensorECG, seq, seq+6*perWindow)
		send(t, st, SensorABP, seq, seq+6*perWindow)
		if n := st.free.n; n != freeCap || st.Stats().PeakLead < 6 {
			t.Fatalf("after a six-window lead: free list holds %d, peak lead %d; want %d, at least 6", n, st.Stats().PeakLead, freeCap)
		}
		seq += 6 * perWindow
		warm = len(lent)
		stream(t, st, seq, 10)
		if len(lent) != warm {
			t.Errorf("10 windows after the lead were lent %d new arrays, want 0", len(lent)-warm)
		}
	})

	t.Run("resync drops a lead", func(t *testing.T) {
		lent := lentArrays{}
		st := newTestStation(t, lent, &MemorySink{})
		for seq := uint32(0); seq < 2*perWindow+perWindow/2; seq++ {
			if a, _, err := st.admit(frame(SensorECG, seq)); a != admitted || err != nil {
				t.Fatalf("ECG frame %d: admission %d, err %v", seq, a, err)
			}
		}
		// The resync drops the two queued windows; the partial one's
		// array stays with ECG.
		st.mu.Lock()
		ecg := &st.ch[SensorECG-1]
		held := map[*float64]bool{&ecg.part[0]: true}
		var dropped []*float64
		for _, w := range ecg.queue {
			dropped = append(dropped, &w.samples[0])
			held[&w.samples[0]] = true
		}
		st.mu.Unlock()
		if len(dropped) != 2 {
			t.Fatalf("ECG queued %d windows, want 2", len(dropped))
		}
		st.declareGap(SensorECG, 200)
		for seq := uint32(200); seq < 200+3*perWindow; seq++ {
			for _, id := range []SensorID{SensorECG, SensorABP} {
				if a, _, err := st.admit(frame(id, seq)); a != admitted || err != nil {
					t.Fatalf("%v frame %d: admission %d, err %v", id, seq, a, err)
				}
				checkFree(t, st)
			}
		}
		if got := st.Stats(); got.Resyncs != 1 || got.Windows < 2 {
			t.Fatalf("stats %+v: want one resync, then windows", got)
		}
		for p := range lent {
			if !held[p] {
				t.Fatal("a window after the resync was lent a new array, not one the resync dropped")
			}
		}
		if !lent[dropped[0]] && !lent[dropped[1]] {
			t.Error("no array of a dropped window was lent again")
		}
	})
}
