package wiot

import (
	"context"
	"errors"
	"fmt"
	"net"
	"reflect"
	"testing"
	"time"

	"github.com/wiot-security/sift/internal/obs"
	"github.com/wiot-security/sift/internal/physio"
)

// TestLeadBoundOverAuthTCP streams a 120 s scenario over authenticated
// TCP, each sensor on its own connection as in the wire-auth benchmark:
// neither sensor gets more than leadBound windows ahead of the other, no
// stall waits out its deadline, and the verdicts are the in-process
// run's.
func TestLeadBoundOverAuthTCP(t *testing.T) {
	rec, err := physio.Generate(physio.DefaultSubject(), 120, physio.DefaultSampleRate, 33)
	if err != nil {
		t.Fatal(err)
	}
	base, err := RunScenario(Scenario{Record: rec, Detector: hashDetector{}})
	if err != nil {
		t.Fatal(err)
	}
	defer obs.SetEnabled(obs.Enabled())
	obs.SetEnabled(true)
	timeouts := obsLeadTimeouts.Value()
	res, err := RunScenarioOverTCP(context.Background(), Scenario{Record: rec, Detector: hashDetector{}},
		NetConfig{Seed: 5, Auth: &AuthProvision{Master: testMaster}})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(base.Alerts, res.Alerts) {
		t.Fatalf("verdicts over TCP diverged from the in-process run:\n tcp: %+v\n mem: %+v", res.Alerts, base.Alerts)
	}
	if res.Windows != 40 || res.PeakLead > leadBound {
		t.Errorf("%d windows with a peak lead of %d; want 40 and at most %d", res.Windows, res.PeakLead, leadBound)
	}
	if n := obsLeadTimeouts.Value() - timeouts; n != 0 {
		t.Errorf("%d lead stalls reached their deadline on honest traffic", n)
	}
}

// abpRecord encodes a 90-sample ABP frame as a v2 record.
func abpRecord(t *testing.T, seq uint32) []byte {
	t.Helper()
	f := FrameFromFloats(SensorABP, seq, make([]float64, 90))
	rec, err := f.EncodeChecksummed()
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

// stallStation serves a station until ctx is done, with an ABP
// connection that falls silent once it has delivered the given number
// of frames, and returns it with the address an ECG sensor dials.
func stallStation(t *testing.T, ctx context.Context, abpFrames uint32) (*TCPStation, string) {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	st, err := ServeTCP(ctx, lis, newTestStation(t, &flagEveryOther{}, &MemorySink{}))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = st.Close() })
	addr := lis.Addr().String()
	abp, sc := rawStationConn(t, addr)
	out := appendCtrl(nil, ctrlRecord{Kind: ctrlHello})
	for seq := range abpFrames {
		out = append(out, abpRecord(t, seq)...)
	}
	if _, err := abp.Write(out); err != nil {
		t.Fatal(err)
	}
	if abpFrames > 0 {
		readCtrlUntil(t, sc, func(c ctrlRecord) bool { return c.Kind == ctrlAck && c.Seq == abpFrames-1 })
	}
	// The station counts a connection once it tracks it as a possible
	// partner.
	for deadline := time.Now().Add(5 * time.Second); st.Stats().Conns == 0; {
		if time.Now().After(deadline) {
			t.Fatal("the station never accepted the ABP connection")
		}
		time.Sleep(time.Millisecond)
	}
	return st, addr
}

// TestLeadStallTimesOutOnSilentPartner streams 10 ECG windows through a
// ReconnectSink while the ABP connection stays open and silent, before
// its first frame or after it. The ECG connection stalls once at a lead
// of leadBound windows, the stall times out and is recorded as
// ErrPartnerStalled, and the connection then reads the rest without
// stalling again: every frame is acknowledged, none retransmitted.
func TestLeadStallTimesOutOnSilentPartner(t *testing.T) {
	for _, abpFrames := range []uint32{0, 1} {
		t.Run(fmt.Sprintf("after %d ABP frames", abpFrames), func(t *testing.T) {
			st, addr := stallStation(t, context.Background(), abpFrames)
			ecg, err := NewReconnectSink(ReconnectConfig{Addr: addr, Seed: 7})
			if err != nil {
				t.Fatal(err)
			}
			const frames = 10 * 12
			for seq := uint32(0); seq < frames; seq++ {
				f, _ := testFrame(t, seq, 90)
				if err := ecg.HandleFrame(f); err != nil {
					t.Fatal(err)
				}
			}
			if err := ecg.Close(); err != nil {
				t.Fatalf("flush: %v", err)
			}
			ts := st.Stats()
			if want := int64(frames + abpFrames); ts.LeadStalls != 1 || ts.LeadTimeouts != 1 || ts.Acks != want {
				t.Errorf("%d stalls, %d timeouts, %d acks; want 1, 1, %d", ts.LeadStalls, ts.LeadTimeouts, ts.Acks, want)
			}
			stalled := 0
			for _, err := range st.Errors() {
				if errors.Is(err, ErrPartnerStalled) {
					stalled++
				}
			}
			if stalled != 1 {
				t.Errorf("errors %v: want one ErrPartnerStalled", st.Errors())
			}
			if r := ecg.Stats().Retransmits; r != 0 {
				t.Errorf("the sink retransmitted %d frames across the stall", r)
			}
			if lead := st.Station.Stats().PeakLead; lead != 10 {
				t.Errorf("peak lead %d, want 10: past its deadline the connection reads freely", lead)
			}
		})
	}
}

// TestLeadStallEndsAtClose stalls the ECG connection against a silent
// ABP partner with a deadline far off, then ends the stall by Close and
// by cancelling the station's context: either ends every handler within
// 100 ms and leaves no station goroutine behind.
func TestLeadStallEndsAtClose(t *testing.T) {
	defer func(d time.Duration) { leadStallTimeout = d }(leadStallTimeout)
	leadStallTimeout = time.Minute
	const bound = 100 * time.Millisecond
	stall := func(t *testing.T, ctx context.Context) *TCPStation {
		t.Helper()
		st, addr := stallStation(t, ctx, 1)
		conn, _ := rawStationConn(t, addr)
		if _, err := conn.Write(frameRecords(t, 0, 6*12)); err != nil {
			t.Fatal(err)
		}
		for deadline := time.Now().Add(5 * time.Second); st.Stats().LeadStalls == 0; {
			if time.Now().After(deadline) {
				t.Fatal("the ECG connection never stalled")
			}
			time.Sleep(time.Millisecond)
		}
		return st
	}
	settled := func(t *testing.T, goroutines int, start time.Time) {
		t.Helper()
		for stationGoroutines() > goroutines {
			if time.Since(start) > bound {
				t.Fatalf("%d station goroutines %v after the stall was ended, %d before", stationGoroutines(), bound, goroutines)
			}
			time.Sleep(time.Millisecond)
		}
	}

	t.Run("close", func(t *testing.T) {
		goroutines := stationGoroutines()
		st := stall(t, context.Background())
		start := time.Now()
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		if elapsed := time.Since(start); elapsed > bound {
			t.Errorf("Close took %v during a stall, want under %v", elapsed, bound)
		}
		settled(t, goroutines, start)
		if n := st.Stats().LeadTimeouts; n != 0 {
			t.Errorf("%d stalls timed out; Close should have ended the stall", n)
		}
	})

	t.Run("cancel", func(t *testing.T) {
		goroutines := stationGoroutines()
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		st := stall(t, ctx)
		start := time.Now()
		cancel()
		settled(t, goroutines, start)
		if n := st.Stats().LeadTimeouts; n != 0 {
			t.Errorf("%d stalls timed out; the cancel should have ended the stall", n)
		}
	})
}

// TestLeadNeverStallsWithoutPartner: a connection whose partner no
// other connection may carry never stalls, however far it leads — a
// lone sensor, and a connection that carries both sensors, which would
// wait on itself.
func TestLeadNeverStallsWithoutPartner(t *testing.T) {
	for _, tc := range []struct {
		name string
		abp  bool // the connection delivers an ABP frame before its ECG lead
	}{{"lone", false}, {"shared", true}} {
		t.Run(tc.name, func(t *testing.T) {
			st, _, addr := reliableHarness(t, &flagEveryOther{})
			conn, sc := rawStationConn(t, addr)
			out := appendCtrl(nil, ctrlRecord{Kind: ctrlHello})
			if tc.abp {
				out = append(out, abpRecord(t, 0)...)
			}
			const frames = 10 * 12
			out = append(out, frameRecords(t, 0, frames)...)
			if _, err := conn.Write(out); err != nil {
				t.Fatal(err)
			}
			readCtrlUntil(t, sc, func(c ctrlRecord) bool { return c.Sensor == SensorECG && c.Seq == frames-1 })
			if ts := st.Stats(); ts.LeadStalls != 0 {
				t.Errorf("%d stalls with no partner connection", ts.LeadStalls)
			}
			if lead := st.Station.Stats().PeakLead; lead != 10 {
				t.Errorf("peak lead %d, want 10", lead)
			}
		})
	}
}
