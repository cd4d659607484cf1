package attack

import (
	"bytes"
	"context"
	"net"
	"testing"

	"github.com/wiot-security/sift/internal/dataset"
	"github.com/wiot-security/sift/internal/wiot"
)

type nopDetector struct{}

func (nopDetector) Name() string                          { return "nop" }
func (nopDetector) Classify(dataset.Window) (bool, error) { return false, nil }

var wireMaster = []byte("wire-campaign-master-0123456789ab")

func wireStation(t *testing.T) (*wiot.TCPStation, string) {
	t.Helper()
	station, err := wiot.NewBaseStation(wiot.StationConfig{
		SubjectID:  "victim",
		SampleRate: 360,
		Detector:   nopDetector{},
		Sink:       &wiot.MemorySink{},
	})
	if err != nil {
		t.Fatal(err)
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	st, err := wiot.ServeTCPConfig(context.Background(), lis, station, wiot.TCPConfig{
		Keys: wiot.KeyStoreFromMaster(wireMaster, wiot.SensorECG, wiot.SensorABP),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = st.Close() })
	return st, lis.Addr().String()
}

// TestWireCampaignsRejectedWithFullAccounting runs every wire campaign
// against an authenticated station and holds the v3 contract: zero
// forged frames accepted, every attempt visible in the rejection
// taxonomy, and legitimate credentials still scoped to their own
// session.
func TestWireCampaignsRejectedWithFullAccounting(t *testing.T) {
	st, addr := wireStation(t)
	base := st.Stats()

	campaigns := []WireCampaign{
		&WireImpersonation{Sensor: wiot.SensorECG, Key: bytes.Repeat([]byte{0x41}, 32), Frames: 4},
		&WireFrameReplay{Sensor: wiot.SensorECG, Key: wiot.DeriveSensorKey(wireMaster, wiot.SensorECG), Frames: 4},
		&WireSessionHijack{
			Key:    wiot.DeriveSensorKey(wireMaster, wiot.SensorABP),
			Sensor: wiot.SensorABP,
			Victim: wiot.SensorECG,
		},
	}
	var forged int64
	for _, c := range campaigns {
		rep, err := c.Run(addr, st)
		if err != nil {
			t.Fatalf("%s: %v", c.Name(), err)
		}
		if rep.ForgedAccepted != 0 {
			t.Errorf("%s: %d forged frames accepted, want 0", c.Name(), rep.ForgedAccepted)
		}
		if rep.Rejected < int64(rep.ForgedSent) {
			t.Errorf("%s: %d rejections for %d forged records — attempts unaccounted for",
				c.Name(), rep.Rejected, rep.ForgedSent)
		}
		forged += int64(rep.ForgedSent)
	}

	// The taxonomy attributes each campaign's attempts to the right
	// bucket: the guessed-key handshake, the sessionless forgeries and
	// replays, and the hijack's session-scoped forgeries.
	delta := st.Stats()
	if got := delta.AuthRejectHandshake - base.AuthRejectHandshake; got < 1 {
		t.Errorf("reject.handshake = %d, want >= 1 (the impersonation handshake)", got)
	}
	if got := delta.AuthRejectNoSession - base.AuthRejectNoSession; got < 8 {
		t.Errorf("reject.nosession = %d, want >= 8 (impersonation + replay frames)", got)
	}
	if got := delta.AuthRejectSession - base.AuthRejectSession; got < 3 {
		t.Errorf("reject.session = %d, want >= 3 (cross-sensor, guessed sid, forged gap)", got)
	}
	if total := rejectTotal(delta) - rejectTotal(base); total < forged {
		t.Errorf("rejection total = %d for %d forged records", total, forged)
	}
	// Only the campaigns' deliberate honest traffic was ever accepted.
	if got := delta.AuthFrames - base.AuthFrames; got != 5 {
		t.Errorf("accepted frames = %d, want 5 (4 replay-victim frames + 1 hijack probe)", got)
	}
}
