package chaos

import (
	"bytes"
	"context"
	"hash/fnv"
	"maps"
	"math"
	"net"
	"reflect"
	"sync"
	"testing"
	"time"

	"github.com/wiot-security/sift/internal/dataset"
	"github.com/wiot-security/sift/internal/physio"
	"github.com/wiot-security/sift/internal/wiot"
)

// TestAdversaryScheduledForgeries pins the adversary's wire behavior:
// forgeries fire on exact frame indices (same stream every run), every
// forged record keeps a valid length and CRC, and replays lengthen the
// stream by whole records.
func TestAdversaryScheduledForgeries(t *testing.T) {
	const frames = 12
	payload := sensorStream(frames)
	frameLen := len(payload) / frames
	cfg := Config{Seed: 6, Adversary: Adversary{TamperEvery: 2, SpliceEvery: 3, ReplayEvery: 5}}
	got, stats := pump(t, cfg, payload)
	again, _ := pump(t, cfg, payload)
	if !bytes.Equal(got, again) {
		t.Fatal("scheduled adversary produced different streams on identical runs")
	}
	if stats.Tampered() != 6 || stats.Spliced() != 4 || stats.Replayed() != 2 {
		t.Fatalf("forgery counts = %d tampered / %d spliced / %d replayed, want 6/4/2",
			stats.Tampered(), stats.Spliced(), stats.Replayed())
	}
	if want := len(payload) + 2*frameLen; len(got) != want {
		t.Fatalf("stream length = %d, want %d (two whole-record replays)", len(got), want)
	}

	// Every record in the forged stream must still parse whole: the
	// adversary forges content, never framing.
	rest, records := got, 0
	for len(rest) > 0 {
		info, err := wiot.PeekRecord(rest)
		if err != nil || len(rest) < info.Len {
			t.Fatalf("forged stream broke framing at record %d: %v", records, err)
		}
		rest = rest[info.Len:]
		records++
	}
	if records != frames+2 {
		t.Errorf("records delivered = %d, want %d", records, frames+2)
	}
	if bytes.Equal(got[:len(payload)], payload) {
		t.Error("adversary changed nothing despite tamper and splice schedules")
	}
}

// chaosHashDetector flips its verdict on any change to the window's
// contents, so transport-level forgeries that reach the detector are
// visible as verdict divergence. It also records each window's full
// 64-bit content hash by window index, since one verdict bit misses a
// change half the time.
type chaosHashDetector struct {
	mu     sync.Mutex
	hashes map[int]uint64
}

func (*chaosHashDetector) Name() string { return "chaos-hash" }

func (d *chaosHashDetector) Classify(w dataset.Window) (bool, error) {
	h := fnv.New64a()
	var buf [8]byte
	for _, s := range [][]float64{w.ECG, w.ABP} {
		for _, v := range s {
			bits := math.Float64bits(v)
			for i := range buf {
				buf[i] = byte(bits >> (8 * i))
			}
			_, _ = h.Write(buf[:])
		}
	}
	sum := h.Sum64()
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.hashes == nil {
		d.hashes = map[int]uint64{}
	}
	d.hashes[w.Index] = sum
	return sum&1 == 1, nil
}

// windowHashes returns a copy of the recorded hashes.
func (d *chaosHashDetector) windowHashes() map[int]uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return maps.Clone(d.hashes)
}

// adversaryScenario is 12 s (four windows) of one subject, scored by a
// fresh chaosHashDetector, which it also returns.
func adversaryScenario(t *testing.T) (wiot.Scenario, *chaosHashDetector) {
	t.Helper()
	rec, err := physio.Generate(physio.DefaultSubject(), 12, physio.DefaultSampleRate, 31)
	if err != nil {
		t.Fatal(err)
	}
	det := &chaosHashDetector{}
	return wiot.Scenario{Record: rec, Detector: det}, det
}

// TestAdversaryV2AcceptsForgeries demonstrates the vulnerability the v3
// wire closes: over the v2 transport every scheduled forgery carries a
// valid CRC, so the station accepts attacker bytes as genuine — the run
// completes with zero concealment and the forged samples reach the
// detector, changing the content of at least one window relative to a
// clean run.
func TestAdversaryV2AcceptsForgeries(t *testing.T) {
	sc, cleanDet := adversaryScenario(t)
	clean, err := wiot.RunScenario(sc)
	if err != nil {
		t.Fatal(err)
	}
	sc, forgedDet := adversaryScenario(t)
	var lis *Listener
	forged, err := wiot.RunScenarioOverTCP(context.Background(), sc, wiot.NetConfig{
		Seed: 1,
		WrapListener: func(inner net.Listener) net.Listener {
			lis = Wrap(inner, Config{Seed: 6, Adversary: Adversary{TamperEvery: 3}})
			return lis
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if lis.Stats().Tampered() == 0 {
		t.Fatal("the adversary never fired; the demonstration is vacuous")
	}
	// Nothing was rejected or concealed: the v2 wire swallowed every
	// forgery whole.
	if forged.Concealed != 0 || forged.Windows != clean.Windows {
		t.Errorf("v2 run stats = %d concealed / %d windows, want 0 / %d (forgeries accepted silently)",
			forged.Concealed, forged.Windows, clean.Windows)
	}
	want, got := cleanDet.windowHashes(), forgedDet.windowHashes()
	if len(got) != len(want) {
		t.Fatalf("forged run scored %d windows, clean run %d", len(got), len(want))
	}
	changed := 0
	for i, h := range got {
		if h != want[i] {
			changed++
		}
	}
	if changed == 0 {
		t.Error("every window's content matches the clean run despite accepted forgeries — the tamper schedule missed every window")
	}
}

// TestAdversaryV3RejectsForgeriesAndConverges is the tentpole's proof:
// the same scheduled adversary — tampering, replaying, and splicing
// CRC-valid records — against the authenticated wire yields verdicts
// byte-identical to a clean in-process run. Every forgery is rejected
// without protocol feedback and go-back-N retransmission repairs the
// stream.
func TestAdversaryV3RejectsForgeriesAndConverges(t *testing.T) {
	sc, _ := adversaryScenario(t)
	clean, err := wiot.RunScenario(sc)
	if err != nil {
		t.Fatal(err)
	}
	sc, _ = adversaryScenario(t)
	var lis *Listener
	authed, err := wiot.RunScenarioOverTCP(context.Background(), sc, wiot.NetConfig{
		Seed: 1,
		Auth: &wiot.AuthProvision{Master: []byte("chaos-adversary-master-0123456789")},
		Sink: wiot.ReconnectConfig{RetransmitTimeout: 20 * time.Millisecond},
		WrapListener: func(inner net.Listener) net.Listener {
			lis = Wrap(inner, Config{Seed: 6, Adversary: Adversary{TamperEvery: 5, ReplayEvery: 7, SpliceEvery: 9}})
			return lis
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	stats := lis.Stats()
	if stats.Tampered() == 0 || stats.Replayed() == 0 || stats.Spliced() == 0 {
		t.Fatalf("adversary fired %d/%d/%d tamper/replay/splice, want all nonzero",
			stats.Tampered(), stats.Replayed(), stats.Spliced())
	}
	if !reflect.DeepEqual(clean.Alerts, authed.Alerts) {
		t.Fatalf("verdicts diverged under the adversary:\n  v3: %+v\nclean: %+v", authed.Alerts, clean.Alerts)
	}
	if authed.Windows != clean.Windows || authed.Concealed != 0 || authed.SeqErrors != 0 {
		t.Errorf("v3 run stats = %+v, want clean-run equivalents (%d windows, 0 concealed, 0 seq errors)",
			authed, clean.Windows)
	}
}
