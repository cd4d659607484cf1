package wiot

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"net"
	"reflect"
	"testing"
	"time"

	"github.com/wiot-security/sift/internal/physio"
)

var testMaster = []byte("auth-test-master-secret-0123456789")

// authHarness stands up a station requiring v3 authentication with keys
// derived from testMaster for both sensors.
func authHarness(t *testing.T, det Detector) (*TCPStation, *MemorySink, string) {
	t.Helper()
	sink := &MemorySink{}
	station := newTestStation(t, det, sink)
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	st, err := ServeTCPConfig(context.Background(), lis, station, TCPConfig{
		Keys: KeyStoreFromMaster(testMaster, SensorECG, SensorABP),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = st.Close() })
	return st, sink, lis.Addr().String()
}

func ecgAuth() AuthConfig {
	return AuthConfig{Key: DeriveSensorKey(testMaster, SensorECG), Sensor: SensorECG, Timeout: 2 * time.Second}
}

func TestMACAlgAndKeyStore(t *testing.T) {
	if MACHMAC.String() != "hmac" || MACCMAC.String() != "cmac" {
		t.Errorf("alg strings = %q/%q", MACHMAC, MACCMAC)
	}
	ks := NewKeyStore()
	if err := ks.Set(SensorECG, []byte("short")); err == nil {
		t.Error("a 5-byte PSK must be refused")
	}
	if err := ks.Set(SensorECG, bytes.Repeat([]byte{7}, 16)); err != nil {
		t.Fatal(err)
	}
	if _, ok := ks.Key(SensorABP); ok {
		t.Error("unprovisioned sensor must not resolve a key")
	}
	a := DeriveSensorKey(testMaster, SensorECG)
	b := DeriveSensorKey(testMaster, SensorABP)
	if bytes.Equal(a, b) {
		t.Error("per-sensor derived keys must differ")
	}
	fromMaster := KeyStoreFromMaster(testMaster, SensorECG, SensorABP)
	if k, _ := fromMaster.Key(SensorECG); !bytes.Equal(k, a) {
		t.Error("KeyStoreFromMaster must provision DeriveSensorKey output")
	}
}

// TestAESCMACRFC4493Vectors pins the hand-rolled CMAC against the four
// official RFC 4493 test vectors (empty, one-block, partial, and
// multi-block messages exercise both subkeys and the padding path).
func TestAESCMACRFC4493Vectors(t *testing.T) {
	unhex := func(s string) []byte {
		b, err := hex.DecodeString(s)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	key := unhex("2b7e151628aed2a6abf7158809cf4f3c")
	msg := unhex("6bc1bee22e409f96e93d7e117393172a" +
		"ae2d8a571e03ac9c9eb76fac45af8e51" +
		"30c81c46a35ce411e5fbc1191a0a52ef" +
		"f69f2445df4f9b17ad2b417be66c3710")
	cases := []struct {
		n   int
		tag string
	}{
		{0, "bb1d6929e95937287fa37d129b756746"},
		{16, "070a16b46b4d4144f79bdd9dd04a287c"},
		{40, "dfa66747de9ae63030ca32611497c827"},
		{64, "51f0bebf7e3b9d92fc49741779363cfe"},
	}
	for _, tc := range cases {
		got := aesCMAC(key, msg[:tc.n])
		if want := unhex(tc.tag); !bytes.Equal(got[:], want) {
			t.Errorf("CMAC over %d bytes = %x, want %s", tc.n, got, tc.tag)
		}
	}
}

// TestAuthCtrlRecordRoundTrip pins the five auth record layouts on the
// wire: exact sizes, lossless round-trips, and CRC rejection.
func TestAuthCtrlRecordRoundTrip(t *testing.T) {
	var mac [authProofSize]byte
	copy(mac[:], bytes.Repeat([]byte{0xAB}, authProofSize))
	cases := []struct {
		rec  ctrlRecord
		size int
	}{
		{ctrlRecord{Kind: ctrlAuthHello, Sensor: SensorECG, Alg: MACCMAC, Nonce: 0x1122334455667788}, ctrlAuthHelloSize},
		{ctrlRecord{Kind: ctrlAuthChallenge, Sensor: SensorABP, SID: 7, Nonce: 42}, ctrlAuthChallengeSize},
		{ctrlRecord{Kind: ctrlAuthResponse, Sensor: SensorECG, SID: 9, Mac: mac}, ctrlAuthProofSize},
		{ctrlRecord{Kind: ctrlAuthOK, Sensor: SensorECG, SID: 9, Mac: mac}, ctrlAuthProofSize},
		{ctrlRecord{Kind: ctrlAuthReject, Sensor: SensorABP, Seq: authRejectBadMAC}, ctrlRecordSize},
	}
	for _, tc := range cases {
		buf := appendCtrl(nil, tc.rec)
		if len(buf) != tc.size {
			t.Fatalf("kind %d encodes to %d bytes, want %d", tc.rec.Kind, len(buf), tc.size)
		}
		info, err := PeekRecord(buf)
		if err != nil || info.Kind != RecordControl || info.Len != tc.size {
			t.Fatalf("kind %d peek = %+v, %v", tc.rec.Kind, info, err)
		}
		out, err := decodeCtrl(buf)
		if err != nil {
			t.Fatal(err)
		}
		if out != tc.rec {
			t.Fatalf("round-trip = %+v, want %+v", out, tc.rec)
		}
		dam := append([]byte(nil), buf...)
		dam[len(dam)/2] ^= 0x40
		if _, err := decodeCtrl(dam); err == nil {
			t.Fatalf("kind %d: damaged record accepted", tc.rec.Kind)
		}
	}
}

// TestAuthHandshakeAndFrameDelivery: the honest path — a sensor with the
// right key onboards, streams MAC'd frames, and every one is accepted.
func TestAuthHandshakeAndFrameDelivery(t *testing.T) {
	st, _, addr := authHarness(t, &flagEveryOther{})
	sink, closeFn, err := DialAuthSensor(addr, ecgAuth())
	if err != nil {
		t.Fatal(err)
	}
	defer closeFn()
	const frames = 12
	for seq := uint32(0); seq < frames; seq++ {
		if err := sink.HandleFrame(FrameFromFloats(SensorECG, seq, make([]float64, 90))); err != nil {
			t.Fatal(err)
		}
	}
	waitUntil(t, 2*time.Second, func() bool {
		return st.Stats().AuthFrames == frames
	}, "all authenticated frames to be accepted")
	stats := st.Stats()
	if stats.AuthHandshakes != 1 {
		t.Errorf("handshakes = %d, want 1", stats.AuthHandshakes)
	}
	if got := stats.AuthRejectHandshake + stats.AuthRejectNoSession + stats.AuthRejectSession +
		stats.AuthRejectMAC + stats.AuthRejectPlain; got != 0 {
		t.Errorf("honest run produced %d rejections: %+v", got, stats)
	}
}

// TestAuthImpersonationRejected: a dialer with the wrong key (or an
// unprovisioned sensor) is refused at onboarding and typed as such.
func TestAuthImpersonationRejected(t *testing.T) {
	st, _, addr := authHarness(t, &flagEveryOther{})

	wrong := ecgAuth()
	wrong.Key = bytes.Repeat([]byte{0x5A}, 32)
	if _, _, err := DialAuthSensor(addr, wrong); !errors.Is(err, ErrAuthRejected) {
		t.Fatalf("wrong key: err = %v, want ErrAuthRejected", err)
	}

	// An unknown sensor id never reaches the challenge stage. SensorID 2
	// is provisioned, so fake the lookup miss with a sensor the station
	// has no key for by building a store missing ECG.
	lisSink := &MemorySink{}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ks := NewKeyStore()
	if err := ks.Set(SensorABP, DeriveSensorKey(testMaster, SensorABP)); err != nil {
		t.Fatal(err)
	}
	st2, err := ServeTCPConfig(context.Background(), lis, newTestStation(t, &flagEveryOther{}, lisSink), TCPConfig{
		Keys: ks,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if _, _, err := DialAuthSensor(lis.Addr().String(), ecgAuth()); !errors.Is(err, ErrAuthRejected) {
		t.Fatalf("unknown sensor: err = %v, want ErrAuthRejected", err)
	}

	waitUntil(t, 2*time.Second, func() bool {
		return st.Stats().AuthRejectHandshake >= 1 && st2.Stats().AuthRejectHandshake >= 1
	}, "both impersonation attempts to be counted")
	if got := st.Stats().AuthFrames + st2.Stats().AuthFrames; got != 0 {
		t.Errorf("%d forged frames accepted, want 0", got)
	}
}

// TestAuthSessionBindingRejectsForgedFrames proves authentication
// success grants nothing beyond the session: on a live authenticated
// connection, frames with the wrong session id, a foreign sensor, a
// broken MAC, or no session at all are each rejected into their own
// counter bucket — and an honest frame still flows afterwards.
func TestAuthSessionBindingRejectsForgedFrames(t *testing.T) {
	st, _, addr := authHarness(t, &flagEveryOther{})

	// Sessionless: v3 frames under a made-up session die without acks.
	rawConn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer rawConn.Close()
	fake := &Session{ID: 4242, Sensor: SensorECG, Alg: MACHMAC, key: bytes.Repeat([]byte{1}, 32)}
	forged, err := fake.SealFrame(&Frame{Sensor: SensorECG, Seq: 0})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rawConn.Write(forged); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, 2*time.Second, func() bool {
		return st.Stats().AuthRejectNoSession >= 1
	}, "the sessionless frame to be rejected")

	// Authenticated conn for the in-session forgeries.
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	cfg := ecgAuth()
	if err := writeDeadlined(conn, appendCtrl(nil, ctrlRecord{Kind: ctrlHello}), time.Second); err != nil {
		t.Fatal(err)
	}
	sc := newFrameScanner(conn)
	sess, err := clientHandshake(conn, sc, cfg, time.Second)
	if err != nil {
		t.Fatal(err)
	}

	// Cross-sensor: a valid MAC under the ECG session cannot smuggle an
	// ABP frame.
	cross, err := sess.SealFrame(&Frame{Sensor: SensorABP, Seq: 0})
	if err != nil {
		t.Fatal(err)
	}
	// Spliced: right sensor, wrong session id (CRC repaired so only the
	// session check can catch it).
	spliced, err := sess.SealFrame(&Frame{Sensor: SensorECG, Seq: 0})
	if err != nil {
		t.Fatal(err)
	}
	sidOff := len(spliced) - crcSize - authTagSize - authSIDSize
	binary.LittleEndian.PutUint32(spliced[sidOff:], sess.ID+1)
	if !RepairRecordCRC(spliced) {
		t.Fatal("could not repair spliced record CRC")
	}
	// Tampered: one payload byte flipped, CRC repaired — only the MAC
	// can catch it.
	tamperSrc := FrameFromFloats(SensorECG, 0, make([]float64, 4))
	tampered, err := sess.SealFrame(&tamperSrc)
	if err != nil {
		t.Fatal(err)
	}
	tampered[frameHeaderSize] ^= 0xFF
	if !RepairRecordCRC(tampered) {
		t.Fatal("could not repair tampered record CRC")
	}
	for _, payload := range [][]byte{cross, spliced, tampered} {
		if _, err := conn.Write(payload); err != nil {
			t.Fatal(err)
		}
	}
	waitUntil(t, 2*time.Second, func() bool {
		s := st.Stats()
		return s.AuthRejectSession >= 2 && s.AuthRejectMAC >= 1
	}, "the in-session forgeries to be rejected")

	// The session itself is still healthy: an honest frame is accepted.
	honest, err := sess.SealFrame(&Frame{Sensor: SensorECG, Seq: 0})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(honest); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, 2*time.Second, func() bool {
		return st.Stats().AuthFrames == 1
	}, "the honest frame to be accepted")
	if got := st.Stats().FrameErrors; got != 0 {
		t.Errorf("frame errors = %d, want 0", got)
	}
}

// TestAuthRejectsPlainRecordsWhenRequired: with keys provisioned, v2
// checksummed frames — however well-formed — get no acks and no
// deliveries, only a reject.plain count. A forged gap declaration from
// an unauthenticated peer is equally ignored.
func TestAuthRejectsPlainRecordsWhenRequired(t *testing.T) {
	st, _, addr := authHarness(t, &flagEveryOther{})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(appendCtrl(nil, ctrlRecord{Kind: ctrlHello})); err != nil {
		t.Fatal(err)
	}
	f := FrameFromFloats(SensorECG, 0, make([]float64, 4))
	v2, err := f.EncodeChecksummed()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(v2); err != nil {
		t.Fatal(err)
	}
	// Forged gap: would skip the station's cursor to 1000 if honored.
	if _, err := conn.Write(appendCtrl(nil, ctrlRecord{Kind: ctrlGap, Sensor: SensorECG, Seq: 1000})); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, 2*time.Second, func() bool {
		s := st.Stats()
		return s.AuthRejectPlain >= 1 && s.AuthRejectSession >= 1
	}, "the plain frame and forged gap to be rejected")
	stats := st.Stats()
	if stats.Acks != 0 || stats.Nacks != 0 {
		t.Errorf("unauthenticated peer got protocol feedback: %d acks, %d nacks", stats.Acks, stats.Nacks)
	}
	if next := cursorOf(st.Station, SensorECG); next != 0 {
		t.Errorf("forged gap moved the sensor's cursor to %d", next)
	}
}

// TestAuthReplayedHandshakeRejected: a captured handshake gives an
// attacker nothing — replaying the hello draws a fresh challenge whose
// transcript invalidates the captured response, and frames sealed under
// the observed session die on the new connection.
func TestAuthReplayedHandshakeRejected(t *testing.T) {
	st, _, addr := authHarness(t, &flagEveryOther{})

	// Legitimate exchange, with every client record captured.
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	cfg := ecgAuth()
	key := cfg.Key
	clientNonce := deriveNonce(key, "wiot-cnonce-v3")
	helloRec := appendCtrl(appendCtrl(nil, ctrlRecord{Kind: ctrlHello}),
		ctrlRecord{Kind: ctrlAuthHello, Sensor: SensorECG, Alg: MACHMAC, Nonce: clientNonce})
	if _, err := conn.Write(helloRec); err != nil {
		t.Fatal(err)
	}
	sc := newFrameScanner(conn)
	challenge, err := readAuthReply(sc, ctrlAuthChallenge, SensorECG)
	if err != nil {
		t.Fatal(err)
	}
	transcript := authTranscript(SensorECG, MACHMAC, challenge.SID, clientNonce, challenge.Nonce)
	respRec := appendCtrl(nil, ctrlRecord{
		Kind: ctrlAuthResponse, Sensor: SensorECG, SID: challenge.SID,
		Mac: authHandshakeMAC(key, "wiot-resp-v3", transcript),
	})
	if _, err := conn.Write(respRec); err != nil {
		t.Fatal(err)
	}
	if _, err := readAuthReply(sc, ctrlAuthOK, SensorECG); err != nil {
		t.Fatal(err)
	}

	// Replay the captured bytes verbatim on a fresh connection.
	replay, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer replay.Close()
	if _, err := replay.Write(helloRec); err != nil {
		t.Fatal(err)
	}
	rsc := newFrameScanner(replay)
	replayChal, err := readAuthReply(rsc, ctrlAuthChallenge, SensorECG)
	if err != nil {
		t.Fatal(err)
	}
	if replayChal.SID == challenge.SID && replayChal.Nonce == challenge.Nonce {
		t.Fatal("replayed hello drew an identical challenge — nothing binds the response to this connection")
	}
	if _, err := replay.Write(respRec); err != nil {
		t.Fatal(err)
	}
	if _, err := readAuthReply(rsc, ctrlAuthOK, SensorECG); !errors.Is(err, ErrAuthRejected) {
		t.Fatalf("replayed response: err = %v, want ErrAuthRejected", err)
	}
	// Frames sealed under the observed (legitimate) session are useless
	// on the replay connection: its handshake never completed.
	obsSess := &Session{ID: challenge.SID, Sensor: SensorECG, Alg: MACHMAC,
		key: deriveSessionKey(key, transcript)}
	stolen, err := obsSess.SealFrame(&Frame{Sensor: SensorECG, Seq: 0})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := replay.Write(stolen); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, 2*time.Second, func() bool {
		s := st.Stats()
		return s.AuthRejectHandshake >= 1 && s.AuthRejectNoSession >= 1
	}, "replayed response and cross-connection frame to be rejected")
	if got := st.Stats().AuthFrames; got != 0 {
		t.Errorf("%d frames accepted from the replay connection, want 0", got)
	}
}

// killFirstConnListener closes the first accepted connection shortly
// after accept, simulating a station killed mid-handshake.
type killFirstConnListener struct {
	net.Listener
	killed bool
}

func (l *killFirstConnListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err == nil && !l.killed {
		l.killed = true
		_ = conn.Close()
	}
	return conn, err
}

// TestAuthHandshakeSurvivesMidDialStationKill: a connection that dies
// mid-handshake is an ordinary reconnect, not a terminal auth failure —
// the sink redials, re-onboards, and delivers everything.
func TestAuthHandshakeSurvivesMidDialStationKill(t *testing.T) {
	memSink := &MemorySink{}
	station := newTestStation(t, &flagEveryOther{}, memSink)
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	st, err := ServeTCPConfig(context.Background(), &killFirstConnListener{Listener: lis}, station, TCPConfig{
		Keys: KeyStoreFromMaster(testMaster, SensorECG, SensorABP),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	ac := ecgAuth()
	sink, err := NewReconnectSink(ReconnectConfig{
		Addr:        lis.Addr().String(),
		Seed:        31,
		BackoffBase: time.Millisecond,
		BackoffMax:  10 * time.Millisecond,
		Auth:        &ac,
	})
	if err != nil {
		t.Fatal(err)
	}
	for seq := uint32(0); seq < 8; seq++ {
		if err := sink.HandleFrame(FrameFromFloats(SensorECG, seq, make([]float64, 90))); err != nil {
			t.Fatal(err)
		}
	}
	if err := sink.Close(); err != nil {
		t.Fatalf("Close = %v (the sink should have redialed past the killed conn)", err)
	}
	stats := sink.Stats()
	if stats.Connects < 2 {
		t.Errorf("connects = %d, want >= 2 (first conn killed mid-handshake)", stats.Connects)
	}
	if stats.Handshakes < 1 {
		t.Errorf("handshakes = %d, want >= 1", stats.Handshakes)
	}
	if got := st.Stats().AuthFrames; got < 8 {
		t.Errorf("station accepted %d frames, want >= 8", got)
	}
}

// TestAuthReconnectPreservesGoBackN: killing live connections mid-stream
// forces fresh sessions, and buffered frames — re-MAC'd under each new
// session at transmit time — still land exactly once against the
// station's preserved sequence cursors.
func TestAuthReconnectPreservesGoBackN(t *testing.T) {
	st, memSink, addr := authHarness(t, &flagEveryOther{})
	ecgCfg := ecgAuth()
	sink, err := NewReconnectSink(ReconnectConfig{
		Addr:        addr,
		Seed:        11,
		BackoffBase: time.Millisecond,
		BackoffMax:  10 * time.Millisecond,
		Auth:        &ecgCfg,
	})
	if err != nil {
		t.Fatal(err)
	}
	for seq := uint32(0); seq < 24; seq++ {
		if err := sink.HandleFrame(FrameFromFloats(SensorECG, seq, make([]float64, 90))); err != nil {
			t.Fatal(err)
		}
		if seq == 8 || seq == 16 {
			// Wait for the session this kill targets: one more handshake
			// than kills so far. A tracked conn alone may be the one the
			// previous kill already closed, still draining its handler.
			kills := int64(seq / 8)
			waitUntil(t, 2*time.Second, func() bool {
				return sink.Stats().Handshakes >= kills
			}, "a live authenticated session")
			st.mu.Lock()
			for conn := range st.conns {
				_ = conn.Close()
			}
			st.mu.Unlock()
		}
	}
	abpCfg := AuthConfig{Key: DeriveSensorKey(testMaster, SensorABP), Sensor: SensorABP, Timeout: 2 * time.Second}
	abp, err := NewReconnectSink(ReconnectConfig{Addr: addr, Seed: 12, Auth: &abpCfg})
	if err != nil {
		t.Fatal(err)
	}
	for seq := uint32(0); seq < 24; seq++ {
		if err := abp.HandleFrame(FrameFromFloats(SensorABP, seq, make([]float64, 90))); err != nil {
			t.Fatal(err)
		}
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	if err := abp.Close(); err != nil {
		t.Fatal(err)
	}
	if got := sink.Stats().Handshakes; got < 2 {
		t.Errorf("ECG sink handshakes = %d, want >= 2 (one per reconnect)", got)
	}
	if got := st.Stats().AuthHandshakes; got < 3 {
		t.Errorf("station handshakes = %d, want >= 3", got)
	}
	alerts := memSink.Alerts()
	if len(alerts) != 2 {
		t.Fatalf("windows classified = %d, want 2 (exactly-once across re-auth)", len(alerts))
	}
	for i, a := range alerts {
		if a.WindowIndex != i {
			t.Errorf("alert %d has window index %d (duplicate or lost window)", i, a.WindowIndex)
		}
	}
}

// TestRunScenarioOverTCPAuthParity: on an honest cohort the v3 transport
// must be invisible — verdicts identical to the v2 run, byte for byte,
// for both MAC algorithms.
func TestRunScenarioOverTCPAuthParity(t *testing.T) {
	rec, err := physio.Generate(physio.DefaultSubject(), 12, physio.DefaultSampleRate, 31)
	if err != nil {
		t.Fatal(err)
	}
	base, err := RunScenarioOverTCP(context.Background(),
		Scenario{Record: rec, Detector: hashDetector{}}, NetConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range []MACAlg{MACHMAC, MACCMAC} {
		authed, err := RunScenarioOverTCP(context.Background(),
			Scenario{Record: rec, Detector: hashDetector{}},
			NetConfig{Seed: 1, Auth: &AuthProvision{Master: testMaster, Alg: alg}})
		if err != nil {
			t.Fatalf("%v run: %v", alg, err)
		}
		if !reflect.DeepEqual(base.Alerts, authed.Alerts) {
			t.Fatalf("%v verdicts diverged from v2 run:\n auth: %+v\n   v2: %+v", alg, authed.Alerts, base.Alerts)
		}
		if authed.Windows != base.Windows || authed.Concealed != base.Concealed || authed.SeqErrors != base.SeqErrors {
			t.Errorf("%v stats diverged: %+v vs %+v", alg, authed, base)
		}
	}
}

// FuzzAuthRecordRoundTrip feeds arbitrary bytes through the control
// codec: decoding must never panic, anything that decodes must
// re-encode to the identical bytes (the codecs are each other's
// inverse), and PeekRecord's size must agree with what decodeCtrl
// consumed.
func FuzzAuthRecordRoundTrip(f *testing.F) {
	var mac [authProofSize]byte
	copy(mac[:], bytes.Repeat([]byte{0xC3}, authProofSize))
	f.Add(appendCtrl(nil, ctrlRecord{Kind: ctrlAuthHello, Sensor: SensorECG, Alg: MACHMAC, Nonce: 99}))
	f.Add(appendCtrl(nil, ctrlRecord{Kind: ctrlAuthChallenge, Sensor: SensorABP, SID: 3, Nonce: 1}))
	f.Add(appendCtrl(nil, ctrlRecord{Kind: ctrlAuthResponse, Sensor: SensorECG, SID: 3, Mac: mac}))
	f.Add(appendCtrl(nil, ctrlRecord{Kind: ctrlAuthOK, Sensor: SensorECG, SID: 3, Mac: mac}))
	f.Add(appendCtrl(nil, ctrlRecord{Kind: ctrlAuthReject, Sensor: SensorECG, Seq: authRejectProto}))
	f.Add(appendCtrl(nil, ctrlRecord{Kind: ctrlAck, Sensor: SensorECG, Seq: 12}))
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, err := decodeCtrl(data)
		if err != nil {
			return
		}
		size := ctrlSize(rec.Kind)
		out := appendCtrl(nil, rec)
		if !bytes.Equal(out, data[:size]) {
			t.Fatalf("re-encode mismatch: got %x, decoded from %x", out, data[:size])
		}
		info, err := PeekRecord(data)
		if err != nil || info.Kind != RecordControl || info.Len != size {
			t.Fatalf("PeekRecord disagrees with decodeCtrl: %+v, %v (size %d)", info, err, size)
		}
	})
}
