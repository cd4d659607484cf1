package wiot

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Authenticated wire v3 — session onboarding and per-frame MACs.
//
// Wire v2 detects corruption (CRC32-C) but trusts any dialer: a
// reproduction of a sensor-hijacking paper accepted unauthenticated and
// replayed sensor streams. v3 adds a lightweight onboarding handshake in
// the existing 0x5C control space (per-sensor pre-shared keys, an
// HMAC-SHA256 challenge/response that establishes a session id and a
// derived session key) and a sequence-bound truncated MAC on every data
// frame. Authentication success does not grant blanket frame acceptance:
// each frame must carry the live session's id and a MAC over its exact
// bytes, so a replayed, spliced, or cross-sensor frame is rejected
// deterministically even when it arrives on an authenticated connection.
//
// Key hierarchy:
//
//	PSK (per sensor, provisioned in a KeyStore; optionally derived from
//	 │   one master via DeriveSensorKey)
//	 ├─ handshake MACs   = HMAC(psk, label ‖ transcript)[:16]
//	 └─ session key      = HMAC(psk, "skey" ‖ transcript)   (32 B;
//	     └─ frame MAC    = MAC(sessionKey, frame ‖ sid)[:8]  [:16] CMAC)
//
// where transcript = sensor ‖ alg ‖ sid ‖ clientNonce ‖ stationNonce.
// Nonces are drawn from a counter-keyed HMAC stream rather than
// crypto/rand, so a run's wire bytes stay reproducible; unpredictability
// against a third party still rests on the PSK.

// Auth-layer errors.
var (
	// ErrAuthRejected reports that the station refused the handshake
	// (unknown sensor, bad response MAC, or auth not provisioned).
	ErrAuthRejected = errors.New("wiot: authentication rejected by station")
	// ErrAuthFailed reports a client-side handshake failure: a malformed
	// exchange or a station proof that did not verify.
	ErrAuthFailed = errors.New("wiot: authentication handshake failed")
)

// MACAlg selects the per-frame MAC primitive a session uses. The
// handshake itself is always HMAC-SHA256 over the PSK.
type MACAlg byte

const (
	// MACHMAC authenticates frames with truncated HMAC-SHA256 — the
	// stdlib-backed default.
	MACHMAC MACAlg = 1
	// MACCMAC authenticates frames with truncated AES-128-CMAC
	// (RFC 4493) — the cheaper primitive on MCUs with an AES block, kept
	// here so wiotbench can price the two against the energy model.
	MACCMAC MACAlg = 2
)

// String implements fmt.Stringer.
func (a MACAlg) String() string {
	switch a {
	case MACHMAC:
		return "hmac"
	case MACCMAC:
		return "cmac"
	}
	return fmt.Sprintf("MACAlg(%d)", byte(a))
}

// valid reports whether the alg is a known wire value.
func (a MACAlg) valid() bool { return a == MACHMAC || a == MACCMAC }

// Truncated sizes on the wire.
const (
	authSIDSize      = 4  // session id u32
	authTagSize      = 8  // truncated per-frame MAC
	authProofSize    = 16 // truncated handshake MACs
	authTrailerSize  = authSIDSize + authTagSize + crcSize
	authKeySize      = 32 // derived session key bytes (HMAC)
	authCMACKeySize  = 16 // session key bytes consumed by AES-CMAC
	authMinPSKLength = 16 // provisioning floor: shorter PSKs are refused
)

// Handshake reject codes carried in a ctrlAuthReject record's Seq field.
const (
	authRejectNoKeys  uint32 = 1 // station has no KeyStore provisioned
	authRejectUnknown uint32 = 2 // no PSK for the announced sensor
	authRejectBadMAC  uint32 = 3 // challenge response failed to verify
	authRejectProto   uint32 = 4 // out-of-order or malformed exchange
)

// KeyStore holds per-sensor pre-shared keys on the station side.
type KeyStore struct {
	mu   sync.RWMutex
	keys map[SensorID][]byte
}

// NewKeyStore returns an empty store.
func NewKeyStore() *KeyStore {
	return &KeyStore{keys: make(map[SensorID][]byte)}
}

// Set provisions (or rotates) the sensor's PSK. Keys shorter than 16
// bytes are refused: a short PSK collapses the whole hierarchy.
func (ks *KeyStore) Set(sensor SensorID, key []byte) error {
	if len(key) < authMinPSKLength {
		return fmt.Errorf("wiot: PSK for %s is %d bytes, need >= %d", sensor, len(key), authMinPSKLength)
	}
	ks.mu.Lock()
	defer ks.mu.Unlock()
	ks.keys[sensor] = append([]byte(nil), key...)
	return nil
}

// Key looks up the sensor's PSK.
func (ks *KeyStore) Key(sensor SensorID) ([]byte, bool) {
	ks.mu.RLock()
	defer ks.mu.RUnlock()
	k, ok := ks.keys[sensor]
	return k, ok
}

// DeriveSensorKey expands one master secret into a per-sensor PSK, so a
// deployment can provision a fleet from a single secret: compromise of
// one sensor's key does not reveal the others'.
func DeriveSensorKey(master []byte, sensor SensorID) []byte {
	mac := hmac.New(sha256.New, master)
	mac.Write([]byte("wiot-psk-v3"))
	mac.Write([]byte{byte(sensor)})
	return mac.Sum(nil)
}

// KeyStoreFromMaster provisions a store with derived keys for the given
// sensors.
func KeyStoreFromMaster(master []byte, sensors ...SensorID) *KeyStore {
	ks := NewKeyStore()
	for _, s := range sensors {
		// Derived keys are 32 bytes, always above the floor.
		_ = ks.Set(s, DeriveSensorKey(master, s))
	}
	return ks
}

// authNonces feeds the deterministic nonce stream: a process-wide
// counter keyed through the PSK (see the package comment on why not
// crypto/rand).
var authNonces atomic.Uint64

func deriveNonce(key []byte, label string) uint64 {
	n := authNonces.Add(1)
	mac := hmac.New(sha256.New, key)
	mac.Write([]byte(label))
	var ctr [8]byte
	binary.LittleEndian.PutUint64(ctr[:], n)
	mac.Write(ctr[:])
	return binary.LittleEndian.Uint64(mac.Sum(nil))
}

// authTranscript is the byte string every handshake MAC and the session
// key bind: both parties must agree on sensor, algorithm, session id,
// and both nonces, or the MACs diverge.
func authTranscript(sensor SensorID, alg MACAlg, sid uint32, clientNonce, stationNonce uint64) []byte {
	buf := make([]byte, 0, 22)
	buf = append(buf, byte(sensor), byte(alg))
	buf = binary.LittleEndian.AppendUint32(buf, sid)
	buf = binary.LittleEndian.AppendUint64(buf, clientNonce)
	buf = binary.LittleEndian.AppendUint64(buf, stationNonce)
	return buf
}

// authHandshakeMAC computes a truncated handshake MAC over the labeled
// transcript with the PSK.
func authHandshakeMAC(psk []byte, label string, transcript []byte) [authProofSize]byte {
	mac := hmac.New(sha256.New, psk)
	mac.Write([]byte(label))
	mac.Write(transcript)
	var out [authProofSize]byte
	copy(out[:], mac.Sum(nil))
	return out
}

// deriveSessionKey derives the per-session frame-MAC key.
func deriveSessionKey(psk []byte, transcript []byte) []byte {
	mac := hmac.New(sha256.New, psk)
	mac.Write([]byte("wiot-skey-v3"))
	mac.Write(transcript)
	return mac.Sum(nil)
}

// Session is an established v3 session: the id the station allocated
// plus the derived frame-MAC key. It is safe for concurrent use: the
// keyed MAC state, built on first use and reused for every frame after,
// is guarded by a mutex.
type Session struct {
	ID     uint32
	Sensor SensorID
	Alg    MACAlg
	key    []byte

	mu  sync.Mutex
	mac *frameMAC
}

// ForgeSession builds a Session from attacker-chosen parameters, for
// attack tooling and tests: the returned session seals frames that are
// wire-valid (self-consistent CRC and MAC) but that a station only
// accepts if it actually negotiated the same id and key on that
// connection. Short keys are zero-padded to the session key size so any
// guess is usable.
func ForgeSession(id uint32, sensor SensorID, alg MACAlg, key []byte) *Session {
	if !alg.valid() {
		alg = MACHMAC
	}
	k := append([]byte(nil), key...)
	for len(k) < authKeySize {
		k = append(k, 0)
	}
	return &Session{ID: id, Sensor: sensor, Alg: alg, key: k[:authKeySize]}
}

// SealFrame serializes the frame as an authenticated v3 record:
// the standard encoding under the v3 magic, then the session id, the
// truncated MAC over everything so far, and the CRC32-C trailer. The
// MAC covers the sequence number in the header, so a frame cannot be
// replayed at a different window position, and the session id, so a
// frame cannot be spliced into another session.
func (s *Session) SealFrame(f *Frame) ([]byte, error) {
	if err := f.check(); err != nil {
		return nil, err
	}
	return s.seal(f.appendBody(nil, frameMagicV3, authTrailerSize), 0), nil
}

// seal turns buf[start:], a frame body under any frame magic, into a v3
// record in place: the v3 magic, then the session id, the MAC and the
// CRC trailer appended. The reconnect sink seals its buffered v2 bodies
// at transmit time, straight into its batch buffer, so frames buffered
// before a reconnect are re-MAC'd under the new session's id and key.
func (s *Session) seal(buf []byte, start int) []byte {
	buf[start] = frameMagicV3
	buf = binary.LittleEndian.AppendUint32(buf, s.ID)
	s.mu.Lock()
	if s.mac == nil {
		s.mac = newFrameMAC(s.key, s.Alg)
	}
	tag := s.mac.tag(buf[start:])
	s.mu.Unlock()
	buf = binary.LittleEndian.AppendUint64(buf, tag)
	return appendCRC(buf, start)
}

// frameMAC is one session key's keyed frame-MAC state, built once per
// session and reused for every frame: the HMAC is keyed once and Reset
// per frame, the CMAC keeps its AES block and subkeys. Its tags are
// those of a fresh hmac.New / aesCMAC under the same key. It is not safe
// for concurrent use; a Session guards its own with a mutex, and the
// station's per-connection session is owned by one goroutine.
type frameMAC struct {
	alg  MACAlg
	hmac hash.Hash
	cmac cmacState
	sum  [sha256.Size]byte
}

func newFrameMAC(key []byte, alg MACAlg) *frameMAC {
	m := &frameMAC{alg: alg}
	if alg == MACCMAC {
		m.cmac = newCMAC(key[:authCMACKeySize])
	} else {
		m.hmac = hmac.New(sha256.New, key)
	}
	return m
}

// tag computes the truncated per-frame MAC over msg (the v3 record bytes
// up to and including the session id).
func (m *frameMAC) tag(msg []byte) uint64 {
	if m.alg == MACCMAC {
		t := m.cmac.sum(msg)
		return binary.LittleEndian.Uint64(t[:authTagSize])
	}
	m.hmac.Reset()
	m.hmac.Write(msg)
	return binary.LittleEndian.Uint64(m.hmac.Sum(m.sum[:0])[:authTagSize])
}

// cmacState is one AES-128-CMAC (RFC 4493) key: the expanded AES block,
// the K1/K2 subkeys, and scratch blocks, so a tag costs only the block
// encryptions. The Go standard library ships no CMAC and the module
// takes no dependencies, so the ~40 lines live here; the RFC vector and
// cross-alg tests pin them against the spec's subkey/padding rules. It
// is not safe for concurrent use.
type cmacState struct {
	block   cipher.Block
	k1, k2  [16]byte
	x, last [16]byte
}

func newCMAC(key []byte) cmacState {
	block, err := aes.NewCipher(key)
	if err != nil {
		// Key sizes are fixed by the caller; an error here is a
		// programming bug, and a zero tag would verify nothing.
		panic(fmt.Sprintf("wiot: aesCMAC: %v", err))
	}
	c := cmacState{block: block}
	block.Encrypt(c.k1[:], c.k1[:])
	cmacDouble(&c.k1)
	c.k2 = c.k1
	cmacDouble(&c.k2)
	return c
}

// sum returns the untruncated CMAC tag over msg.
func (c *cmacState) sum(msg []byte) [16]byte {
	x, last := &c.x, &c.last
	*x = [16]byte{}
	full := len(msg) / 16
	rem := len(msg) % 16
	lastComplete := rem == 0 && len(msg) > 0
	if lastComplete {
		full--
	}
	for i := 0; i < full; i++ {
		for j := 0; j < 16; j++ {
			x[j] ^= msg[16*i+j]
		}
		c.block.Encrypt(x[:], x[:])
	}
	*last = [16]byte{}
	if lastComplete {
		copy(last[:], msg[len(msg)-16:])
		for j := 0; j < 16; j++ {
			last[j] ^= c.k1[j]
		}
	} else {
		copy(last[:], msg[16*full:])
		last[rem] = 0x80
		for j := 0; j < 16; j++ {
			last[j] ^= c.k2[j]
		}
	}
	for j := 0; j < 16; j++ {
		x[j] ^= last[j]
	}
	c.block.Encrypt(x[:], x[:])
	return *x
}

// cmacDouble is the GF(2^128) doubling step of RFC 4493 subkey
// generation: left-shift by one, conditionally XOR the field constant.
func cmacDouble(v *[16]byte) {
	var carry byte
	for i := 15; i >= 0; i-- {
		t := v[i]
		v[i] = v[i]<<1 | carry
		carry = t >> 7
	}
	if carry != 0 {
		v[15] ^= 0x87
	}
}

// AuthConfig provisions the sensor side of the v3 handshake.
type AuthConfig struct {
	// Key is the sensor's PSK (>= 16 bytes).
	Key []byte
	// Sensor is the channel this client authenticates as; a station
	// session only accepts frames and gap declarations for it.
	Sensor SensorID
	// Alg selects the per-frame MAC primitive; zero means MACHMAC.
	Alg MACAlg
	// Timeout bounds each handshake read so a station that dies
	// mid-dial cannot wedge the client; zero means DefaultDialTimeout.
	Timeout time.Duration
}

func (c AuthConfig) withDefaults() AuthConfig {
	if c.Alg == 0 {
		c.Alg = MACHMAC
	}
	if c.Timeout <= 0 {
		c.Timeout = DefaultDialTimeout
	}
	return c
}

// Handshake performs the sensor-side onboarding exchange on a fresh
// connection: hello, auth hello, challenge, response, station proof.
// On success the returned session seals frames for this connection;
// the station will reject everything else.
func Handshake(conn net.Conn, cfg AuthConfig) (*Session, error) {
	if err := writeDeadlined(conn, appendCtrl(nil, ctrlRecord{Kind: ctrlHello}), cfg.Timeout); err != nil {
		return nil, err
	}
	return clientHandshake(conn, newFrameScanner(conn), cfg, cfg.Timeout)
}

func writeDeadlined(conn net.Conn, payload []byte, timeout time.Duration) error {
	if timeout > 0 {
		if err := conn.SetWriteDeadline(time.Now().Add(timeout)); err != nil {
			return err
		}
	}
	_, err := conn.Write(payload)
	return err
}

// clientHandshake runs the exchange over an existing scanner (the
// reconnect sink shares one scanner between the handshake and its ack
// reader, so no station bytes are lost in a private buffer). The read
// deadline is armed for the exchange and cleared before returning, so
// the caller's ack reads block indefinitely as before.
func clientHandshake(conn net.Conn, sc *frameScanner, cfg AuthConfig, writeTimeout time.Duration) (*Session, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Key) < authMinPSKLength {
		return nil, fmt.Errorf("%w: PSK is %d bytes, need >= %d", ErrAuthFailed, len(cfg.Key), authMinPSKLength)
	}
	if !cfg.Sensor.Valid() {
		return nil, fmt.Errorf("%w: %d", ErrBadSensor, cfg.Sensor)
	}
	if err := conn.SetReadDeadline(time.Now().Add(cfg.Timeout)); err != nil {
		return nil, err
	}
	defer func() {
		_ = conn.SetReadDeadline(time.Time{})
	}()

	clientNonce := deriveNonce(cfg.Key, "wiot-cnonce-v3")
	hello := ctrlRecord{Kind: ctrlAuthHello, Sensor: cfg.Sensor, Alg: cfg.Alg, Nonce: clientNonce}
	if err := writeDeadlined(conn, appendCtrl(nil, hello), writeTimeout); err != nil {
		return nil, err
	}

	challenge, err := readAuthReply(sc, ctrlAuthChallenge, cfg.Sensor)
	if err != nil {
		return nil, err
	}
	transcript := authTranscript(cfg.Sensor, cfg.Alg, challenge.SID, clientNonce, challenge.Nonce)
	resp := ctrlRecord{
		Kind:   ctrlAuthResponse,
		Sensor: cfg.Sensor,
		SID:    challenge.SID,
		Mac:    authHandshakeMAC(cfg.Key, "wiot-resp-v3", transcript),
	}
	if err := writeDeadlined(conn, appendCtrl(nil, resp), writeTimeout); err != nil {
		return nil, err
	}

	ok, err := readAuthReply(sc, ctrlAuthOK, cfg.Sensor)
	if err != nil {
		return nil, err
	}
	proof := authHandshakeMAC(cfg.Key, "wiot-ok-v3", transcript)
	if ok.SID != challenge.SID || !hmac.Equal(ok.Mac[:], proof[:]) {
		// Mutual authentication: a station that cannot prove knowledge
		// of the PSK gets no frames.
		return nil, fmt.Errorf("%w: station proof did not verify", ErrAuthFailed)
	}
	return &Session{
		ID:     challenge.SID,
		Sensor: cfg.Sensor,
		Alg:    cfg.Alg,
		key:    deriveSessionKey(cfg.Key, transcript),
	}, nil
}

// readAuthReply scans for the expected station auth record, tolerating
// interleaved non-auth control traffic and surfacing rejections typed.
func readAuthReply(sc *frameScanner, want ctrlKind, sensor SensorID) (ctrlRecord, error) {
	for {
		rec, err := sc.next()
		if err != nil {
			return ctrlRecord{}, err
		}
		if !rec.isCtrl {
			continue
		}
		switch rec.ctrl.Kind {
		case ctrlAuthReject:
			return ctrlRecord{}, fmt.Errorf("%w (code %d)", ErrAuthRejected, rec.ctrl.Seq)
		case want:
			if rec.ctrl.Sensor != sensor {
				return ctrlRecord{}, fmt.Errorf("%w: challenge for %s, expected %s", ErrAuthFailed, rec.ctrl.Sensor, sensor)
			}
			return rec.ctrl, nil
		case ctrlAck, ctrlNack, ctrlGap, ctrlHello, ctrlTrace:
			continue
		default:
			return ctrlRecord{}, fmt.Errorf("%w: unexpected %d record mid-handshake", ErrAuthFailed, rec.ctrl.Kind)
		}
	}
}
