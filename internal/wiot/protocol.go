package wiot

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"github.com/wiot-security/sift/internal/fixedpoint"
)

// The wire protocol. The sensor→station byte stream is a sequence of
// records, each starting with a magic byte:
//
//	0xA7  checksummed frame   — v2: the frame body (frame.go) under magic
//	                            0xA7, then a CRC32-C trailer over every
//	                            preceding byte of the record
//	0xA9  authenticated frame — v3: the checksummed layout followed by
//	                            [sid u32 LE, mac u64 LE] before the CRC
//	                            trailer; the truncated MAC covers every
//	                            byte up to and including the session id
//	0x5C  control record      — [magic, kind, sensor, seq u32 LE, crc u32 LE]
//	                            (kinds 5–9 use wider layouts, sized below)
//
// Every record carries a CRC, so no unchecked byte reaches a station. A
// bare frame body (magic 0xA5) is not a record: a receiver treats it as
// junk. The station→sensor direction carries only control records
// (acks, nacks, and the station's half of the auth handshake). A
// receiver that loses framing — a corrupted length field, a mid-frame
// cut followed by a reconnect replay — scans forward to the next
// plausible magic byte instead of dropping the connection; the CRC
// trailers make a phantom record (a magic byte inside payload data)
// vanishingly unlikely to be accepted.
const (
	frameMagicV2 = 0xA7
	frameMagicV3 = 0xA9
	ctrlMagic    = 0x5C

	frameHeaderSize = 8 // magic, sensor, seq u32, count u16
	crcSize         = 4
	ctrlRecordSize  = 11
	ctrlTraceSize   = 23 // magic, kind, sensor, span u64, parent u64, crc u32

	ctrlAuthHelloSize     = 16 // magic, kind, sensor, alg u8, nonce u64, crc u32
	ctrlAuthChallengeSize = 19 // magic, kind, sensor, sid u32, nonce u64, crc u32
	ctrlAuthProofSize     = 27 // magic, kind, sensor, sid u32, mac [16], crc u32
)

// crcTable is the Castagnoli polynomial every v2 record is summed with.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Protocol-level errors (the codec errors ErrBadMagic etc. live in
// frame.go).
var (
	ErrBadChecksum = errors.New("wiot: frame checksum mismatch")
	ErrBadControl  = errors.New("wiot: malformed control record")
)

// ctrlKind discriminates control records.
type ctrlKind byte

const (
	// ctrlAck (station→sensor): every frame of Sensor with seq <= Seq has
	// been handled.
	ctrlAck ctrlKind = iota + 1
	// ctrlNack (station→sensor): the station needs Seq next for Sensor;
	// the sender should rewind and retransmit from there.
	ctrlNack
	// ctrlGap (sensor→station): the sender will never deliver seqs below
	// Seq for Sensor (they were dropped under buffer pressure); stop
	// waiting, and conceal them (or resync, past the concealment bound)
	// when Seq arrives.
	ctrlGap
	// ctrlHello (sensor→station): sent first on every connection by a
	// reliable sender. Receivers ignore it; it stays on the wire so a
	// sender's byte stream is unchanged.
	ctrlHello
	// ctrlTrace (sensor→station): trace-context propagation — the sink's
	// connection span ID and its fleet-side parent, sent once after hello
	// so station-side spans can join the coordinator's trace tree. Uses
	// the longer ctrlTraceSize layout (span/parent are u64s, no seq).
	ctrlTrace
	// ctrlAuthHello (sensor→station): opens the v3 handshake — announces
	// the sensor, the frame-MAC algorithm, and a client nonce.
	// Layout: [magic, kind, sensor, alg u8, nonce u64 LE, crc].
	ctrlAuthHello
	// ctrlAuthChallenge (station→sensor): the station's reply — the
	// allocated session id and a station nonce.
	// Layout: [magic, kind, sensor, sid u32 LE, nonce u64 LE, crc].
	ctrlAuthChallenge
	// ctrlAuthResponse (sensor→station): the client's proof —
	// HMAC-SHA256(psk, transcript) truncated to 16 bytes.
	// Layout: [magic, kind, sensor, sid u32 LE, mac [16], crc].
	ctrlAuthResponse
	// ctrlAuthOK (station→sensor): the station's own proof over the same
	// transcript (mutual authentication); the session is live once the
	// client verifies it. Same layout as ctrlAuthResponse.
	ctrlAuthOK
	// ctrlAuthReject (station→sensor): the handshake failed; Seq carries
	// a reject code. Classic 11-byte layout.
	ctrlAuthReject
)

// ctrlSize returns the wire size of a control record of the given kind,
// or 0 for an unknown kind.
func ctrlSize(k ctrlKind) int {
	switch k {
	case ctrlAck, ctrlNack, ctrlGap, ctrlHello, ctrlAuthReject:
		return ctrlRecordSize
	case ctrlTrace:
		return ctrlTraceSize
	case ctrlAuthHello:
		return ctrlAuthHelloSize
	case ctrlAuthChallenge:
		return ctrlAuthChallengeSize
	case ctrlAuthResponse, ctrlAuthOK:
		return ctrlAuthProofSize
	}
	return 0
}

// ctrlRecord is one parsed control record. Span/Parent are populated only
// for ctrlTrace records; Alg/SID/Nonce/Mac only for the auth kinds. The
// classic ack/nack/gap/hello kinds use Seq alone (ctrlAuthReject reuses
// Seq for its reject code).
type ctrlRecord struct {
	Kind   ctrlKind
	Sensor SensorID
	Seq    uint32
	Span   uint64
	Parent uint64
	Alg    MACAlg
	SID    uint32
	Nonce  uint64
	Mac    [authProofSize]byte
}

// appendCRC seals the record that starts at buf[start] with its CRC32-C
// trailer over every byte of it so far.
func appendCRC(buf []byte, start int) []byte {
	return binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf[start:], crcTable))
}

// appendCtrl serializes a control record, CRC included, in the layout of
// its kind.
func appendCtrl(buf []byte, c ctrlRecord) []byte {
	start := len(buf)
	buf = append(buf, ctrlMagic, byte(c.Kind), byte(c.Sensor))
	switch c.Kind {
	case ctrlTrace:
		buf = binary.LittleEndian.AppendUint64(buf, c.Span)
		buf = binary.LittleEndian.AppendUint64(buf, c.Parent)
	case ctrlAuthHello:
		buf = append(buf, byte(c.Alg))
		buf = binary.LittleEndian.AppendUint64(buf, c.Nonce)
	case ctrlAuthChallenge:
		buf = binary.LittleEndian.AppendUint32(buf, c.SID)
		buf = binary.LittleEndian.AppendUint64(buf, c.Nonce)
	case ctrlAuthResponse, ctrlAuthOK:
		buf = binary.LittleEndian.AppendUint32(buf, c.SID)
		buf = append(buf, c.Mac[:]...)
	default:
		buf = binary.LittleEndian.AppendUint32(buf, c.Seq)
	}
	return appendCRC(buf, start)
}

// decodeCtrl parses one control record. The buffer must hold exactly the
// record for its kind (PeekRecord sizes it before the scanner slices).
func decodeCtrl(buf []byte) (ctrlRecord, error) {
	if len(buf) < ctrlRecordSize || buf[0] != ctrlMagic {
		return ctrlRecord{}, ErrBadControl
	}
	kind := ctrlKind(buf[1])
	size := ctrlSize(kind)
	if size == 0 {
		return ctrlRecord{}, fmt.Errorf("%w: kind %d", ErrBadControl, buf[1])
	}
	if len(buf) < size {
		return ctrlRecord{}, ErrBadControl
	}
	if sum := crc32.Checksum(buf[:size-crcSize], crcTable); sum != binary.LittleEndian.Uint32(buf[size-crcSize:]) {
		return ctrlRecord{}, fmt.Errorf("%w: %v", ErrBadControl, ErrBadChecksum)
	}
	c := ctrlRecord{
		Kind:   kind,
		Sensor: SensorID(buf[2]),
	}
	switch kind {
	case ctrlTrace:
		c.Span = binary.LittleEndian.Uint64(buf[3:])
		c.Parent = binary.LittleEndian.Uint64(buf[11:])
	case ctrlAuthHello:
		c.Alg = MACAlg(buf[3])
		c.Nonce = binary.LittleEndian.Uint64(buf[4:])
	case ctrlAuthChallenge:
		c.SID = binary.LittleEndian.Uint32(buf[3:])
		c.Nonce = binary.LittleEndian.Uint64(buf[7:])
	case ctrlAuthResponse, ctrlAuthOK:
		c.SID = binary.LittleEndian.Uint32(buf[3:])
		copy(c.Mac[:], buf[7:7+authProofSize])
	default:
		c.Seq = binary.LittleEndian.Uint32(buf[3:])
	}
	return c, nil
}

// EncodeChecksummed serializes the frame as a v2 record: the frame body
// under the v2 magic and a CRC32-C trailer, so the receiver can reject
// in-flight byte corruption instead of classifying garbage.
func (f *Frame) EncodeChecksummed() ([]byte, error) {
	if err := f.check(); err != nil {
		return nil, err
	}
	return f.appendChecksummed(nil), nil
}

// appendChecksummed appends the frame, which check accepts, to buf as a
// v2 record.
func (f *Frame) appendChecksummed(buf []byte) []byte {
	return appendCRC(f.appendBody(buf, frameMagicV2, crcSize), len(buf))
}

// RecordKind classifies a wire record for stream middleware (the chaos
// proxy uses it to fault frames while passing control traffic through).
type RecordKind byte

const (
	// RecordFrameChecksummed is a v2 frame with a CRC32-C trailer.
	RecordFrameChecksummed RecordKind = iota + 1
	// RecordControl is an ack/nack/gap/hello/auth control record.
	RecordControl
	// RecordFrameAuth is a v3 frame: the checksummed layout plus a
	// session id and truncated MAC before the CRC trailer.
	RecordFrameAuth
)

// RecordInfo describes the record starting at the head of a byte stream.
type RecordInfo struct {
	Kind RecordKind
	Len  int // total record length in bytes, trailer included
}

// PeekRecord inspects the prefix of a wire stream and sizes the record
// starting at buf[0]. It returns ErrShortFrame when more bytes are needed
// to decide, and ErrBadMagic / ErrBadSensor / ErrFrameSize / ErrBadControl
// when buf[0] cannot start a well-formed record (the caller should skip
// one byte and rescan). It validates only the header, not payloads or
// checksums.
func PeekRecord(buf []byte) (RecordInfo, error) {
	if len(buf) == 0 {
		return RecordInfo{}, ErrShortFrame
	}
	switch buf[0] {
	case frameMagicV2, frameMagicV3:
		if len(buf) < frameHeaderSize {
			return RecordInfo{}, ErrShortFrame
		}
		if !SensorID(buf[1]).Valid() {
			return RecordInfo{}, fmt.Errorf("%w: %d", ErrBadSensor, buf[1])
		}
		n := int(binary.LittleEndian.Uint16(buf[6:]))
		if n > MaxFrameSamples {
			return RecordInfo{}, fmt.Errorf("%w: %d samples", ErrFrameSize, n)
		}
		if buf[0] == frameMagicV3 {
			return RecordInfo{Kind: RecordFrameAuth, Len: EncodedSize(n) + authTrailerSize}, nil
		}
		return RecordInfo{Kind: RecordFrameChecksummed, Len: EncodedSize(n) + crcSize}, nil
	case ctrlMagic:
		if len(buf) < 2 {
			return RecordInfo{}, ErrShortFrame
		}
		size := ctrlSize(ctrlKind(buf[1]))
		if size == 0 {
			return RecordInfo{}, fmt.Errorf("%w: kind %d", ErrBadControl, buf[1])
		}
		return RecordInfo{Kind: RecordControl, Len: size}, nil
	default:
		return RecordInfo{}, ErrBadMagic
	}
}

// wireRecord is one record surfaced by the scanner: exactly one of
// isFrame/isCtrl is set. Every frame carried a verified CRC. The frame's
// samples are the scanner's scratch buffer: borrowed, valid until the
// next call to next.
type wireRecord struct {
	frame   Frame
	isFrame bool
	ctrl    ctrlRecord
	isCtrl  bool

	// v3 fields: the claimed session id, the truncated MAC, and the raw
	// bytes the MAC covers. The scanner verifies only the CRC — the MAC
	// needs the session key, which lives with the station's per-conn
	// state. macMsg aliases the scanner's buffer and is valid until the
	// next call to next.
	authed bool
	sid    uint32
	mac    uint64
	macMsg []byte
}

// frameScanner reads wire records from a byte stream, resynchronizing
// after corruption: a record that fails header validation or its CRC
// costs the stream one byte, and the scanner hunts for the next magic
// byte instead of surfacing an error. Only I/O failures (including a
// disconnect mid-record, reported as io.ErrUnexpectedEOF) terminate it.
type frameScanner struct {
	src     io.Reader
	buf     []byte         // unparsed bytes, a window into back
	back    []byte         // retained backing array buf rewinds to
	samples []fixedpoint.Q // scratch every data record's samples decode into
	inJunk  bool

	resyncs int64 // contiguous runs of skipped bytes
	skipped int64 // total bytes discarded
}

func newFrameScanner(src io.Reader) *frameScanner {
	return &frameScanner{src: src}
}

// scanChunk is the most one fill reads from the source.
const scanChunk = 4096

// fill reads the next chunk from the source straight into the buffer. A
// read that moves bytes never surfaces its error — the next fill will.
//
// The buffer rewinds to the front of its retained backing array whenever
// it is empty, or when the room behind it is short of a chunk; the bytes
// that move are at most one partial record. So a long stream costs no
// buffer allocations, and a record's bytes (wireRecord.macMsg) stay put
// until the next call to next.
func (s *frameScanner) fill() error {
	if len(s.buf) == 0 || cap(s.buf)-len(s.buf) < scanChunk {
		if len(s.buf)+scanChunk > cap(s.back) {
			s.back = make([]byte, 0, len(s.buf)+2*scanChunk)
		}
		s.buf = append(s.back[:0], s.buf...)
	}
	for {
		n, err := s.src.Read(s.buf[len(s.buf) : len(s.buf)+scanChunk])
		if n > 0 {
			s.buf = s.buf[:len(s.buf)+n]
			return nil
		}
		if err != nil {
			return err
		}
	}
}

// ready reports whether next can return a record without reading from
// the source: the buffer opens with a complete record whose CRC holds. A
// partial record, junk at the head, or a corrupt record reports false,
// so a caller that flushes before a read the scanner may block on never
// skips that flush.
func (s *frameScanner) ready() bool {
	info, err := PeekRecord(s.buf)
	return err == nil && len(s.buf) >= info.Len && crcOK(s.buf[:info.Len])
}

// crcOK reports whether a complete record's CRC32-C trailer matches
// every byte before it.
func crcOK(raw []byte) bool {
	n := len(raw) - crcSize
	return crc32.Checksum(raw[:n], crcTable) == binary.LittleEndian.Uint32(raw[n:])
}

// skipByte discards the head byte as junk, opening a resync run if the
// scanner was in sync.
func (s *frameScanner) skipByte() {
	if !s.inJunk {
		s.resyncs++
		s.inJunk = true
	}
	s.skipped++
	s.buf = s.buf[1:]
}

// needMore tops the buffer up for a partially-received record, mapping a
// clean EOF mid-record to io.ErrUnexpectedEOF (a mid-frame disconnect is
// not a graceful close).
func (s *frameScanner) needMore() error {
	if err := s.fill(); err != nil {
		if errors.Is(err, io.EOF) && len(s.buf) > 0 {
			return fmt.Errorf("wiot: disconnect mid-record: %w", io.ErrUnexpectedEOF)
		}
		return err
	}
	return nil
}

// next returns the next well-formed record, or an I/O error.
func (s *frameScanner) next() (wireRecord, error) {
	for {
		if len(s.buf) == 0 {
			if err := s.fill(); err != nil {
				return wireRecord{}, err
			}
		}
		info, err := PeekRecord(s.buf)
		switch {
		case err == nil:
		case errors.Is(err, ErrShortFrame):
			if err := s.needMore(); err != nil {
				return wireRecord{}, err
			}
			continue
		default:
			s.skipByte()
			continue
		}
		if len(s.buf) < info.Len {
			if err := s.needMore(); err != nil {
				return wireRecord{}, err
			}
			continue
		}
		raw := s.buf[:info.Len]
		if info.Kind == RecordControl {
			c, err := decodeCtrl(raw)
			if err != nil {
				s.skipByte()
				continue
			}
			s.consume(info.Len)
			return wireRecord{ctrl: c, isCtrl: true}, nil
		}
		if !crcOK(raw) {
			s.skipByte()
			continue
		}
		body := raw[:info.Len-crcSize]
		f, _, err := decodeBody(body, raw[0], s.samples)
		if err != nil {
			s.skipByte()
			continue
		}
		s.samples = f.Samples
		s.consume(info.Len)
		rec := wireRecord{frame: f, isFrame: true}
		if info.Kind == RecordFrameAuth {
			// body = frame bytes ‖ sid ‖ mac; the MAC covers everything
			// through the sid.
			msg := body[:len(body)-authTagSize]
			rec.authed = true
			rec.macMsg = msg
			rec.mac = binary.LittleEndian.Uint64(body[len(msg):])
			rec.sid = binary.LittleEndian.Uint32(msg[len(msg)-authSIDSize:])
		}
		return rec, nil
	}
}

// consume drops a successfully parsed record from the head of the buffer
// and closes any open resync run.
func (s *frameScanner) consume(n int) {
	s.buf = s.buf[n:]
	s.inJunk = false
}

// RepairRecordCRC recomputes the CRC32-C trailer of a complete
// checksummed record in place, so stream middleware (the chaos
// adversary) can tamper with record bytes and still present a
// CRC-valid record — the class of forgery only a v3 MAC catches.
// Returns false when the buffer is not a single well-formed record.
func RepairRecordCRC(rec []byte) bool {
	info, err := PeekRecord(rec)
	if err != nil || len(rec) != info.Len {
		return false
	}
	binary.LittleEndian.PutUint32(rec[info.Len-crcSize:], crc32.Checksum(rec[:info.Len-crcSize], crcTable))
	return true
}

// EncodeGapRecord encodes a sensor→station gap declaration ("drop
// everything below seq"). Exported for attack tooling: a forged gap is
// the cheapest way to make a station skip frames it could still
// receive, which is exactly what the authenticated wire must refuse
// from a peer that has not established a session for that sensor.
func EncodeGapRecord(sensor SensorID, seq uint32) []byte {
	return appendCtrl(nil, ctrlRecord{Kind: ctrlGap, Sensor: sensor, Seq: seq})
}
