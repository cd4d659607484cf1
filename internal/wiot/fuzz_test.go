package wiot

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"math/rand"
	"slices"
	"testing"

	"github.com/wiot-security/sift/internal/fixedpoint"
)

// randomFrame builds a valid frame with rng-driven contents.
func randomFrame(rng *rand.Rand) Frame {
	sensor := SensorECG
	if rng.Intn(2) == 1 {
		sensor = SensorABP
	}
	samples := make([]fixedpoint.Q, rng.Intn(MaxFrameSamples+1))
	for i := range samples {
		samples[i] = fixedpoint.FromRaw(int32(rng.Uint32()))
	}
	return Frame{Sensor: sensor, Seq: rng.Uint32(), Samples: samples}
}

// FuzzFrameRoundTrip feeds arbitrary bytes to the frame-body decoder
// and to the station's wire scanner. Neither may panic. Whenever the
// decoder accepts an input, re-encoding the decoded frame must
// reproduce exactly the bytes consumed — the body codec is canonical.
// The scanner is held to the same rule per surfaced record, and may
// surface only CRC-valid records, never a bare 0xA5 frame body. The
// reuse paths must not leak stale bytes: decoding into a dirty scratch
// buffer equals a fresh DecodeFrame, and encoding into a dirty recycled
// buffer, as the reconnect sink does, equals EncodeChecksummed.
func FuzzFrameRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{frameMagic})
	f.Add([]byte{frameMagic, byte(SensorECG), 0, 0, 0, 0, 0, 0})
	f.Add([]byte{frameMagic, byte(SensorABP), 1, 0, 0, 0, 2, 0, 0xAA, 0xBB, 0xCC, 0xDD})
	fr := Frame{Sensor: SensorECG, Seq: 7, Samples: []fixedpoint.Q{fixedpoint.FromFloat(1.5)}}
	seed, err := fr.Encode()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	v2, err := fr.EncodeChecksummed()
	if err != nil {
		f.Fatal(err)
	}
	v3, err := ForgeSession(3, SensorECG, MACHMAC, []byte("fuzz")).SealFrame(&fr)
	if err != nil {
		f.Fatal(err)
	}
	ctrl := appendCtrl(nil, ctrlRecord{Kind: ctrlAck, Sensor: SensorABP, Seq: 9})
	f.Add(v2)
	f.Add(v3)
	f.Add(append(append(append(append([]byte{0x13}, seed...), v2...), ctrl...), v3...))

	f.Fuzz(func(t *testing.T, data []byte) {
		checkBodyRoundTrip(t, data)
		checkScannerRoundTrip(t, data)
	})
}

// dirtySamples returns a full-size sample buffer holding garbage.
func dirtySamples() []fixedpoint.Q {
	q := make([]fixedpoint.Q, MaxFrameSamples)
	garbage(q)
	return q
}

// checkBodyRoundTrip holds DecodeFrame to the canonical body encoding,
// and decoding into a dirty scratch buffer to DecodeFrame.
func checkBodyRoundTrip(t *testing.T, data []byte) {
	fr, n, err := DecodeFrame(data)
	reused, rn, rerr := decodeBody(data, frameMagic, dirtySamples())
	if (err == nil) != (rerr == nil) || rn != n || !slices.Equal(reused.Samples, fr.Samples) || reused.Sensor != fr.Sensor || reused.Seq != fr.Seq {
		t.Fatalf("decoding into a dirty buffer gave %+v, %d, %v; DecodeFrame %+v, %d, %v", reused, rn, rerr, fr, n, err)
	}
	if err != nil {
		return
	}
	if n < EncodedSize(0) || n > len(data) {
		t.Fatalf("consumed %d of %d bytes", n, len(data))
	}
	if n != EncodedSize(len(fr.Samples)) {
		t.Fatalf("consumed %d bytes for %d samples, want %d", n, len(fr.Samples), EncodedSize(len(fr.Samples)))
	}
	enc, err := fr.Encode()
	if err != nil {
		t.Fatalf("re-encoding a decoded frame failed: %v", err)
	}
	if !bytes.Equal(enc, data[:n]) {
		t.Fatalf("round trip diverged:\n in: %x\nout: %x", data[:n], enc)
	}
}

// checkScannerRoundTrip drives the station's frameScanner over data and
// checks every surfaced record against the exact bytes it consumed.
func checkScannerRoundTrip(t *testing.T, data []byte) {
	src := bytes.NewReader(data)
	sc := newFrameScanner(src)
	sc.samples = dirtySamples()
	// recycled plays a sink's released payload buffer: it starts as
	// garbage and then holds the previous record.
	recycled := bytes.Repeat([]byte{0xEE}, 64)
	prevEnd, prevSkipped := 0, int64(0)
	for {
		rec, err := sc.next()
		if err != nil {
			if !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Fatalf("scanner over an in-memory stream failed: %v", err)
			}
			return
		}
		// Skipped junk sits between the previous record and this one.
		end := len(data) - src.Len() - len(sc.buf)
		raw := data[prevEnd+int(sc.skipped-prevSkipped) : end]
		prevEnd, prevSkipped = end, sc.skipped
		if raw[0] == frameMagic {
			t.Fatalf("scanner surfaced a bare frame body: %x", raw)
		}
		if len(raw) < crcSize || crc32.Checksum(raw[:len(raw)-crcSize], crcTable) != binary.LittleEndian.Uint32(raw[len(raw)-crcSize:]) {
			t.Fatalf("scanner surfaced a record without a valid CRC: %x", raw)
		}
		var enc []byte
		switch {
		case rec.isCtrl:
			enc = appendCtrl(nil, rec.ctrl)
		case rec.authed:
			if !bytes.Equal(rec.macMsg, raw[:len(raw)-authTagSize-crcSize]) {
				t.Fatalf("MAC message %x is not the record prefix %x", rec.macMsg, raw)
			}
			enc = rec.frame.appendBody(nil, frameMagicV3, authTrailerSize)
			enc = binary.LittleEndian.AppendUint32(enc, rec.sid)
			enc = appendCRC(binary.LittleEndian.AppendUint64(enc, rec.mac), 0)
		default:
			enc, err = rec.frame.EncodeChecksummed()
			recycled = rec.frame.appendChecksummed(recycled[:0])
			if err == nil && !bytes.Equal(recycled, enc) {
				t.Fatalf("encoding into a recycled buffer gave %x, EncodeChecksummed %x", recycled, enc)
			}
		}
		if err != nil {
			t.Fatalf("re-encoding a surfaced record failed: %v", err)
		}
		if !bytes.Equal(enc, raw) {
			t.Fatalf("record round trip diverged:\n in: %x\nout: %x", raw, enc)
		}
	}
}

// TestFrameRoundTripRandom is the deterministic counterpart of the fuzz
// target (it always runs under plain `go test`): random valid frames
// must survive encode/decode exactly.
func TestFrameRoundTripRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 300; trial++ {
		in := randomFrame(rng)
		buf, err := in.Encode()
		if err != nil {
			t.Fatalf("trial %d: encode: %v", trial, err)
		}
		out, n, err := DecodeFrame(buf)
		if err != nil {
			t.Fatalf("trial %d: decode: %v", trial, err)
		}
		if n != len(buf) {
			t.Fatalf("trial %d: consumed %d of %d bytes", trial, n, len(buf))
		}
		if out.Sensor != in.Sensor || out.Seq != in.Seq || len(out.Samples) != len(in.Samples) {
			t.Fatalf("trial %d: header mismatch: %+v vs %+v", trial, out, in)
		}
		for i := range in.Samples {
			if out.Samples[i] != in.Samples[i] {
				t.Fatalf("trial %d: sample %d = %v, want %v", trial, i, out.Samples[i], in.Samples[i])
			}
		}
	}
}

// TestFrameDecodeTruncated checks every possible truncation of valid
// frames: the decoder must reject the prefix with an error — never
// panic, never fabricate samples from a short buffer.
func TestFrameDecodeTruncated(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 50; trial++ {
		fr := randomFrame(rng)
		if len(fr.Samples) == 0 {
			fr.Samples = []fixedpoint.Q{fixedpoint.FromFloat(1)} // force a payload
		}
		buf, err := fr.Encode()
		if err != nil {
			t.Fatal(err)
		}
		for cut := 0; cut < len(buf); cut++ {
			if _, _, err := DecodeFrame(buf[:cut]); err == nil {
				t.Fatalf("trial %d: truncation to %d of %d bytes decoded successfully", trial, cut, len(buf))
			}
		}
		if _, _, err := DecodeFrame(buf[:EncodedSize(0)-1]); !errors.Is(err, ErrShortFrame) {
			t.Fatalf("trial %d: headerless decode = %v, want ErrShortFrame", trial, err)
		}
	}
}

// TestFrameDecodeCorrupted flips random bytes in valid encodings: the
// decoder must either reject the corruption or return a well-formed
// frame (magic intact, known sensor, bounded payload) — random soup must
// not take the base station down.
func TestFrameDecodeCorrupted(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 500; trial++ {
		fr := randomFrame(rng)
		buf, err := fr.Encode()
		if err != nil {
			t.Fatal(err)
		}
		flips := 1 + rng.Intn(4)
		for k := 0; k < flips; k++ {
			buf[rng.Intn(len(buf))] ^= byte(1 + rng.Intn(255))
		}
		got, n, err := DecodeFrame(buf)
		if err != nil {
			continue // rejection is always acceptable
		}
		if !got.Sensor.Valid() {
			t.Fatalf("trial %d: accepted invalid sensor %d", trial, got.Sensor)
		}
		if len(got.Samples) > MaxFrameSamples {
			t.Fatalf("trial %d: accepted %d samples", trial, len(got.Samples))
		}
		if n > len(buf) {
			t.Fatalf("trial %d: consumed %d of %d bytes", trial, n, len(buf))
		}
	}
}

// TestReadFrameTruncatedStream drives the scanner with every truncation
// of a record stream: a cut record must surface an error rather than a
// frame, a hang, or a panic.
func TestReadFrameTruncatedStream(t *testing.T) {
	fr := Frame{Sensor: SensorECG, Seq: 3, Samples: []fixedpoint.Q{fixedpoint.FromFloat(2)}}
	buf, err := fr.EncodeChecksummed()
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(buf); cut++ {
		if rec, err := newFrameScanner(bytes.NewReader(buf[:cut])).next(); err == nil {
			t.Fatalf("scan of %d of %d bytes surfaced %+v", cut, len(buf), rec)
		}
	}
	rec, err := newFrameScanner(bytes.NewReader(buf)).next()
	if err != nil {
		t.Fatal(err)
	}
	if got := rec.frame; got.Seq != 3 || got.Sensor != SensorECG || len(got.Samples) != 1 {
		t.Errorf("full read = %+v", got)
	}
}
