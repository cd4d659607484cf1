// Package wiot simulates the paper's wearable-IoT environment (Fig. 1):
// body-area sensors stream physiological samples over a wireless link to
// an always-present base station (the Amulet), which runs the SIFT
// detector and forwards alerts to a resource-rich sink.
//
// Two transports are provided: an in-process one for deterministic
// simulation, and a TCP loopback one whose records (protocol.go) wrap
// the binary frame body defined here. A man-in-the-middle hook on the
// ECG channel is how sensor-hijacking attacks enter the system.
package wiot

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"github.com/wiot-security/sift/internal/fixedpoint"
	"github.com/wiot-security/sift/internal/obs"
)

// Observability handles for the frame codec. Encode/decode run once per
// BLE connection event per sensor, so a span pair here prices the whole
// wire path without touching the per-sample loops.
var (
	obsEncode      = obs.NewTimer("wiot.frame.encode")
	obsDecode      = obs.NewTimer("wiot.frame.decode")
	obsWireBytes   = obs.NewCounter("wiot.frame.wireBytes")
	obsFramesCoded = obs.NewCounter("wiot.frame.framesCoded")
)

// SensorID identifies a physiological channel.
type SensorID byte

const (
	// SensorECG is the electrocardiogram channel (attackable).
	SensorECG SensorID = 1
	// SensorABP is the arterial blood pressure channel (trusted).
	SensorABP SensorID = 2
)

// String returns the channel name.
func (s SensorID) String() string {
	switch s {
	case SensorECG:
		return "ECG"
	case SensorABP:
		return "ABP"
	default:
		return fmt.Sprintf("sensor(%d)", byte(s))
	}
}

// Valid reports whether the id is a known channel.
func (s SensorID) Valid() bool { return s == SensorECG || s == SensorABP }

// Frame is one batch of samples from a sensor. Samples travel as Q16.16
// words — the fixed-point representation the base station's detector
// consumes directly.
//
// Samples are borrowed: whoever hands a frame on keeps owning its
// samples, and they are valid only while the call that received them
// runs (FrameSink.HandleFrame, Interceptor.Intercept,
// ChannelEffect.Transmit). A callee copies anything it keeps and never
// writes to them. That lets each hop reuse one buffer it owns: the
// sensor quantises every frame into the same slice, the MITM rewrites
// into its own, and the wire scanner decodes into its own.
type Frame struct {
	Sensor  SensorID
	Seq     uint32
	Samples []fixedpoint.Q
}

// frameMagic heads a bare frame body, the codec form Encode and
// DecodeFrame speak. The wire never carries it: every wire record
// (protocol.go) swaps in its own magic and adds a CRC32-C trailer.
const frameMagic = 0xA5

// MaxFrameSamples bounds a frame's payload (one BLE connection event's
// worth of samples at our rates).
const MaxFrameSamples = 512

// Encoding errors.
var (
	ErrBadMagic   = errors.New("wiot: bad frame magic")
	ErrBadSensor  = errors.New("wiot: unknown sensor id")
	ErrFrameSize  = errors.New("wiot: frame payload too large")
	ErrShortFrame = errors.New("wiot: truncated frame")
)

// EncodedSize returns the wire size of a frame with n samples.
func EncodedSize(n int) int { return 1 + 1 + 4 + 2 + 4*n }

// Encode serializes the frame body.
func (f *Frame) Encode() ([]byte, error) {
	if err := f.check(); err != nil {
		return nil, err
	}
	return f.appendBody(nil, frameMagic, 0), nil
}

// check reports why the frame cannot be encoded, if it cannot.
func (f *Frame) check() error {
	if !f.Sensor.Valid() {
		return fmt.Errorf("%w: %d", ErrBadSensor, f.Sensor)
	}
	if len(f.Samples) > MaxFrameSamples {
		return fmt.Errorf("%w: %d samples", ErrFrameSize, len(f.Samples))
	}
	return nil
}

// appendBody appends the frame body under magic to buf, a frame that
// check accepts, growing buf first by the body and spare bytes more so
// a record wrapper can append its trailer in place. Every encoder —
// Encode, EncodeChecksummed, SealFrame and the reconnect sink's
// recycled payloads — goes through it.
func (f *Frame) appendBody(buf []byte, magic byte, spare int) []byte {
	span := obsEncode.Start()
	defer span.End()
	start := len(buf)
	buf = slices.Grow(buf, EncodedSize(len(f.Samples))+spare)
	buf = append(buf, magic, byte(f.Sensor))
	buf = binary.LittleEndian.AppendUint32(buf, f.Seq)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(f.Samples)))
	for _, q := range f.Samples {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(q.Raw()))
	}
	obsFramesCoded.Add(1)
	obsWireBytes.Add(int64(len(buf) - start))
	return buf
}

// DecodeFrame parses one frame body from buf, returning the frame and
// the number of bytes consumed.
func DecodeFrame(buf []byte) (Frame, int, error) {
	return decodeBody(buf, frameMagic, nil)
}

// decodeBody parses a frame body headed by magic. Its samples land in
// scratch when it has the capacity, else in a fresh slice: the wire
// scanner passes its per-connection buffer, DecodeFrame passes nil.
func decodeBody(buf []byte, magic byte, scratch []fixedpoint.Q) (Frame, int, error) {
	span := obsDecode.Start()
	defer span.End()
	if len(buf) < EncodedSize(0) {
		return Frame{}, 0, ErrShortFrame
	}
	if buf[0] != magic {
		return Frame{}, 0, ErrBadMagic
	}
	sensor := SensorID(buf[1])
	if !sensor.Valid() {
		return Frame{}, 0, fmt.Errorf("%w: %d", ErrBadSensor, sensor)
	}
	seq := binary.LittleEndian.Uint32(buf[2:])
	n := int(binary.LittleEndian.Uint16(buf[6:]))
	if n > MaxFrameSamples {
		return Frame{}, 0, fmt.Errorf("%w: %d samples", ErrFrameSize, n)
	}
	total := EncodedSize(n)
	if len(buf) < total {
		return Frame{}, 0, ErrShortFrame
	}
	if cap(scratch) < n {
		scratch = make([]fixedpoint.Q, n)
	}
	f := Frame{Sensor: sensor, Seq: seq, Samples: scratch[:n]}
	for i := range f.Samples {
		raw := binary.LittleEndian.Uint32(buf[8+4*i:])
		f.Samples[i] = fixedpoint.FromRaw(int32(raw))
	}
	return f, total, nil
}

// FrameFromFloats builds a frame from float64 samples, saturating values
// outside the Q16.16 range; NaN becomes 0 (fixedpoint.FromFloat's rules).
func FrameFromFloats(sensor SensorID, seq uint32, samples []float64) Frame {
	return Frame{Sensor: sensor, Seq: seq, Samples: quantize(make([]fixedpoint.Q, len(samples)), samples)}
}

// quantize converts samples into dst, which must be as long, and returns
// dst.
func quantize(dst []fixedpoint.Q, samples []float64) []fixedpoint.Q {
	for i, v := range samples {
		dst[i] = fixedpoint.FromFloat(v)
	}
	return dst
}
