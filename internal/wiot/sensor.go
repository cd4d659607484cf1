package wiot

import (
	"errors"
	"fmt"

	"github.com/wiot-security/sift/internal/fixedpoint"
	"github.com/wiot-security/sift/internal/physio"
)

// FrameSink accepts frames; the base station and the transports implement
// it. (One-method interface named for what it does with the frame.)
type FrameSink interface {
	// HandleFrame consumes f. Its samples are borrowed (see Frame): the
	// sink copies or encodes what it needs before returning.
	HandleFrame(f Frame) error
}

var _ FrameSink = (*BaseStation)(nil)

// Sensor streams one channel of a recording as a sequence of frames — the
// body-worn medical device of Fig 1.
type Sensor struct {
	ID        SensorID
	ChunkSize int // samples per frame

	seq  uint32
	data []float64
	pos  int
	buf  []fixedpoint.Q // every frame's samples, quantised in place
}

// NewSensor builds a sensor over the given channel of a record.
func NewSensor(id SensorID, rec *physio.Record, chunkSize int) (*Sensor, error) {
	if !id.Valid() {
		return nil, fmt.Errorf("%w: %d", ErrBadSensor, id)
	}
	if rec == nil || len(rec.ECG) == 0 {
		return nil, errors.New("wiot: sensor needs a non-empty record")
	}
	if chunkSize <= 0 || chunkSize > MaxFrameSamples {
		return nil, fmt.Errorf("wiot: chunk size %d outside (0,%d]", chunkSize, MaxFrameSamples)
	}
	var data []float64
	switch id {
	case SensorECG:
		data = rec.ECG
	case SensorABP:
		data = rec.ABP
	}
	return &Sensor{ID: id, ChunkSize: chunkSize, data: data}, nil
}

// Next produces the next frame, or ok=false when the recording is
// exhausted. Every frame's samples are the sensor's one buffer: they
// are overwritten by the next call.
func (s *Sensor) Next() (Frame, bool) {
	if s.pos >= len(s.data) {
		return Frame{}, false
	}
	end := min(s.pos+s.ChunkSize, len(s.data))
	if cap(s.buf) < s.ChunkSize {
		s.buf = make([]fixedpoint.Q, s.ChunkSize)
	}
	f := Frame{Sensor: s.ID, Seq: s.seq, Samples: quantize(s.buf[:end-s.pos], s.data[s.pos:end])}
	s.pos = end
	s.seq++
	return f, true
}

// Remaining returns how many samples are left to stream.
func (s *Sensor) Remaining() int { return len(s.data) - s.pos }

// Interceptor is a man-in-the-middle on the sensor→station link: it may
// rewrite frames in flight. This is where sensor-hijacking manifests at
// the transport level (compromised communication channel, vulnerability
// class (1) in the paper's taxonomy).
type Interceptor interface {
	// Intercept returns the frame to deliver in place of f: f itself, or
	// a frame whose samples the interceptor owns, valid until its next
	// call. f's samples are borrowed (see Frame) and never written to.
	Intercept(f Frame) Frame
}

// PassThrough delivers frames unmodified.
type PassThrough struct{}

// Intercept implements Interceptor.
func (PassThrough) Intercept(f Frame) Frame { return f }

// SubstitutionMITM replaces ECG payloads with a donor's ECG stream while
// an attack window is active — the paper's sensor-hijacking attack
// mounted on the wire.
type SubstitutionMITM struct {
	Donor []float64 // donor ECG samples, consumed cyclically
	// ActiveFrom/ActiveTo bound the attack in *victim sample* indices
	// (ActiveTo = 0 means "until the end").
	ActiveFrom int
	ActiveTo   int

	pos        int // victim stream position
	donorPos   int
	Intercepts int            // frames rewritten (telemetry)
	buf        []fixedpoint.Q // the rewritten frame's samples, reused per frame
}

var (
	_ Interceptor = (*SubstitutionMITM)(nil)
	_ Interceptor = PassThrough{}
)

// Intercept implements Interceptor.
func (m *SubstitutionMITM) Intercept(f Frame) Frame {
	if f.Sensor != SensorECG || len(m.Donor) == 0 {
		return f
	}
	start := m.pos
	m.pos += len(f.Samples)
	end := m.pos
	activeTo := m.ActiveTo
	if activeTo == 0 {
		activeTo = int(^uint(0) >> 1)
	}
	if end <= m.ActiveFrom || start >= activeTo {
		return f
	}
	// Rewrite the overlapping portion of the frame, copy on write: the
	// borrowed input stays as it was.
	m.buf = append(m.buf[:0], f.Samples...)
	out := f
	out.Samples = m.buf
	for i := range out.Samples {
		idx := start + i
		if idx < m.ActiveFrom || idx >= activeTo {
			continue
		}
		donor := m.Donor[m.donorPos%len(m.Donor)]
		m.donorPos++
		out.Samples[i] = fixedpoint.FromFloat(donor)
	}
	m.Intercepts++
	return out
}
