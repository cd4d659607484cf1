package wiot

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"github.com/wiot-security/sift/internal/dataset"
	"github.com/wiot-security/sift/internal/dsp"
	"github.com/wiot-security/sift/internal/fixedpoint"
	"github.com/wiot-security/sift/internal/physio"
)

func TestFrameRoundTrip(t *testing.T) {
	f := FrameFromFloats(SensorECG, 7, []float64{0.5, -1.25, 3})
	buf, err := f.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, n, err := DecodeFrame(buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(buf) {
		t.Errorf("consumed %d of %d bytes", n, len(buf))
	}
	if got.Sensor != SensorECG || got.Seq != 7 || len(got.Samples) != 3 {
		t.Errorf("decoded frame = %+v", got)
	}
	for i, q := range got.Samples {
		if diff := q.Float() - f.Samples[i].Float(); diff != 0 {
			t.Errorf("sample %d drifted by %v", i, diff)
		}
	}
}

// TestFrameFromFloatsSpecialValues pins FrameFromFloats' quantisation of
// the values a float source can throw at it: NaN reads as 0, ±Inf and
// ±2¹⁵ saturate, ±0 is 0, and a half-LSB tie rounds to even.
func TestFrameFromFloatsSpecialValues(t *testing.T) {
	const lsb = 1.0 / (1 << 16)
	cases := []struct {
		v    float64
		want fixedpoint.Q
	}{
		{math.NaN(), 0},
		{math.Inf(1), fixedpoint.Max},
		{math.Inf(-1), fixedpoint.Min},
		{0, 0},
		{math.Copysign(0, -1), 0},
		{1 << 15, fixedpoint.Max},
		{-(1 << 15), fixedpoint.Min},
		{0.5 * lsb, 0},
		{1.5 * lsb, 2},
		{2.5 * lsb, 2},
		{-0.5 * lsb, 0},
		{-1.5 * lsb, -2},
	}
	samples := make([]float64, len(cases))
	for i, c := range cases {
		samples[i] = c.v
	}
	f := FrameFromFloats(SensorECG, 0, samples)
	for i, c := range cases {
		if got := f.Samples[i]; got != c.want {
			t.Errorf("FrameFromFloats(%v) = %d, want %d", c.v, got, c.want)
		}
	}
}

func TestFrameEncodeErrors(t *testing.T) {
	bad := Frame{Sensor: 99}
	if _, err := bad.Encode(); !errors.Is(err, ErrBadSensor) {
		t.Errorf("bad sensor err = %v", err)
	}
	fat := Frame{Sensor: SensorECG, Samples: make([]fixedpoint.Q, MaxFrameSamples+1)}
	if _, err := fat.Encode(); !errors.Is(err, ErrFrameSize) {
		t.Errorf("oversize err = %v", err)
	}
}

func TestDecodeFrameErrors(t *testing.T) {
	if _, _, err := DecodeFrame([]byte{1}); !errors.Is(err, ErrShortFrame) {
		t.Errorf("short err = %v", err)
	}
	f := FrameFromFloats(SensorABP, 1, []float64{1})
	buf, err := f.Encode()
	if err != nil {
		t.Fatal(err)
	}
	buf[0] = 0 // clobber magic
	if _, _, err := DecodeFrame(buf); !errors.Is(err, ErrBadMagic) {
		t.Errorf("magic err = %v", err)
	}
	buf[0] = 0xA5
	buf[1] = 42 // bad sensor
	if _, _, err := DecodeFrame(buf); !errors.Is(err, ErrBadSensor) {
		t.Errorf("sensor err = %v", err)
	}
	gf := FrameFromFloats(SensorABP, 1, []float64{1, 2, 3})
	good, err := gf.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := DecodeFrame(good[:len(good)-2]); !errors.Is(err, ErrShortFrame) {
		t.Errorf("truncated err = %v", err)
	}
}

func TestReadWriteFrameStream(t *testing.T) {
	var buf bytes.Buffer
	frames := []Frame{
		FrameFromFloats(SensorECG, 0, []float64{1, 2}),
		FrameFromFloats(SensorABP, 0, []float64{100, 101, 102}),
		FrameFromFloats(SensorECG, 1, []float64{3}),
	}
	for i := range frames {
		rec, err := frames[i].EncodeChecksummed()
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(rec)
	}
	sc := newFrameScanner(&buf)
	for i := range frames {
		rec, err := sc.next()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		got := rec.frame
		if got.Sensor != frames[i].Sensor || got.Seq != frames[i].Seq || len(got.Samples) != len(frames[i].Samples) {
			t.Errorf("frame %d mismatch: %+v", i, got)
		}
	}
}

func TestQuickFrameRoundTrip(t *testing.T) {
	f := func(seq uint32, raw []int32, abp bool) bool {
		if len(raw) > MaxFrameSamples {
			raw = raw[:MaxFrameSamples]
		}
		id := SensorECG
		if abp {
			id = SensorABP
		}
		in := Frame{Sensor: id, Seq: seq, Samples: make([]fixedpoint.Q, len(raw))}
		for i, r := range raw {
			in.Samples[i] = fixedpoint.FromRaw(r)
		}
		buf, err := in.Encode()
		if err != nil {
			return false
		}
		out, _, err := DecodeFrame(buf)
		if err != nil || out.Seq != seq || out.Sensor != id || len(out.Samples) != len(raw) {
			return false
		}
		for i := range raw {
			if out.Samples[i].Raw() != raw[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// flagEveryOther is a deterministic detector stub. It refuses a window
// whose carried ranges do not match its samples (checkRanges).
type flagEveryOther struct{ calls int }

func (d *flagEveryOther) Classify(w dataset.Window) (bool, error) {
	d.calls++
	if err := checkRanges(w); err != nil {
		return false, err
	}
	return w.Index%2 == 1, nil
}

// checkRanges reports a station-cut window whose ECGRange or ABPRange is
// not bound to its array, or differs bit for bit from dsp.MinMax of it.
func checkRanges(w dataset.Window) error {
	if err := checkRange(w.Index, "ECG", w.ECG, w.ECGRange); err != nil {
		return err
	}
	return checkRange(w.Index, "ABP", w.ABP, w.ABPRange)
}

func checkRange(index int, signal string, x []float64, r dataset.Range) error {
	lo, hi, ok := r.Of(x)
	if !ok {
		return fmt.Errorf("window %d: %s carries no range bound to its samples", index, signal)
	}
	wantLo, wantHi, err := dsp.MinMax(x)
	if err != nil {
		return err
	}
	if math.Float64bits(lo) != math.Float64bits(wantLo) || math.Float64bits(hi) != math.Float64bits(wantHi) {
		return fmt.Errorf("window %d: %s range [%v, %v], dsp.MinMax [%v, %v]", index, signal, lo, hi, wantLo, wantHi)
	}
	return nil
}

func newTestStation(t *testing.T, det Detector, sink Sink) *BaseStation {
	t.Helper()
	st, err := NewBaseStation(StationConfig{
		SubjectID:  "S01",
		SampleRate: physio.DefaultSampleRate,
		Detector:   det,
		Sink:       sink,
	})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestStationAssemblesWindows(t *testing.T) {
	sink := &MemorySink{}
	det := &flagEveryOther{}
	st := newTestStation(t, det, sink)

	// Stream 2 windows worth (2×1080 samples) in 90-sample frames.
	n := 2 * 1080
	for seq := 0; seq*90 < n; seq++ {
		samples := make([]float64, 90)
		ef := FrameFromFloats(SensorECG, uint32(seq), samples)
		af := FrameFromFloats(SensorABP, uint32(seq), samples)
		if err := st.HandleFrame(ef); err != nil {
			t.Fatal(err)
		}
		if err := st.HandleFrame(af); err != nil {
			t.Fatal(err)
		}
	}
	if got := st.Stats().Windows; got != 2 {
		t.Errorf("windows = %d, want 2", got)
	}
	alerts := sink.Alerts()
	if len(alerts) != 2 {
		t.Fatalf("alerts = %d, want 2", len(alerts))
	}
	if alerts[0].Altered || !alerts[1].Altered {
		t.Errorf("alert pattern = %v/%v, want false/true", alerts[0].Altered, alerts[1].Altered)
	}
	if st.Stats().SeqErrors != 0 {
		t.Errorf("unexpected sequence errors: %d", st.Stats().SeqErrors)
	}
}

func TestStationCountsSeqGaps(t *testing.T) {
	st := newTestStation(t, &flagEveryOther{}, &MemorySink{})
	if err := st.HandleFrame(FrameFromFloats(SensorECG, 0, []float64{1})); err != nil {
		t.Fatal(err)
	}
	if err := st.HandleFrame(FrameFromFloats(SensorECG, 5, []float64{1})); err != nil {
		t.Fatal(err)
	}
	// Frames 1–4 were lost: four missing frames counted and concealed.
	if st.Stats().SeqErrors != 4 {
		t.Errorf("seq errors = %d, want 4", st.Stats().SeqErrors)
	}
	if st.Stats().Concealed != 4 {
		t.Errorf("concealed = %d, want 4", st.Stats().Concealed)
	}
}

func TestStationConfigValidation(t *testing.T) {
	base := StationConfig{
		SubjectID:  "x",
		SampleRate: 360,
		Detector:   &flagEveryOther{},
		Sink:       &MemorySink{},
	}
	cases := []struct {
		name   string
		mutate func(*StationConfig)
	}{
		{"zero rate", func(c *StationConfig) { c.SampleRate = 0 }},
		{"NaN rate", func(c *StationConfig) { c.SampleRate = math.NaN() }},
		{"window under one sample", func(c *StationConfig) { c.SampleRate = 0.1 }},
		{"nil detector", func(c *StationConfig) { c.Detector = nil }},
		{"nil sink", func(c *StationConfig) { c.Sink = nil }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base
			tc.mutate(&cfg)
			if _, err := NewBaseStation(cfg); err == nil {
				t.Error("expected error")
			}
		})
	}
}

func TestStationRejectsBadFrame(t *testing.T) {
	st := newTestStation(t, &flagEveryOther{}, &MemorySink{})
	if err := st.HandleFrame(Frame{Sensor: 77}); !errors.Is(err, ErrBadSensor) {
		t.Errorf("bad frame err = %v", err)
	}
}

func TestSensorChunking(t *testing.T) {
	rec, err := physio.Generate(physio.DefaultSubject(), 1, physio.DefaultSampleRate, 1)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSensor(SensorECG, rec, 100)
	if err != nil {
		t.Fatal(err)
	}
	var total, frames int
	lastSeq := int64(-1)
	for {
		f, ok := s.Next()
		if !ok {
			break
		}
		if int64(f.Seq) != lastSeq+1 {
			t.Fatalf("seq jumped from %d to %d", lastSeq, f.Seq)
		}
		lastSeq = int64(f.Seq)
		total += len(f.Samples)
		frames++
	}
	if total != len(rec.ECG) {
		t.Errorf("streamed %d of %d samples", total, len(rec.ECG))
	}
	if frames != 4 { // 360 samples in 100-chunks → 100+100+100+60
		t.Errorf("frames = %d, want 4", frames)
	}
	if s.Remaining() != 0 {
		t.Errorf("remaining = %d", s.Remaining())
	}
}

func TestNewSensorValidation(t *testing.T) {
	rec, err := physio.Generate(physio.DefaultSubject(), 1, physio.DefaultSampleRate, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewSensor(77, rec, 10); err == nil {
		t.Error("bad sensor id should error")
	}
	if _, err := NewSensor(SensorECG, nil, 10); err == nil {
		t.Error("nil record should error")
	}
	if _, err := NewSensor(SensorECG, rec, 0); err == nil {
		t.Error("zero chunk should error")
	}
	if _, err := NewSensor(SensorECG, rec, MaxFrameSamples+1); err == nil {
		t.Error("oversized chunk should error")
	}
}

func TestSubstitutionMITMWindow(t *testing.T) {
	donor := make([]float64, 100)
	for i := range donor {
		donor[i] = 9.5
	}
	m := &SubstitutionMITM{Donor: donor, ActiveFrom: 10, ActiveTo: 20}
	// Frame covering samples 0..14: half clean, half substituted.
	in := FrameFromFloats(SensorECG, 0, make([]float64, 15))
	out := m.Intercept(in)
	for i := 0; i < 10; i++ {
		if out.Samples[i].Float() != 0 {
			t.Errorf("sample %d should be clean", i)
		}
	}
	for i := 10; i < 15; i++ {
		if out.Samples[i].Float() != 9.5 {
			t.Errorf("sample %d should be substituted", i)
		}
	}
	// Next frame covers 15..29: substituted until 20.
	out2 := m.Intercept(FrameFromFloats(SensorECG, 1, make([]float64, 15)))
	if out2.Samples[0].Float() != 9.5 || out2.Samples[5].Float() != 0 {
		t.Errorf("second frame substitution window wrong: %v, %v",
			out2.Samples[0].Float(), out2.Samples[5].Float())
	}
	if m.Intercepts != 2 {
		t.Errorf("intercepts = %d, want 2", m.Intercepts)
	}
	// The original frame must not be mutated.
	if in.Samples[12].Float() != 0 {
		t.Error("interceptor mutated the input frame")
	}
}

// TestSubstitutionMITMDonorWrapsMidFrame: a donor shorter than one frame
// wraps inside frames, and the cursor reads the same donor sample as
// Donor[k % len(Donor)] for the k-th substituted sample, across frames
// that start, end and straddle the active span.
func TestSubstitutionMITMDonorWrapsMidFrame(t *testing.T) {
	donor := []float64{1.5, -2.25, 3, 0.125, -7, 11, 6.5}
	m := &SubstitutionMITM{Donor: donor, ActiveFrom: 4, ActiveTo: 80}
	pos, k := 0, 0
	for seq := uint32(0); pos < 100; seq++ {
		n := 9 + int(seq)%8 // 9..16 samples, each more than the donor holds
		in := make([]float64, n)
		for i := range in {
			in[i] = float64(pos + i)
		}
		out := m.Intercept(FrameFromFloats(SensorECG, seq, in))
		for i, q := range out.Samples {
			want := fixedpoint.FromFloat(in[i])
			if idx := pos + i; idx >= m.ActiveFrom && idx < m.ActiveTo {
				want = fixedpoint.FromFloat(donor[k%len(donor)])
				k++
			}
			if q != want {
				t.Fatalf("frame %d sample %d (stream %d) = %v, want %v", seq, i, pos+i, q, want)
			}
		}
		pos += n
	}
	if k != 76 {
		t.Fatalf("%d samples substituted, want 76", k)
	}
}

func TestSubstitutionMITMIgnoresABP(t *testing.T) {
	m := &SubstitutionMITM{Donor: []float64{5}, ActiveFrom: 0}
	in := FrameFromFloats(SensorABP, 0, []float64{1, 2})
	out := m.Intercept(in)
	if out.Samples[0].Float() != 1 {
		t.Error("ABP frames must pass through untouched")
	}
}

func TestPassThrough(t *testing.T) {
	in := FrameFromFloats(SensorECG, 3, []float64{1})
	if out := (PassThrough{}).Intercept(in); out.Samples[0] != in.Samples[0] {
		t.Error("PassThrough changed the frame")
	}
}
