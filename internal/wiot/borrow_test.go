package wiot

import (
	"bytes"
	"context"
	"reflect"
	"slices"
	"testing"

	"github.com/wiot-security/sift/internal/dataset"
	"github.com/wiot-security/sift/internal/fixedpoint"
	"github.com/wiot-security/sift/internal/physio"
)

// The tests here pin the borrowed-samples contract (see Frame): every hop
// from sensor to station reuses one buffer of its own, allocating nothing
// per frame once warm, and no callee keeps a frame's samples past the
// call that received them.

// garbage fills q with a pattern no signal produces.
func garbage(q []fixedpoint.Q) {
	for i := range q {
		q[i] = fixedpoint.FromRaw(int32(0x5EED0000) ^ int32(i*7919))
	}
}

// TestSensorNextSteadyStateAllocs: after its first frame, a sensor
// quantises every frame into its one buffer, exactly as FrameFromFloats
// would.
func TestSensorNextSteadyStateAllocs(t *testing.T) {
	rec, err := physio.Generate(physio.DefaultSubject(), 12, physio.DefaultSampleRate, 31)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSensor(SensorECG, rec, DefaultChunkSize)
	if err != nil {
		t.Fatal(err)
	}
	first, _ := s.Next()
	if n := testing.AllocsPerRun(20, func() {
		if _, ok := s.Next(); !ok {
			t.Fatal("recording exhausted")
		}
	}); n != 0 {
		t.Errorf("Sensor.Next allocates %.1f/op, want 0", n)
	}
	f, _ := s.Next()
	if &f.Samples[0] != &first.Samples[0] {
		t.Error("Sensor.Next moved to a new buffer")
	}
	at := int(f.Seq) * DefaultChunkSize
	if want := FrameFromFloats(SensorECG, f.Seq, rec.ECG[at:at+DefaultChunkSize]); !reflect.DeepEqual(f, want) {
		t.Errorf("frame %d = %+v, want %+v", f.Seq, f, want)
	}
}

// TestSubstitutionMITMSteadyStateAllocs: an active MITM rewrites into
// its own reused buffer and leaves the borrowed input as it was.
func TestSubstitutionMITMSteadyStateAllocs(t *testing.T) {
	donor := make([]float64, 1000)
	for i := range donor {
		donor[i] = float64(i%50) / 10
	}
	m := &SubstitutionMITM{Donor: donor}
	in := FrameFromFloats(SensorECG, 0, make([]float64, DefaultChunkSize))
	m.Intercept(in)
	if n := testing.AllocsPerRun(20, func() { m.Intercept(in) }); n != 0 {
		t.Errorf("active Intercept allocates %.1f/op, want 0", n)
	}
	out := m.Intercept(in)
	if m.Intercepts != 23 {
		t.Errorf("Intercepts = %d, want 23", m.Intercepts)
	}
	for i, q := range in.Samples {
		if q != 0 {
			t.Fatalf("Intercept wrote %v to input sample %d", q, i)
		}
	}
	if want := fixedpoint.FromFloat(donor[22*DefaultChunkSize%len(donor)]); out.Samples[0] != want {
		t.Errorf("rewritten sample 0 = %v, want donor's %v", out.Samples[0], want)
	}
}

// TestReconnectSinkSteadyStateAllocs: once acks have released payload
// buffers, HandleFrame encodes into them; the buffers, queued and free,
// never outnumber cfg.Buffer, and a recycled payload is byte for byte
// the frame's checksummed record. The supervisor is not started: the
// test plays the acks itself.
func TestReconnectSinkSteadyStateAllocs(t *testing.T) {
	r := newReconnectSink(ReconnectConfig{Addr: "127.0.0.1:0", Buffer: 4}.withDefaults())
	f := FrameFromFloats(SensorECG, 0, make([]float64, DefaultChunkSize))
	send := func() {
		for i := range f.Samples {
			f.Samples[i] = fixedpoint.FromInt(int(f.Seq) + i)
		}
		if err := r.HandleFrame(f); err != nil {
			t.Fatal(err)
		}
		f.Seq++
	}
	ackAll := func() { r.onAck(SensorECG, f.Seq-1) }
	for range 3 {
		for range 4 {
			send()
		}
		for _, e := range r.queue {
			g := f
			g.Seq = e.seq
			for i := range g.Samples {
				g.Samples[i] = fixedpoint.FromInt(int(e.seq) + i)
			}
			if want, _ := g.EncodeChecksummed(); !bytes.Equal(e.payload, want) {
				t.Fatalf("payload of seq %d = %x, want %x", e.seq, e.payload, want)
			}
		}
		ackAll()
	}
	if n := testing.AllocsPerRun(20, func() { send(); ackAll() }); n != 0 {
		t.Errorf("HandleFrame with released buffers allocates %.1f/op, want 0", n)
	}
	if got := len(r.queue) + len(r.free); got > r.cfg.Buffer {
		t.Errorf("sink holds %d payload buffers, want at most %d", got, r.cfg.Buffer)
	}
}

// poisonSink hands its inner sink a private copy of each frame and
// overwrites that copy with garbage as soon as HandleFrame returns: a
// sink that kept any samples instead of copying or encoding them would
// go on to use garbage.
type poisonSink struct{ inner FrameSink }

func (p poisonSink) HandleFrame(f Frame) error {
	f.Samples = slices.Clone(f.Samples)
	err := p.inner.HandleFrame(f)
	garbage(f.Samples)
	return err
}

// poisonInterceptor hands its inner interceptor a private copy of each
// frame, fails the test if the interceptor writes to it, and once the
// call returns overwrites both that copy and the returned samples with
// garbage, delivering a copy of the result instead.
type poisonInterceptor struct {
	t     *testing.T
	inner Interceptor
}

func (p poisonInterceptor) Intercept(f Frame) Frame {
	in := f
	in.Samples = slices.Clone(f.Samples)
	out := p.inner.Intercept(in)
	if !slices.Equal(in.Samples, f.Samples) {
		p.t.Errorf("interceptor wrote to its borrowed frame %d", f.Seq)
	}
	res := out
	res.Samples = slices.Clone(out.Samples)
	garbage(in.Samples)
	garbage(out.Samples)
	return res
}

// TestBorrowedFrameLifetime: overwriting every frame's samples with
// garbage as soon as the interceptor and the sinks return changes no
// classified window, verdict or statistic, in process (the station is
// the sink; lossy channel) and over TCP, plain and authenticated (the
// reconnect sinks). The attack starts and ends mid-frame, so the MITM's
// copy on write matters.
func TestBorrowedFrameLifetime(t *testing.T) {
	rec, err := physio.Generate(physio.DefaultSubject(), 30, physio.DefaultSampleRate, 31)
	if err != nil {
		t.Fatal(err)
	}
	donor, err := physio.Generate(physio.DefaultSubject(), 30, physio.DefaultSampleRate, 32)
	if err != nil {
		t.Fatal(err)
	}
	from, to := len(rec.ECG)/3+DefaultChunkSize/2, 2*len(rec.ECG)/3+DefaultChunkSize/2
	ctx := context.Background()
	for _, tc := range []struct {
		name string
		nc   *NetConfig // nil: in process
	}{
		{"in-process", nil},
		{"tcp", &NetConfig{Seed: 1}},
		{"tcp-auth", &NetConfig{Seed: 1, Auth: &AuthProvision{Master: testMaster}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run := func(poison bool) (ScenarioResult, []dataset.Window, *SubstitutionMITM) {
				mitm := &SubstitutionMITM{Donor: donor.ECG, ActiveFrom: from, ActiveTo: to}
				log := &windowLog{}
				sc := Scenario{Record: rec, Detector: log, Attack: mitm, AttackFrom: from, AttackTo: to}
				if tc.nc == nil {
					sc.Channel = MustLossy(0.05, 0.05, 9)
				}
				// The poisoned runs take the runners' own paths, with the
				// wrappers in front of the interceptor and the sinks.
				pump := func(ecg, abp FrameSink) error { return sc.stream(ctx, poisonSink{ecg}, poisonSink{abp}) }
				if poison {
					sc.Attack = poisonInterceptor{t, mitm}
				}
				var res ScenarioResult
				var err error
				switch {
				case !poison && tc.nc == nil:
					res, err = RunScenario(sc)
				case !poison:
					res, err = RunScenarioOverTCP(ctx, sc, *tc.nc)
				case tc.nc == nil:
					res, err = sc.run(func(st *BaseStation) error { return pump(st, st) })
				default:
					res, err = sc.run(func(st *BaseStation) error { return tc.nc.serve(ctx, st, pump) })
				}
				if err != nil {
					t.Fatal(err)
				}
				if tc.nc != nil {
					// The two connections race, so how far one sensor
					// leads varies from run to run.
					res.PeakLead = 0
				}
				return res, log.all(), mitm
			}
			base, baseWindows, _ := run(false)
			got, gotWindows, mitm := run(true)
			if !reflect.DeepEqual(got, base) {
				t.Errorf("poisoned run diverged:\n got %+v\nwant %+v", got, base)
			}
			if len(gotWindows) != len(baseWindows) {
				t.Fatalf("poisoned run classified %d windows, want %d", len(gotWindows), len(baseWindows))
			}
			for i := range gotWindows {
				if !reflect.DeepEqual(gotWindows[i], baseWindows[i]) {
					t.Errorf("poisoned run's window %d differs", gotWindows[i].Index)
				}
			}
			if mitm.Intercepts == 0 || got.TruePos+got.FalseNeg == 0 || (tc.nc == nil && (got.Concealed == 0 || got.Stale == 0)) {
				t.Errorf("run exercised too little: %d intercepts, result %+v", mitm.Intercepts, got)
			}
		})
	}
}
