package wiot

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"net"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/wiot-security/sift/internal/dataset"
	"github.com/wiot-security/sift/internal/physio"
)

// hashDetector's verdict is a hash of the exact window contents, so any
// sample that is lost, duplicated, or corrupted in transit flips
// verdicts with ~50% probability — unlike a content-blind stub, it
// cannot mask transport damage.
type hashDetector struct{}

func (hashDetector) Classify(w dataset.Window) (bool, error) {
	var h uint64 = 1469598103934665603
	mix := func(samples []float64) {
		for _, v := range samples {
			h ^= math.Float64bits(v)
			h *= 1099511628211
		}
	}
	mix(w.ECG)
	mix(w.ABP)
	return h&1 == 1, nil
}

// TestRunScenarioOverTCPMatchesInProcess: with a clean wire, the TCP
// transport must reproduce the in-process runner's verdicts exactly.
func TestRunScenarioOverTCPMatchesInProcess(t *testing.T) {
	rec, err := physio.Generate(physio.DefaultSubject(), 12, physio.DefaultSampleRate, 31)
	if err != nil {
		t.Fatal(err)
	}
	base, err := RunScenario(Scenario{Record: rec, Detector: hashDetector{}})
	if err != nil {
		t.Fatal(err)
	}
	net, err := RunScenarioOverTCP(context.Background(), Scenario{Record: rec, Detector: hashDetector{}}, NetConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(base.Alerts, net.Alerts) {
		t.Fatalf("TCP verdicts diverged from in-process run:\n tcp: %+v\n mem: %+v", net.Alerts, base.Alerts)
	}
	if net.Windows != base.Windows || net.Concealed != 0 || net.SeqErrors != 0 {
		t.Errorf("clean TCP run stats diverged: %+v vs %+v", net, base)
	}
	// The in-process pump hands the station each ECG frame before its ABP
	// frame, so each ECG window waits exactly one frame; over TCP the two
	// sensors' connections race, and whichever leads holds at least one.
	if base.PeakLead != 1 || net.PeakLead < 1 {
		t.Errorf("PeakLead in-process %d, over TCP %d; want 1 and at least 1", base.PeakLead, net.PeakLead)
	}
}

// corruptingListener flips one byte in a seeded-random ~1/7 of data
// frames on the read path — an in-package stand-in for the chaos proxy
// (which lives in a separate package precisely so wiot never imports
// it). The corruption must be probabilistic: a strictly periodic
// corruptor can phase-lock with go-back-N's replay window and starve
// the same frame forever, which no memoryless link does.
type corruptingListener struct {
	net.Listener
	seed int64
}

func (l *corruptingListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	l.seed++
	return &corruptingConn{Conn: conn, rng: rand.New(rand.NewSource(l.seed))}, nil
}

type corruptingConn struct {
	net.Conn
	rng *rand.Rand
	raw []byte
	out []byte
}

func (c *corruptingConn) Read(p []byte) (int, error) {
	var buf [4096]byte
	for len(c.out) == 0 {
		n, err := c.Conn.Read(buf[:])
		if n > 0 {
			c.raw = append(c.raw, buf[:n]...)
			c.process()
		}
		if err != nil {
			if len(c.out) == 0 && len(c.raw) > 0 {
				c.out, c.raw = c.raw, nil
			}
			if len(c.out) > 0 {
				break
			}
			return 0, err
		}
	}
	n := copy(p, c.out)
	c.out = c.out[n:]
	return n, nil
}

func (c *corruptingConn) process() {
	for {
		info, err := PeekRecord(c.raw)
		if err != nil {
			return // short or junk: wait for more / pass through on next error
		}
		if len(c.raw) < info.Len {
			return
		}
		rec := c.raw[:info.Len:info.Len]
		c.raw = c.raw[info.Len:]
		if info.Kind != RecordControl && c.rng.Intn(7) == 0 {
			mangled := append([]byte(nil), rec...)
			mangled[c.rng.Intn(len(mangled))] ^= 0x55
			rec = mangled
		}
		c.out = append(c.out, rec...)
	}
}

// TestRunScenarioOverTCPSurvivesCorruption: with every 7th frame
// corrupted on the wire, the checksum + nack + retransmit path must
// still deliver byte-identical verdicts — and the station must have
// actually resynced (proving the faults fired).
func TestRunScenarioOverTCPSurvivesCorruption(t *testing.T) {
	rec, err := physio.Generate(physio.DefaultSubject(), 12, physio.DefaultSampleRate, 31)
	if err != nil {
		t.Fatal(err)
	}
	base, err := RunScenario(Scenario{Record: rec, Detector: hashDetector{}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunScenarioOverTCP(context.Background(), Scenario{Record: rec, Detector: hashDetector{}}, NetConfig{
		Seed: 2,
		WrapListener: func(lis net.Listener) net.Listener {
			return &corruptingListener{Listener: lis, seed: 1000}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(base.Alerts, res.Alerts) {
		t.Fatalf("verdicts diverged under corruption:\n chaos: %+v\n clean: %+v", res.Alerts, base.Alerts)
	}
	if res.Concealed != 0 || res.Stale != 0 {
		t.Errorf("reliable path should deliver exactly once: %+v", res)
	}
}

// TestRunScenarioOverTCPNoGoroutineLeak: a full TCP scenario (station,
// two reconnecting sinks, handlers) must leave no goroutines behind.
func TestRunScenarioOverTCPNoGoroutineLeak(t *testing.T) {
	rec, err := physio.Generate(physio.DefaultSubject(), 6, physio.DefaultSampleRate, 31)
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	for i := 0; i < 3; i++ {
		if _, err := RunScenarioOverTCP(context.Background(), Scenario{Record: rec, Detector: hashDetector{}}, NetConfig{Seed: int64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	waitUntil(t, 2*time.Second, func() bool {
		runtime.Gosched()
		return runtime.NumGoroutine() <= before+1
	}, "transport goroutines to exit")
}

// mutedListener never hands the station a connection: sensors connect
// and write, but nothing is read or acknowledged.
type mutedListener struct {
	net.Listener
	done chan struct{}
	once sync.Once
}

func (l *mutedListener) Accept() (net.Conn, error) {
	<-l.done
	return nil, net.ErrClosed
}

func (l *mutedListener) Close() error {
	l.once.Do(func() { close(l.done) })
	return l.Listener.Close()
}

// TestServeFlushStopsAtCancel cancels the context while both sinks
// flush frames the station never acknowledges: the teardown ends at
// the cancellation rather than after each sink's CloseTimeout, and the
// error names each sink's undelivered frames and wraps ErrUndelivered
// and ctx.Err().
func TestServeFlushStopsAtCancel(t *testing.T) {
	rec, err := physio.Generate(physio.DefaultSubject(), 3, physio.DefaultSampleRate, 31)
	if err != nil {
		t.Fatal(err)
	}
	sc := Scenario{Record: rec, Detector: hashDetector{}}
	nc := NetConfig{
		Seed:         3,
		WrapListener: func(lis net.Listener) net.Listener { return &mutedListener{Listener: lis, done: make(chan struct{})} },
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const cancelAfter = 50 * time.Millisecond
	pump := func(ecg, abp FrameSink) error {
		err := sc.stream(ctx, ecg, abp)
		time.AfterFunc(cancelAfter, cancel)
		return err
	}
	start := time.Now()
	_, err = sc.run(func(st *BaseStation) error { return nc.serve(ctx, st, pump) })
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want it to wrap context.Canceled", err)
	}
	if !errors.Is(err, ErrUndelivered) {
		t.Errorf("err = %v, want it to wrap ErrUndelivered", err)
	}
	if n := strings.Count(err.Error(), "frames undelivered"); n != 2 {
		t.Errorf("err = %v, want both sinks' undelivered counts", err)
	}
	if bound := 2 * time.Second; elapsed > bound {
		t.Errorf("teardown took %v after a cancel at %v, want under %v", elapsed, cancelAfter, bound)
	}
}

// TestServeFlushesSinksSideBySide lets both sinks' flushes run out
// their CloseTimeout against a station that acknowledges nothing: they
// wait side by side, so the teardown takes one CloseTimeout, not two.
func TestServeFlushesSinksSideBySide(t *testing.T) {
	rec, err := physio.Generate(physio.DefaultSubject(), 3, physio.DefaultSampleRate, 32)
	if err != nil {
		t.Fatal(err)
	}
	sc := Scenario{Record: rec, Detector: hashDetector{}}
	const closeTimeout = time.Second
	nc := NetConfig{
		Seed:         4,
		Sink:         ReconnectConfig{CloseTimeout: closeTimeout},
		WrapListener: func(lis net.Listener) net.Listener { return &mutedListener{Listener: lis, done: make(chan struct{})} },
	}
	ctx := context.Background()
	pump := func(ecg, abp FrameSink) error { return sc.stream(ctx, ecg, abp) }
	start := time.Now()
	_, err = sc.run(func(st *BaseStation) error { return nc.serve(ctx, st, pump) })
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("a flush nothing acknowledged returned no error")
	}
	if n := strings.Count(err.Error(), "frames undelivered"); n != 2 {
		t.Errorf("err = %v, want both sinks' undelivered counts", err)
	}
	if elapsed < closeTimeout || elapsed >= 2*closeTimeout {
		t.Errorf("teardown took %v, want one CloseTimeout (%v), not two", elapsed, closeTimeout)
	}
}
