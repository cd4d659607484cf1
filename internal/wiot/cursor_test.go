package wiot

import (
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"github.com/wiot-security/sift/internal/dataset"
)

// cursorOf reads a sensor's sequence cursor from the base station.
func cursorOf(b *BaseStation, sensor SensorID) uint32 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.cur[sensor-1].next
}

// gapWalk returns the gap targets that move a cursor from from to to, in
// hops under half the sequence space so each one is serially forward.
func gapWalk(from, to uint32) []uint32 {
	var hops []uint32
	for to-from >= 1<<31 {
		from += 1 << 30
		hops = append(hops, from)
	}
	return append(hops, to)
}

// appendGapWalk appends the gap records of gapWalk(from, to).
func appendGapWalk(buf []byte, sensor SensorID, from, to uint32) []byte {
	for _, seq := range gapWalk(from, to) {
		buf = appendCtrl(buf, ctrlRecord{Kind: ctrlGap, Sensor: sensor, Seq: seq})
	}
	return buf
}

// appendFrame appends a v2 record of a 90-sample frame whose every
// sample holds v, so a window's samples name the frame they came from.
func appendFrame(t *testing.T, buf []byte, sensor SensorID, seq uint32, v float64) []byte {
	t.Helper()
	samples := make([]float64, 90)
	for i := range samples {
		samples[i] = v
	}
	f := FrameFromFloats(sensor, seq, samples)
	rec, err := f.EncodeChecksummed()
	if err != nil {
		t.Fatal(err)
	}
	return append(buf, rec...)
}

// windowLog is a Detector that keeps every window it classifies. Like
// flagEveryOther it refuses a window whose carried ranges are wrong.
type windowLog struct {
	mu      sync.Mutex
	windows []dataset.Window
}

func (d *windowLog) Classify(w dataset.Window) (bool, error) {
	if err := checkRanges(w); err != nil {
		return false, err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.windows = append(d.windows, w)
	return w.Index%2 == 1, nil
}

func (d *windowLog) all() []dataset.Window {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]dataset.Window(nil), d.windows...)
}

// checkAlignment asserts that window index × window length is each
// window's first sample position: every sample from a delivered frame
// (90 samples, value = its frame's place in the stream) sits where that
// place puts it, in both sensors' streams.
func checkAlignment(t *testing.T, windows []dataset.Window, delivered map[int]bool) {
	t.Helper()
	const wlen = 1080
	if len(windows) == 0 {
		t.Fatal("no windows classified")
	}
	for _, w := range windows {
		for k := 0; k < wlen; k++ {
			frame := (w.Index*wlen + k) / 90
			if !delivered[frame] {
				continue
			}
			if w.ECG[k] != float64(frame) || w.ABP[k] != float64(frame) {
				t.Fatalf("window %d sample %d holds ECG %v / ABP %v, want frame %d's", w.Index, k, w.ECG[k], w.ABP[k], frame)
			}
		}
	}
}

// TestTCPStationResyncsAfterLongDeclaredGap: a plain connection sends
// frame 0 of both sensors, declares a gap to seq 200 for each (past the
// 96-frame concealment bound), then streams frames 200–239. The station
// resyncs once and classifies the four windows those frames fill, at
// the window indices their sample positions give, and refuses nothing.
func TestTCPStationResyncsAfterLongDeclaredGap(t *testing.T) {
	log := &windowLog{}
	st, memSink, addr := reliableHarness(t, log)
	conn, sc := rawStationConn(t, addr)

	stream := appendCtrl(nil, ctrlRecord{Kind: ctrlHello})
	delivered := map[int]bool{0: true}
	for _, id := range []SensorID{SensorECG, SensorABP} {
		stream = appendFrame(t, stream, id, 0, 0)
	}
	for _, id := range []SensorID{SensorECG, SensorABP} {
		stream = appendCtrl(stream, ctrlRecord{Kind: ctrlGap, Sensor: id, Seq: 200})
	}
	for seq := uint32(200); seq < 240; seq++ {
		delivered[int(seq)] = true
		for _, id := range []SensorID{SensorECG, SensorABP} {
			stream = appendFrame(t, stream, id, seq, float64(seq))
		}
	}
	if _, err := conn.Write(stream); err != nil {
		t.Fatal(err)
	}
	readCtrlUntil(t, sc, func(c ctrlRecord) bool { return c.Kind == ctrlAck && c.Sensor == SensorABP && c.Seq == 239 })

	if got := st.Stats(); got.FrameErrors != 0 || got.Nacks != 0 || got.Acks != 82 {
		t.Errorf("transport stats %+v, want 82 acks and no frame errors or nacks", got)
	}
	if got := st.Station.Stats(); got.Resyncs != 1 || got.Windows != 4 || got.SeqErrors != 0 {
		t.Errorf("station stats %+v, want one resync and 4 windows", got)
	}
	// Frame 200 starts at sample 18,000, 720 samples into window 16.
	for i, a := range memSink.Alerts() {
		if a.WindowIndex != 16+i {
			t.Errorf("alert %d has window index %d, want %d", i, a.WindowIndex, 16+i)
		}
	}
	checkAlignment(t, log.all(), delivered)
}

// TestTCPStationForgedGapPlain: on a plain link an attacker can declare
// a gap for a sensor it does not own. The honest stream is never
// refused: every frame it sends is acked (in order or as stale), nothing
// errors, the station resyncs at most once when traffic reaches the
// forged target, and a 2³⁰-frame jump leaves at most one window plus a
// frame buffered per sensor.
func TestTCPStationForgedGapPlain(t *testing.T) {
	st, _, addr := reliableHarness(t, &flagEveryOther{})
	honest, sc := rawStationConn(t, addr)
	send := func(conn net.Conn, from, to uint32) {
		t.Helper()
		var stream []byte
		for seq := from; seq < to; seq++ {
			for _, id := range []SensorID{SensorECG, SensorABP} {
				stream = appendFrame(t, stream, id, seq, 0)
			}
		}
		if _, err := conn.Write(stream); err != nil {
			t.Fatal(err)
		}
	}
	send(honest, 0, 100)
	readCtrlUntil(t, sc, func(c ctrlRecord) bool { return c.Kind == ctrlAck && c.Sensor == SensorABP && c.Seq == 99 })

	const target = 1 << 30
	attacker, _ := rawStationConn(t, addr)
	if _, err := attacker.Write(EncodeGapRecord(SensorECG, target)); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, 2*time.Second, func() bool { return cursorOf(st.Station, SensorECG) == target }, "the forged gap to land")
	send(honest, 100, 150) // ECG frames are now stale; ABP carries on
	waitUntil(t, 2*time.Second, func() bool { return st.Stats().Acks == 300 }, "the honest frames to be acked")
	// Plausible traffic at the forged target: the one resync.
	if _, err := attacker.Write(appendFrame(t, nil, SensorECG, target, 0)); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, 2*time.Second, func() bool { return st.Station.Stats().Resyncs == 1 }, "the resync")
	send(honest, 150, 160) // both sensors now behind the resync: stale
	waitUntil(t, 2*time.Second, func() bool { return st.Stats().Acks == 321 }, "every frame to be acked")

	if got := st.Stats(); got.FrameErrors != 0 || got.Nacks != 0 {
		t.Errorf("transport stats %+v, want no frame errors and no nacks", got)
	}
	if got := st.Station.Stats(); got.Resyncs != 1 || got.Windows != 8 {
		t.Errorf("station stats %+v, want one resync and the 8 windows before it", got)
	}
	ecg, abp := buffered(st.Station, SensorECG), buffered(st.Station, SensorABP)
	if ecg > 1080+90 || abp > 1080+90 {
		t.Errorf("after the jump the station buffers %d ECG / %d ABP samples, want <= one window plus a frame", ecg, abp)
	}
}

// TestAuthForgedGapKeepsCursor: under Keys, a gap declared by a peer
// with no session, or by a session for another sensor, is counted in
// AuthRejectSession and leaves the cursor where the honest stream put
// it.
func TestAuthForgedGapKeepsCursor(t *testing.T) {
	st, _, addr := authHarness(t, &flagEveryOther{})
	honest, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer honest.Close()
	sess, err := Handshake(honest, ecgAuth())
	if err != nil {
		t.Fatal(err)
	}
	sealed := func(seq uint32) []byte {
		t.Helper()
		f := FrameFromFloats(SensorECG, seq, make([]float64, 90))
		rec, err := sess.SealFrame(&f)
		if err != nil {
			t.Fatal(err)
		}
		return rec
	}
	for seq := uint32(0); seq < 4; seq++ {
		if _, err := honest.Write(sealed(seq)); err != nil {
			t.Fatal(err)
		}
	}
	waitUntil(t, 2*time.Second, func() bool { return cursorOf(st.Station, SensorECG) == 4 }, "the honest frames")

	plain, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	if _, err := plain.Write(append(appendCtrl(nil, ctrlRecord{Kind: ctrlHello}), EncodeGapRecord(SensorECG, 1<<20)...)); err != nil {
		t.Fatal(err)
	}
	other, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer other.Close()
	if _, err := Handshake(other, AuthConfig{Key: DeriveSensorKey(testMaster, SensorABP), Sensor: SensorABP, Timeout: 2 * time.Second}); err != nil {
		t.Fatal(err)
	}
	if _, err := other.Write(EncodeGapRecord(SensorECG, 1<<20)); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, 2*time.Second, func() bool { return st.Stats().AuthRejectSession == 2 }, "both forged gaps to be rejected")
	if got := cursorOf(st.Station, SensorECG); got != 4 {
		t.Errorf("forged gaps moved the ECG cursor to %d, want 4", got)
	}

	// The honest stream carries on in order.
	if _, err := honest.Write(sealed(4)); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, 2*time.Second, func() bool { return cursorOf(st.Station, SensorECG) == 5 }, "the next honest frame")
	if got := st.Stats(); got.Nacks != 0 || got.FrameErrors != 0 {
		t.Errorf("transport stats %+v, want no nacks and no frame errors", got)
	}
	if got := st.Station.Stats(); got.Resyncs != 0 || got.SeqErrors != 0 {
		t.Errorf("station stats %+v, want no resync and no gap", got)
	}
}

// TestTCPStationDeclaredGapAcrossWrap: both sensors start 16 frames
// short of the u32 wrap, then declare a 28-frame gap whose target has
// wrapped (concealed) and a 200-frame one (resynced). Window positions
// stay tied to the stream's origin throughout.
func TestTCPStationDeclaredGapAcrossWrap(t *testing.T) {
	origin := uint32(0xFFFFFFF0)
	log := &windowLog{}
	st, _, addr := reliableHarness(t, log)
	conn, sc := rawStationConn(t, addr)

	stream := appendCtrl(nil, ctrlRecord{Kind: ctrlHello})
	for _, id := range []SensorID{SensorECG, SensorABP} {
		stream = appendGapWalk(stream, id, 0, origin)
	}
	delivered := map[int]bool{}
	frames := func(from, to int) {
		for rel := from; rel < to; rel++ {
			delivered[rel] = true
			for _, id := range []SensorID{SensorECG, SensorABP} {
				stream = appendFrame(t, stream, id, origin+uint32(rel), float64(rel))
			}
		}
	}
	gap := func(rel int) {
		for _, id := range []SensorID{SensorECG, SensorABP} {
			stream = appendCtrl(stream, ctrlRecord{Kind: ctrlGap, Sensor: id, Seq: origin + uint32(rel)})
		}
	}
	frames(0, 4)
	gap(32) // origin+32 = 0x10: the target has wrapped
	frames(32, 36)
	gap(236)
	frames(236, 248)
	if _, err := conn.Write(stream); err != nil {
		t.Fatal(err)
	}
	last := origin + 247
	readCtrlUntil(t, sc, func(c ctrlRecord) bool { return c.Kind == ctrlAck && c.Sensor == SensorABP && c.Seq == last })

	if got := st.Stats(); got.FrameErrors != 0 || got.Nacks != 0 {
		t.Errorf("transport stats %+v, want no frame errors and no nacks", got)
	}
	// The wrapped gap conceals 28 frames per sensor, so ECG frame 32 fills
	// two windows that wait for ABP frame 32; the resync puts rel 236
	// (sample 21,240) 720 samples into window 19.
	want := StationStats{Windows: 4, SeqErrors: 2 * 28, Concealed: 2*28*90 + 2*720, Resyncs: 1, PeakLead: 2}
	if got := st.Station.Stats(); got != want {
		t.Errorf("station stats %+v, want %+v", got, want)
	}
	if got := cursorOf(st.Station, SensorECG); got != last+1 {
		t.Errorf("ECG cursor = %#x, want %#x", got, last+1)
	}
	checkAlignment(t, log.all(), delivered)
}

// refSensor is one sensor's state in the admission reference model.
type refSensor struct {
	next     uint32
	owed     int // frames a declared gap skipped below next
	synced   bool
	buffered int // samples waiting for a window
}

// refStation is the reference model of the base station's go-back-N
// admission: the cursor per sensor and the window arithmetic, with the
// samples reduced to counts.
type refStation struct {
	wlen  int
	index int
	s     [2]refSensor
	stats StationStats
	acks  int64
	nacks int64
	// leadResyncs counts resyncs of a sensor holding a complete window
	// that waits for its partner: the position must count it.
	leadResyncs int
}

// refEvent is one record of a schedule: a frame of n samples, or a gap
// declaration.
type refEvent struct {
	gap    bool
	sensor SensorID
	seq    uint32
	n      int
}

// refStep is the model's transition: the state after ev, the reply the
// station owes (Kind 0 for none) and the indices of the windows ev
// completes. It reads the rules off the protocol directly: serial order
// by signed difference, the concealment bound as a sample product, a
// resync as a restart of both streams at the in-window position the
// declared gap implies.
func refStep(m refStation, ev refEvent) (refStation, ctrlRecord, []int) {
	x := &m.s[ev.sensor-1]
	if ev.gap {
		if d := int32(ev.seq - x.next); d > 0 {
			x.owed += int(d)
			x.next = ev.seq
		}
		return m, ctrlRecord{}, nil
	}
	switch d := int32(ev.seq - x.next); {
	case d < 0:
		m.acks++
		return m, ctrlRecord{Kind: ctrlAck, Sensor: ev.sensor, Seq: x.next - 1}, nil
	case d > 0:
		m.nacks++
		return m, ctrlRecord{Kind: ctrlNack, Sensor: ev.sensor, Seq: x.next}, nil
	}
	m.acks++
	if x.synced && ev.n > 0 && x.owed*ev.n > concealWindows*m.wlen {
		pos := m.index*m.wlen + x.buffered + x.owed*ev.n
		m.index, m.stats.Resyncs = pos/m.wlen, m.stats.Resyncs+1
		if x.buffered >= m.wlen {
			m.leadResyncs++
		}
		for i := range m.s {
			o := &m.s[i]
			if int32(o.next-ev.seq) > 0 {
				o.owed = int(o.next - ev.seq)
			} else {
				o.next, o.owed = ev.seq, 0
			}
			o.synced, o.buffered = true, pos%m.wlen
			m.stats.Concealed += pos % m.wlen
		}
	} else if x.synced {
		m.stats.SeqErrors += x.owed
		m.stats.Concealed += x.owed * ev.n
		x.buffered += x.owed * ev.n
	}
	x.next, x.owed, x.synced = ev.seq+1, 0, true
	x.buffered += ev.n
	var windows []int
	for m.s[0].buffered >= m.wlen && m.s[1].buffered >= m.wlen {
		m.s[0].buffered -= m.wlen
		m.s[1].buffered -= m.wlen
		windows = append(windows, m.index)
		m.index++
		m.stats.Windows++
	}
	m.stats.PeakLead = max(m.stats.PeakLead, m.s[0].buffered/m.wlen, m.s[1].buffered/m.wlen)
	return m, ctrlRecord{Kind: ctrlAck, Sensor: ev.sensor, Seq: ev.seq}, windows
}

// refSchedule draws a seeded sender schedule for both sensors: in-order
// frames, losses, duplicates, go-back-N rewinds, short and long declared
// gaps, bursts that put one sensor windows ahead right before its long
// gap, and odd frame sizes. Odd seeds start near 2³², walking both
// cursors there with gap records first. A calm schedule has no bursts,
// and a long outage in place of one in twenty of the stormy schedule's
// bursts and outages (3% of its steps), sending in-order frames instead
// of the rest. Its outages hit both sensors' links at once, as when the
// station itself drops out: a one-sided outage leaves the partner's
// sender a whole outage behind the cursor the resync moves, and none of
// its frames counts until it catches up.
func refSchedule(seed int64, steps int, calm bool) []refEvent {
	rng := rand.New(rand.NewSource(seed))
	var evs []refEvent
	var snd [2]uint32
	if seed%2 == 1 {
		origin := ^uint32(0) - uint32(rng.Intn(400))
		for i, id := range []SensorID{SensorECG, SensorABP} {
			for _, seq := range gapWalk(0, origin) {
				evs = append(evs, refEvent{gap: true, sensor: id, seq: seq})
			}
			snd[i] = origin
		}
	}
	for len(evs) < steps {
		i := rng.Intn(2)
		id := SensorID(i + 1)
		n := 90
		if rng.Intn(10) == 0 {
			n = rng.Intn(MaxFrameSamples + 1)
		}
		r := rng.Intn(100)
		if calm && r >= 97 {
			r = 0
			if rng.Intn(20) == 0 {
				r = 99
			}
		}
		switch {
		case r < 70:
			evs = append(evs, refEvent{sensor: id, seq: snd[i], n: n})
			snd[i]++
		case r < 78: // lost on the way
			snd[i]++
		case r < 86: // duplicate of a recent frame
			evs = append(evs, refEvent{sensor: id, seq: snd[i] - 1 - uint32(rng.Intn(5)), n: n})
		case r < 92: // go-back-N rewind
			snd[i] -= uint32(rng.Intn(10))
		case r < 97:
			snd[i] += 1 + uint32(rng.Intn(40))
			evs = append(evs, refEvent{gap: true, sensor: id, seq: snd[i]})
		case r < 98: // 2–5 windows ahead of the partner, then a long outage and its resync
			for k := 12 * (2 + rng.Intn(4)); k > 0; k-- {
				evs = append(evs, refEvent{sensor: id, seq: snd[i], n: 90})
				snd[i]++
			}
			snd[i] += 100 + uint32(rng.Intn(2000))
			evs = append(evs, refEvent{gap: true, sensor: id, seq: snd[i]}, refEvent{sensor: id, seq: snd[i], n: 90})
			snd[i]++
		default: // a long outage, past the concealment bound at 90 samples
			d := 100 + uint32(rng.Intn(2000))
			for k := range snd {
				if k == i || calm {
					snd[k] += d
					evs = append(evs, refEvent{gap: true, sensor: SensorID(k + 1), seq: snd[k]})
				}
			}
		}
	}
	return evs
}

// TestAdmissionMatchesReferenceModel runs seeded schedules through the
// reference model and through a live TCPStation, record by record: every
// frame's reply (ack, stale re-ack or nack, with its sequence), the window
// position and the samples each sensor holds after it, the transport's
// ack and nack counts, the station's stats and the window indices must
// agree. Seeds 1–12 draw stormy schedules, which exercise resyncs but
// mostly classify few windows or none; seeds 13–24 draw calm ones, and
// each must classify at least minCalmWindows windows, so the window
// and alert comparisons rest on every calm schedule.
func TestAdmissionMatchesReferenceModel(t *testing.T) {
	const minCalmWindows = 8
	var total StationStats
	leadResyncs := 0
	for seed := int64(1); seed <= 24; seed++ {
		calm := seed > 12
		log := &windowLog{}
		st, memSink, addr := reliableHarness(t, log)
		conn, sc := rawStationConn(t, addr)
		if _, err := conn.Write(appendCtrl(nil, ctrlRecord{Kind: ctrlHello})); err != nil {
			t.Fatal(err)
		}
		m := refStation{wlen: 1080}
		var alerts []int
		for step, ev := range refSchedule(seed, 400, calm) {
			var reply ctrlRecord
			var windows []int
			m, reply, windows = refStep(m, ev)
			alerts = append(alerts, windows...)
			if ev.gap {
				if _, err := conn.Write(appendCtrl(nil, ctrlRecord{Kind: ctrlGap, Sensor: ev.sensor, Seq: ev.seq})); err != nil {
					t.Fatal(err)
				}
				continue
			}
			f := FrameFromFloats(ev.sensor, ev.seq, make([]float64, ev.n))
			rec, err := f.EncodeChecksummed()
			if err != nil {
				t.Fatal(err)
			}
			if _, err := conn.Write(rec); err != nil {
				t.Fatal(err)
			}
			got, err := sc.next()
			if err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
			if !got.isCtrl || got.ctrl.Kind != reply.Kind || got.ctrl.Sensor != reply.Sensor || got.ctrl.Seq != reply.Seq {
				t.Fatalf("seed %d step %d (%+v): station replied %+v, model %+v", seed, step, ev, got.ctrl, reply)
			}
			// The reply follows the frame's handling: the window position
			// and what each sensor holds must match the model's now.
			st.Station.mu.Lock()
			index := st.Station.index
			st.Station.mu.Unlock()
			if ecg, abp := buffered(st.Station, SensorECG), buffered(st.Station, SensorABP); index != m.index || ecg != m.s[0].buffered || abp != m.s[1].buffered {
				t.Fatalf("seed %d step %d (%+v): station at window %d holding %d ECG / %d ABP samples, model at %d holding %d / %d",
					seed, step, ev, index, ecg, abp, m.index, m.s[0].buffered, m.s[1].buffered)
			}
		}
		if got := st.Stats(); got.Acks != m.acks || got.Nacks != m.nacks || got.FrameErrors != 0 {
			t.Errorf("seed %d: transport stats %+v, model %d acks / %d nacks", seed, got, m.acks, m.nacks)
		}
		if got := st.Station.Stats(); got != m.stats {
			t.Errorf("seed %d: station stats %+v, model %+v", seed, got, m.stats)
		}
		got := memSink.Alerts()
		if len(got) != len(alerts) {
			t.Fatalf("seed %d: %d alerts, model %d", seed, len(got), len(alerts))
		}
		for i, a := range got {
			if a.WindowIndex != alerts[i] {
				t.Fatalf("seed %d: alert %d at window %d, model %d", seed, i, a.WindowIndex, alerts[i])
			}
		}
		if calm && m.stats.Windows < minCalmWindows {
			t.Errorf("calm seed %d classified %d windows, want at least %d", seed, m.stats.Windows, minCalmWindows)
		}
		total.Windows += m.stats.Windows
		total.SeqErrors += m.stats.SeqErrors
		total.Resyncs += m.stats.Resyncs
		leadResyncs += m.leadResyncs
		_ = conn.Close()
		_ = st.Close()
	}
	// The schedules must reach every rule, or agreement proves little.
	if total.Windows == 0 || total.SeqErrors == 0 || total.Resyncs == 0 || leadResyncs == 0 {
		t.Errorf("schedules exercised too little: %+v, %d resyncs behind a queued window", total, leadResyncs)
	}
}
