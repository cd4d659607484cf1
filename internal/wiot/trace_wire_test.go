package wiot

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

// TestControlRecordsTraceRoundTrip pins the ctrlTrace wire layout: the
// wide 23-byte record round-trips span and parent IDs exactly, and a
// damaged or truncated record is rejected rather than misparsed.
func TestControlRecordsTraceRoundTrip(t *testing.T) {
	in := ctrlRecord{Kind: ctrlTrace, Sensor: SensorECG, Span: 0xDEADBEEFCAFE0123, Parent: 0x4242424242424242}
	buf := appendCtrl(nil, in)
	if len(buf) != ctrlTraceSize {
		t.Fatalf("encoded ctrlTrace is %d bytes, want %d", len(buf), ctrlTraceSize)
	}
	out, err := decodeCtrl(buf)
	if err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Fatalf("round-trip = %+v, want %+v", out, in)
	}

	// Classic kinds keep the narrow layout on the same wire.
	ack := appendCtrl(nil, ctrlRecord{Kind: ctrlAck, Sensor: SensorABP, Seq: 9})
	if len(ack) != ctrlRecordSize {
		t.Fatalf("encoded ack is %d bytes, want %d", len(ack), ctrlRecordSize)
	}

	// One flipped bit anywhere in the record must fail the CRC.
	for i := range buf {
		dam := append([]byte(nil), buf...)
		dam[i] ^= 0x10
		if _, err := decodeCtrl(dam); err == nil && dam[0] == ctrlMagic && ctrlKind(dam[1]) == ctrlTrace {
			t.Errorf("bit flip at byte %d accepted", i)
		}
	}

	// A truncated trace record is malformed, not a narrow record.
	if _, err := decodeCtrl(buf[:ctrlRecordSize]); !errors.Is(err, ErrBadControl) {
		t.Fatalf("truncated trace record: err = %v, want ErrBadControl", err)
	}
}

// TestPeekRecordTraceControl pins that the header-level classifier sizes
// a kind-5 control record with the wide layout, so the scanner slices
// the full 23 bytes before decoding.
func TestPeekRecordTraceControl(t *testing.T) {
	buf := appendCtrl(nil, ctrlRecord{Kind: ctrlTrace, Span: 1, Parent: 2})
	info, err := PeekRecord(buf)
	if err != nil {
		t.Fatal(err)
	}
	if info.Kind != RecordControl || info.Len != ctrlTraceSize {
		t.Fatalf("info = %+v, want control/%d", info, ctrlTraceSize)
	}
	if _, err := PeekRecord([]byte{ctrlMagic, byte(ctrlAuthReject) + 1}); !errors.Is(err, ErrBadControl) {
		t.Fatalf("kind past ctrlAuthReject: err = %v, want ErrBadControl", err)
	}
}

// TestFrameScannerTraceControlRecords: a ctrlTrace record travels the
// scanner path intact between frames, and corruption inside it costs
// resync bytes, not a misparse.
func TestFrameScannerTraceControlRecords(t *testing.T) {
	trace := appendCtrl(nil, ctrlRecord{Kind: ctrlTrace, Span: 77, Parent: 33})
	ack := appendCtrl(nil, ctrlRecord{Kind: ctrlAck, Sensor: SensorABP, Seq: 4})
	bad := appendCtrl(nil, ctrlRecord{Kind: ctrlTrace, Span: 99, Parent: 1})
	bad[10] ^= 0xFF

	stream := append(append(append([]byte(nil), trace...), bad...), ack...)
	sc := newFrameScanner(bytes.NewReader(stream))

	rec, err := sc.next()
	if err != nil {
		t.Fatal(err)
	}
	if !rec.isCtrl || rec.ctrl.Kind != ctrlTrace || rec.ctrl.Span != 77 || rec.ctrl.Parent != 33 {
		t.Fatalf("first record = %+v, want trace 77/33", rec.ctrl)
	}
	rec, err = sc.next()
	if err != nil {
		t.Fatal(err)
	}
	if !rec.isCtrl || rec.ctrl.Kind != ctrlAck || rec.ctrl.Seq != 4 {
		t.Fatalf("second record = %+v, want ack 4 (damaged trace record must be junk)", rec.ctrl)
	}
	if _, err := sc.next(); !errors.Is(err, io.EOF) {
		t.Fatalf("want EOF, got %v", err)
	}
	if sc.skipped == 0 {
		t.Error("scanner skipped no bytes; the damaged record was silently swallowed")
	}
}

// TestControlRecordsAllocFree pins the hot-path cost of the trace
// extension at zero: classifying and decoding control records — the
// per-record work the station loop now does for every wire record even
// with federation and tracing off — allocates nothing, and re-encoding
// into a scratch buffer is alloc-free too.
func TestControlRecordsAllocFree(t *testing.T) {
	traceRec := appendCtrl(nil, ctrlRecord{Kind: ctrlTrace, Span: 5, Parent: 6})
	ackRec := appendCtrl(nil, ctrlRecord{Kind: ctrlAck, Sensor: SensorECG, Seq: 3})
	scratch := make([]byte, 0, ctrlTraceSize)

	if n := testing.AllocsPerRun(200, func() {
		if _, err := decodeCtrl(traceRec); err != nil {
			t.Fatal(err)
		}
		if _, err := decodeCtrl(ackRec); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("decodeCtrl allocates %.1f/op, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		if _, err := PeekRecord(traceRec); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("PeekRecord allocates %.1f/op, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		scratch = appendCtrl(scratch[:0], ctrlRecord{Kind: ctrlTrace, Span: 5, Parent: 6})
	}); n != 0 {
		t.Errorf("appendCtrl into scratch allocates %.1f/op, want 0", n)
	}
}
