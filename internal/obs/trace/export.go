package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// chromeEvent is one entry of the Chrome trace_event JSON Array Format
// (the dialect chrome://tracing and Perfetto both load). Timestamps
// and durations are microseconds.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  *float64       `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  uint64         `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// chromeDoc is the top-level JSON Object Format wrapper; its
// traceEvents member is the required trace_event array.
type chromeDoc struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

const chromePID = 1

// rootOf follows parent links to a span's root ancestor; spans whose
// parents were dropped by the ring wrap (or that never had one) root
// themselves. The root ID doubles as the Chrome thread ID, which is
// what makes every fleet slot's tree render as its own track with
// nested child slices.
func rootOf(id uint64, parents map[uint64]uint64) uint64 {
	seen := 0
	for {
		p, ok := parents[id]
		if !ok || p == 0 {
			return id
		}
		id = p
		if seen++; seen > 1024 { // defensive: torn records could theoretically loop
			return id
		}
	}
}

func micros(ns int64) float64 { return float64(ns) / 1e3 }

// ChromeTraceEvents converts a decoded event set into trace_event
// records: completed spans become "X" complete slices grouped by root
// ancestor, unmatched begins become "B" slices (still-open work at
// dump time), and counter samples become "C" counter tracks.
// Thread-name metadata labels each track after its root span.
func ChromeTraceEvents(events []Event) []chromeEvent {
	parents := make(map[uint64]uint64)
	spanName := make(map[uint64]string)
	ended := make(map[uint64]bool)
	for _, e := range events {
		if e.Kind == KindSpanBegin || e.Kind == KindSpanEnd {
			if e.SpanID != 0 {
				parents[e.SpanID] = e.ParentID
				spanName[e.SpanID] = e.Name
			}
			if e.Kind == KindSpanEnd {
				ended[e.SpanID] = true
			}
		}
	}

	var out []chromeEvent
	trackName := map[uint64]string{}
	track := func(span uint64, fallback string) uint64 {
		root := rootOf(span, parents)
		if _, ok := trackName[root]; !ok {
			name, ok := spanName[root]
			if !ok {
				name = fallback
			}
			trackName[root] = name
		}
		return root
	}
	for _, e := range events {
		switch e.Kind {
		case KindSpanEnd:
			dur := micros(e.TS - e.TS2)
			out = append(out, chromeEvent{
				Name: e.Name, Ph: "X", TS: micros(e.TS2), Dur: &dur,
				PID: chromePID, TID: track(e.SpanID, e.Name),
			})
		case KindSpanBegin:
			if ended[e.SpanID] {
				continue // the matching End's "X" record covers it
			}
			out = append(out, chromeEvent{
				Name: e.Name, Ph: "B", TS: micros(e.TS),
				PID: chromePID, TID: track(e.SpanID, e.Name),
			})
		case KindCounter:
			out = append(out, chromeEvent{
				Name: e.Name, Ph: "C", TS: micros(e.TS),
				PID: chromePID, TID: 0,
				Args: map[string]any{"value": e.Value},
			})
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].TS < out[j].TS })

	// Label each track after its root span so chrome://tracing shows
	// "fleet.slot" rows instead of bare thread numbers.
	roots := make([]uint64, 0, len(trackName))
	for root := range trackName {
		roots = append(roots, root)
	}
	sort.Slice(roots, func(i, j int) bool { return roots[i] < roots[j] })
	meta := make([]chromeEvent, 0, len(roots))
	for _, root := range roots {
		meta = append(meta, chromeEvent{
			Name: "thread_name", Ph: "M", PID: chromePID, TID: root,
			Args: map[string]any{"name": fmt.Sprintf("%s #%d", trackName[root], root)},
		})
	}
	return append(meta, out...)
}

// WriteChromeTrace renders the recorder's retained events as Chrome
// trace_event JSON (object format, with the traceEvents array).
func (r *Recorder) WriteChromeTrace(w io.Writer) error {
	doc := chromeDoc{TraceEvents: ChromeTraceEvents(r.Snapshot()), DisplayTimeUnit: "ms"}
	if doc.TraceEvents == nil {
		doc.TraceEvents = []chromeEvent{}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(doc)
}

// WriteChromeTraceFile dumps the Chrome trace to path.
func (r *Recorder) WriteChromeTraceFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace: create %s: %w", path, err)
	}
	if err := r.WriteChromeTrace(f); err != nil {
		f.Close()
		return fmt.Errorf("trace: write %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("trace: close %s: %w", path, err)
	}
	return nil
}

// jsonlEvent is the JSONL export schema: one flat object per event.
type jsonlEvent struct {
	Kind   string `json:"kind"`
	Name   string `json:"name"`
	TS     int64  `json:"tsNs"`
	Start  int64  `json:"startNs,omitempty"`
	Span   uint64 `json:"span,omitempty"`
	Parent uint64 `json:"parent,omitempty"`
	Value  int64  `json:"value,omitempty"`
}

// WriteJSONL renders the retained events one JSON object per line, in
// timestamp order — the format ad-hoc analysis scripts (jq, pandas)
// consume directly.
func (r *Recorder) WriteJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, e := range r.Snapshot() {
		je := jsonlEvent{
			Kind: e.Kind.String(), Name: e.Name, TS: e.TS,
			Start: e.TS2, Span: e.SpanID, Parent: e.ParentID, Value: e.Value,
		}
		if err := enc.Encode(je); err != nil {
			return err
		}
	}
	return nil
}
