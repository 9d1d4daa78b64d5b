package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// tracer records host-time spans around the benchmark's calls into the
// simulator's layers. Spans stay in memory and are written once, when the
// pass ends, as Chrome trace_event JSON (chrome://tracing, Perfetto). A nil
// *tracer records nothing, so untraced passes pay one nil check per call.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	lanes []time.Duration // end time of the last span on each engine lane
}

// span is one timed call. Parent is the id of the span that caused it
// (0 at the root); every span of a pass shares the pass's trace file.
type span struct {
	ID, Parent int
	Cat, Name  string
	Start, End time.Duration
	Lane       int
}

// spanRef is an open span; end closes it.
type spanRef struct {
	tr    *tracer
	id    int
	start time.Duration
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span on the benchmark's own goroutine (lane 0).
func (t *tracer) begin(cat, name string, parent spanRef) spanRef {
	if t == nil {
		return spanRef{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	start := time.Since(t.t0)
	t.spans = append(t.spans, span{ID: id, Parent: parent.id, Cat: cat, Name: name, Start: start})
	return spanRef{tr: t, id: id, start: start}
}

// end closes the span and returns its duration; on a nil tracer it returns 0.
func (s spanRef) end() time.Duration {
	if s.tr == nil {
		return 0
	}
	s.tr.mu.Lock()
	defer s.tr.mu.Unlock()
	now := time.Since(s.tr.t0)
	s.tr.spans[s.id-1].End = now
	return now - s.start
}

// add records a span that ran elsewhere (an engine worker) and ended now,
// on the first lane free at its start so concurrent runs do not overlap in
// the viewer.
func (t *tracer) add(cat, name string, parent spanRef, dur time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	end := time.Since(t.t0)
	start := end - dur
	lane := -1
	for i, free := range t.lanes {
		if free <= start {
			lane = i
			break
		}
	}
	if lane < 0 {
		lane = len(t.lanes)
		t.lanes = append(t.lanes, 0)
	}
	t.lanes[lane] = end
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent.id, Cat: cat, Name: name, Start: start, End: end, Lane: lane + 1})
}

// chromeEvent is one complete ("X") event of the trace_event format.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]int `json:"args"`
}

// write stores the spans as a Chrome trace at path, creating its directory.
func (t *tracer) write(path string, meta map[string]string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	doc := struct {
		TraceEvents     []chromeEvent     `json:"traceEvents"`
		DisplayTimeUnit string            `json:"displayTimeUnit"`
		OtherData       map[string]string `json:"otherData"`
	}{DisplayTimeUnit: "ms", OtherData: meta}
	for _, s := range t.spans {
		end := s.End
		if end < s.Start { // never closed: the pass failed inside it
			end = s.Start
		}
		doc.TraceEvents = append(doc.TraceEvents, chromeEvent{
			Name: s.Name, Cat: s.Cat, Ph: "X",
			Ts:  float64(s.Start.Nanoseconds()) / 1e3,
			Dur: float64((end - s.Start).Nanoseconds()) / 1e3,
			Pid: 1, Tid: s.Lane,
			Args: map[string]int{"id": s.ID, "parent": s.Parent},
		})
	}
	b, err := json.Marshal(doc)
	if err != nil {
		return fmt.Errorf("encoding trace: %w", err)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
