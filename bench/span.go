package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed interval at a layer boundary. Parent is an index into
// the same slice (-1 for a root); Rep is shared by every span of one
// workload repetition. Start and End are offsets from the tracer's origin.
type span struct {
	Name   string        `json:"name"`
	Start  time.Duration `json:"start"`
	End    time.Duration `json:"end"`
	Parent int           `json:"parent"`
	Rep    string        `json:"rep"`
}

// tracer records spans in memory; they are written out when the benchmark
// ends. Every span is opened and closed on the driver goroutine (the
// runtimes' own goroutines are inside a span, never own one), so a stack is
// enough to find the parent. A nil tracer records nothing: the untraced
// pass calls the same set-up code with tracing off.
type tracer struct {
	origin time.Time
	rep    string
	spans  []span
	open   []int
}

func newTracer(rep string) *tracer {
	return &tracer{origin: time.Now(), rep: rep}
}

func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Start: time.Since(t.origin), Parent: parent, Rep: t.rep})
	t.open = append(t.open, id)
	return id
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].End = time.Since(t.origin)
	t.open = t.open[:len(t.open)-1]
}

// in runs fn inside a span.
func (t *tracer) in(name string, fn func()) {
	id := t.begin(name)
	fn()
	t.end(id)
}

// selfTimes returns, per span, its duration minus the part its children
// cover. Children of one parent never overlap here (one goroutine opens
// them), so the covered part is the sum of their durations.
func selfTimes(spans []span) []time.Duration {
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		self[i] += s.End - s.Start
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	return self
}

// traceEvent is one complete ("X") event of the Chrome trace-event format,
// which chrome://tracing and ui.perfetto.dev open directly.
type traceEvent struct {
	Name string            `json:"name"`
	Ph   string            `json:"ph"`
	Ts   float64           `json:"ts"`
	Dur  float64           `json:"dur"`
	Pid  int               `json:"pid"`
	Tid  int               `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

// writeTrace writes the spans of several repetitions as one trace file; each
// repetition becomes a process row named after its rep id.
func writeTrace(path string, reps [][]span) error {
	var events []traceEvent
	for pid, spans := range reps {
		if len(spans) == 0 {
			continue
		}
		events = append(events, traceEvent{Name: "process_name", Ph: "M", Pid: pid,
			Args: map[string]string{"name": spans[0].Rep}})
		for _, s := range spans {
			events = append(events, traceEvent{
				Name: s.Name, Ph: "X", Pid: pid,
				Ts:  float64(s.Start) / float64(time.Microsecond),
				Dur: float64(s.End-s.Start) / float64(time.Microsecond),
			})
		}
	}
	buf, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}
