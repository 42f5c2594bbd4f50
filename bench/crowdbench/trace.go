package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one request (or one
// iteration) share req; parent names the span that caused this one
// within that request ("" for the root).
type span struct {
	Name     string
	Parent   string
	Req      uint64
	Lane     int // trace-viewer row: one per load-generator goroutine, plus the server's
	Start    time.Duration
	Dur      time.Duration
	Replayed bool // duration measured by replaying the stage after the request, not in place
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced run: every method is a no-op, so call sites need no branches.
type tracer struct {
	t0 time.Time

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// now is the offset of the present from the tracer's origin.
func (t *tracer) now() time.Duration {
	if t == nil {
		return 0
	}
	return time.Since(t.t0)
}

// at is the offset of a wall-clock instant from the tracer's origin.
func (t *tracer) at(when time.Time) time.Duration {
	if t == nil {
		return 0
	}
	return when.Sub(t.t0)
}

func (t *tracer) add(s span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// in records fn as a span that started now.
func (t *tracer) in(name, parent string, req uint64, lane int, fn func()) time.Duration {
	start := time.Now()
	fn()
	d := time.Since(start)
	if t != nil {
		t.add(span{Name: name, Parent: parent, Req: req, Lane: lane, Start: start.Sub(t.t0), Dur: d})
	}
	return d
}

func (t *tracer) all() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// finish ends a traced pass: the spans go to the workload's trace file
// and the self-time table to the run's report.
func (t *tracer) finish(o options) error {
	spans := t.all()
	path := filepath.Join(o.outDir, "trace-"+o.workload+".json")
	if err := writeChromeTrace(path, spans); err != nil {
		return err
	}
	fmt.Fprintf(o.log, "\ntraced pass: %d spans -> %s\n", len(spans), path)
	printSelfTimes(o.log, spans)
	return nil
}

// selfTimes returns, per span name, the durations left after taking out
// the part of each span its direct children cover. Children of one span
// never overlap here (a request is served by one goroutine at a time), so
// coverage is their summed duration clipped to the parent's.
func selfTimes(spans []span) map[string]samples {
	type key struct {
		req  uint64
		name string
	}
	covered := make(map[key]time.Duration)
	for _, s := range spans {
		if s.Parent != "" {
			covered[key{s.Req, s.Parent}] += s.Dur
		}
	}
	out := make(map[string]samples)
	for _, s := range spans {
		self := s.Dur - covered[key{s.Req, s.Name}]
		if self < 0 {
			self = 0
		}
		out[s.Name] = append(out[s.Name], self)
	}
	return out
}

// printSelfTimes prints the self-time table of a traced pass.
func printSelfTimes(w io.Writer, spans []span) {
	self := selfTimes(spans)
	total := make(map[string]time.Duration)
	for _, s := range spans {
		total[s.Name] += s.Dur
	}
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-28s %8s %12s %12s %12s\n", "span", "count", "total_s", "self_s", "self_p50_ms")
	for _, n := range names {
		var sum time.Duration
		for _, d := range self[n] {
			sum += d
		}
		fmt.Fprintf(w, "%-28s %8d %12.4f %12.4f %12.4f\n", n, len(self[n]), total[n].Seconds(), sum.Seconds(), ms(self[n].median()))
	}
}

// writeChromeTrace writes spans as Chrome trace-event JSON (load it in
// chrome://tracing or ui.perfetto.dev).
func writeChromeTrace(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	type event struct {
		Name string                 `json:"name"`
		Cat  string                 `json:"cat"`
		Ph   string                 `json:"ph"`
		Ts   float64                `json:"ts"`
		Dur  float64                `json:"dur"`
		Pid  int                    `json:"pid"`
		Tid  int                    `json:"tid"`
		Args map[string]interface{} `json:"args"`
	}
	enc := json.NewEncoder(w)
	io.WriteString(w, "[\n")
	for i, s := range spans {
		if i > 0 {
			io.WriteString(w, ",")
		}
		cat := "measured"
		if s.Replayed {
			cat = "replayed"
		}
		err := enc.Encode(event{
			Name: s.Name, Cat: cat, Ph: "X",
			Ts: float64(s.Start) / 1e3, Dur: float64(s.Dur) / 1e3,
			Pid: 1, Tid: s.Lane,
			Args: map[string]interface{}{"req": s.Req, "parent": s.Parent},
		})
		if err != nil {
			f.Close()
			return err
		}
	}
	io.WriteString(w, "]\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
