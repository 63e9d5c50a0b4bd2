package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// tracer records nested wall-clock spans on one goroutine. Every span adds
// to its layer's running totals (count, total time, self time) when it
// ends, so per-layer figures stay exact however many spans occur; only the
// first maxSpans spans are also kept for the Chrome trace export.
//
// Self time is a span's duration minus the time covered by its direct
// children. Children of one span never overlap (the tracer is a stack), so
// that is the sum of the children's durations.
type tracer struct {
	clock    func() int64 // nanoseconds on any fixed origin
	tid      int          // Chrome trace thread id of this tracer's spans
	maxSpans int

	ids      map[string]int
	names    []string
	layers   []layerStat
	stack    []openSpan
	spans    []span
	dropped  int
	counters map[string]float64
	children []*tracer // merged tracers, kept for the export
}

type layerStat struct {
	count       int
	total, self int64 // ns
}

type openSpan struct {
	name         int
	start, child int64
	idx          int // index in spans, or -1 when not kept
}

// span is one finished span; parent indexes the same tracer's spans (-1
// for a root or a parent that was not kept).
type span struct {
	name       int
	parent     int
	start, end int64
}

// processStart is the common origin of every tracer's clock, so spans of
// tracers merged from parallel workers line up in the export.
var processStart = time.Now()

func newTracer(tid, maxSpans int) *tracer {
	return newTracerClock(func() int64 { return int64(time.Since(processStart)) }, tid, maxSpans)
}

func newTracerClock(clock func() int64, tid, maxSpans int) *tracer {
	return &tracer{clock: clock, tid: tid, maxSpans: maxSpans, ids: map[string]int{}, counters: map[string]float64{}}
}

// id interns a span name; hot paths intern once and pass the id.
func (t *tracer) id(name string) int {
	if i, ok := t.ids[name]; ok {
		return i
	}
	t.ids[name] = len(t.names)
	t.names = append(t.names, name)
	t.layers = append(t.layers, layerStat{})
	return len(t.names) - 1
}

func (t *tracer) begin(name int) {
	idx := -1
	if len(t.spans) < t.maxSpans {
		parent := -1
		if n := len(t.stack); n > 0 {
			parent = t.stack[n-1].idx
		}
		idx = len(t.spans)
		t.spans = append(t.spans, span{name: name, parent: parent})
	} else {
		t.dropped++
	}
	now := t.clock()
	if idx >= 0 {
		t.spans[idx].start = now
	}
	t.stack = append(t.stack, openSpan{name: name, start: now, idx: idx})
}

func (t *tracer) end() {
	now := t.clock()
	n := len(t.stack) - 1
	o := t.stack[n]
	t.stack = t.stack[:n]
	d := now - o.start
	l := &t.layers[o.name]
	l.count++
	l.total += d
	l.self += d - o.child
	if n > 0 {
		t.stack[n-1].child += d
	}
	if o.idx >= 0 {
		t.spans[o.idx].end = now
	}
}

// record adds a finished root span timed elsewhere, such as on another
// goroutine under the caller's lock.
func (t *tracer) record(name string, start, end int64) {
	id := t.id(name)
	l := &t.layers[id]
	l.count++
	l.total += end - start
	l.self += end - start
	if len(t.spans) < t.maxSpans {
		t.spans = append(t.spans, span{name: id, parent: -1, start: start, end: end})
	} else {
		t.dropped++
	}
}

// do runs fn inside a span named name.
func (t *tracer) do(name string, fn func()) {
	t.begin(t.id(name))
	fn()
	t.end()
}

func (t *tracer) add(counter string, v float64) { t.counters[counter] += v }

// layer returns the totals of one span name (zero when it never occurred).
func (t *tracer) layer(name string) layerStat {
	if i, ok := t.ids[name]; ok {
		return t.layers[i]
	}
	return layerStat{}
}

// layersWithPrefix sums every span name starting with prefix.
func (t *tracer) layersWithPrefix(prefix string) layerStat {
	var s layerStat
	for i, n := range t.names {
		if strings.HasPrefix(n, prefix) {
			s.count += t.layers[i].count
			s.total += t.layers[i].total
			s.self += t.layers[i].self
		}
	}
	return s
}

// merge folds other's totals, counters and kept spans into t. Kept spans
// keep their own thread id in the export, so merged tracers of parallel
// workers render as parallel tracks.
func (t *tracer) merge(other *tracer) {
	for i, n := range other.names {
		l := &t.layers[t.id(n)]
		l.count += other.layers[i].count
		l.total += other.layers[i].total
		l.self += other.layers[i].self
	}
	for k, v := range other.counters {
		t.counters[k] += v
	}
	t.dropped += other.dropped
	t.children = append(t.children, other)
}

// chromeEvent is one complete ("X") event of the Chrome trace-event format.
type chromeEvent struct {
	Name string            `json:"name"`
	Ph   string            `json:"ph"`
	Ts   float64           `json:"ts"`  // µs
	Dur  float64           `json:"dur"` // µs
	Pid  int               `json:"pid"`
	Tid  int               `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

// writeChrome exports the kept spans of t and every merged tracer as a
// Chrome trace-event document, loadable in Perfetto or chrome://tracing.
func (t *tracer) writeChrome(w io.Writer) error {
	var events []chromeEvent
	var walk func(tr *tracer)
	walk = func(tr *tracer) {
		for _, s := range tr.spans {
			ev := chromeEvent{
				Name: tr.names[s.name], Ph: "X", Pid: 1, Tid: tr.tid,
				Ts: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3,
			}
			if s.parent >= 0 {
				ev.Args = map[string]string{"parent": tr.names[tr.spans[s.parent].name]}
			}
			events = append(events, ev)
		}
		for _, c := range tr.children {
			walk(c)
		}
	}
	walk(t)
	return json.NewEncoder(w).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
}

// writeTable prints one row per span name: count, total and self time,
// and self time as a share of all self time, largest self time first.
func (t *tracer) writeTable(w io.Writer) {
	order := make([]int, len(t.names))
	var all int64
	for i := range order {
		order[i] = i
		all += t.layers[i].self
	}
	sort.Slice(order, func(a, b int) bool { return t.layers[order[a]].self > t.layers[order[b]].self })
	fmt.Fprintf(w, "%-28s %10s %10s %10s %7s\n", "layer", "count", "total_s", "self_s", "self%")
	for _, i := range order {
		l := t.layers[i]
		share := 0.0
		if all > 0 {
			share = 100 * float64(l.self) / float64(all)
		}
		fmt.Fprintf(w, "%-28s %10d %10.4f %10.4f %6.1f%%\n", t.names[i], l.count, sec(l.total), sec(l.self), share)
	}
	if t.dropped > 0 {
		fmt.Fprintf(w, "(%d spans counted in the totals but not kept for export)\n", t.dropped)
	}
}

func sec(ns int64) float64 { return float64(ns) / 1e9 }
