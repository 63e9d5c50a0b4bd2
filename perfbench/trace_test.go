package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// fakeClock returns the given instants in order, one per call.
func fakeClock(t *testing.T, instants ...int64) func() int64 {
	return func() int64 {
		if len(instants) == 0 {
			t.Fatal("clock read more often than the test expects")
		}
		now := instants[0]
		instants = instants[1:]
		return now
	}
}

// TestSelfTimeArithmetic checks self times on a synthetic span tree:
//
//	A [0,100)
//	├── B [10,50)
//	│   └── D [20,30)
//	└── C [60,70)
//	    └── E [62,64)
//	A [200,210)          (second A, no children)
func TestSelfTimeArithmetic(t *testing.T) {
	tr := newTracerClock(fakeClock(t, 0, 10, 20, 30, 50, 60, 62, 64, 70, 100, 200, 210), 1, 100)
	a, b, c, d, e := tr.id("A"), tr.id("B"), tr.id("C"), tr.id("D"), tr.id("E")
	tr.begin(a)
	tr.begin(b)
	tr.begin(d)
	tr.end() // D
	tr.end() // B
	tr.begin(c)
	tr.begin(e)
	tr.end() // E
	tr.end() // C
	tr.end() // A
	tr.begin(a)
	tr.end()

	want := map[string]layerStat{
		"A": {count: 2, total: 110, self: 110 - 40 - 10},
		"B": {count: 1, total: 40, self: 30},
		"C": {count: 1, total: 10, self: 8},
		"D": {count: 1, total: 10, self: 10},
		"E": {count: 1, total: 2, self: 2},
	}
	var selfSum int64
	for name, w := range want {
		if got := tr.layer(name); got != w {
			t.Errorf("%s: got %+v, want %+v", name, got, w)
		}
		selfSum += w.self
	}
	if selfSum != 110 {
		t.Errorf("self times sum to %d, want the roots' total 110", selfSum)
	}

	var buf bytes.Buffer
	if err := tr.writeChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	parents := map[string]string{}
	for _, ev := range doc.TraceEvents {
		parents[ev.Name] = ev.Args["parent"]
	}
	wantParents := map[string]string{"A": "", "B": "A", "C": "A", "D": "B", "E": "C"}
	if len(doc.TraceEvents) != 6 {
		t.Errorf("exported %d spans, want 6", len(doc.TraceEvents))
	}
	for name, p := range wantParents {
		if parents[name] != p {
			t.Errorf("%s: parent %q, want %q", name, parents[name], p)
		}
	}
	var table strings.Builder
	tr.writeTable(&table)
	if !strings.Contains(table.String(), "B ") || !strings.Contains(table.String(), "self_s") {
		t.Errorf("table lacks rows:\n%s", table.String())
	}
}

// TestSpansBeyondCapStillCount checks that spans past the export cap are
// dropped from the export but not from the totals.
func TestSpansBeyondCapStillCount(t *testing.T) {
	tr := newTracerClock(fakeClock(t, 0, 1, 1, 3, 3, 6), 1, 1)
	x := tr.id("X")
	for i := 0; i < 3; i++ {
		tr.begin(x)
		tr.end()
	}
	if got := tr.layer("X"); got.count != 3 || got.total != 6 {
		t.Errorf("totals %+v, want 3 spans of 6 ns in all", got)
	}
	if len(tr.spans) != 1 || tr.dropped != 2 {
		t.Errorf("kept %d, dropped %d; want 1 and 2", len(tr.spans), tr.dropped)
	}
}
