package main

import (
	"math"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
)

// TestRefusalsCountAsFailures drives the writer and the reader against a
// server that sheds submissions (429) and fails advances and status reads
// (503): every such request must count as failed, with a latency beyond
// any limit, and the writer must carry on to the drained snapshot.
func TestRefusalsCountAsFailures(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/v1/workflows":
			w.WriteHeader(http.StatusTooManyRequests)
		case "/v1/metrics":
			w.Write([]byte(`{"in_flight":0}`)) //nolint:errcheck
		default:
			w.WriteHeader(http.StatusServiceUnavailable)
		}
	}))
	defer srv.Close()

	var out daemonOut
	var submitted atomic.Int64
	body, err := writeLoad(srv.Client(), srv.URL, 1, &submitted, &out)
	if err != nil || string(body) != `{"in_flight":0}` {
		t.Fatalf("writer: body %q, err %v", body, err)
	}
	if submitted.Load() != 0 {
		t.Errorf("%d refused submissions counted as submitted", submitted.Load())
	}
	ws := summarize(out.writes)
	if ws.n != 2*daemonSubmits || ws.failed != ws.n || !math.IsInf(ws.p50Ms, 1) {
		t.Errorf("writes: %d of %d failed, p50 %v; want all %d failed and +Inf", ws.failed, ws.n, ws.p50Ms, 2*daemonSubmits)
	}
	if len(out.polls) != 1 || !out.polls[0] {
		t.Errorf("drain polls %v, want one successful poll", out.polls)
	}
	if readOnce(srv.Client(), srv.URL, 2, 0) {
		t.Error("a 503 read counted as a success")
	}
	if !readOnce(srv.Client(), srv.URL, 1, 0) {
		t.Error("a 200 read counted as a failure")
	}
}
