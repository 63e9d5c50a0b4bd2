package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/service"
	"repro/internal/stats"
	"repro/internal/wire"
)

// daemon-mixed: the -serve daemon (small scale, 150 nodes, virtual clock)
// behind service.Handler on loopback. A closed-loop writer alternates
// seeded submissions with one-scheduling-interval clock advances, then
// advances until the grid drains. Meanwhile an open-loop reader sends a
// fixed number of status and metrics reads at a fixed rate, so every
// repetition does the same work however fast the host runs.
const (
	daemonSubmits = 300    // writer budget per repetition
	advanceStep   = 900.0  // virtual seconds per advance: one scheduling interval
	drainStep     = 3600.0 // virtual seconds per advance while draining
	maxDrainSteps = 2000   // a grid that never drains is an error
	readRate      = 80     // reads per second, below saturation
	readsPerRep   = 200    // 2.5 s of schedule, within the writer's run
	readConns     = 2      // reader connections: the host's CPU count
	readInterval  = time.Second / readRate
	setupsPerRep  = 8 // extra daemon set-ups timed per repetition
)

// daemonOut is one repetition: a fresh daemon, its writer and its reader.
type daemonOut struct {
	setup, run    time.Duration
	alloc, heap   uint64
	digest        string
	reads, writes []sample
	polls         []bool // drain-phase metrics polls: succeeded or not
}

// routeTimer wraps the daemon's HTTP handler and records the server-side
// time of each /v1 route (and the Prometheus scrape) as a span.
type routeTimer struct {
	inner http.Handler
	mu    sync.Mutex
	tr    *tracer
}

func routeName(r *http.Request) string {
	switch {
	case r.Method == http.MethodPost && r.URL.Path == "/v1/workflows":
		return "service.submit"
	case r.Method == http.MethodPost && r.URL.Path == "/v1/clock/advance":
		return "service.advance"
	case r.URL.Path == "/v1/metrics":
		return "service.metrics"
	case r.URL.Path == "/metrics":
		return "service.prom"
	case r.Method == http.MethodGet && len(r.URL.Path) > len("/v1/workflows/"):
		return "service.status"
	}
	return "service.other"
}

func (rt *routeTimer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := rt.tr.clock()
	rt.inner.ServeHTTP(w, r)
	end := rt.tr.clock()
	rt.mu.Lock()
	rt.tr.record(routeName(r), start, end)
	rt.mu.Unlock()
}

// daemon is one running daemon behind its loopback HTTP server.
type daemon struct {
	svc    *service.Service
	srv    *http.Server
	served chan error
	base   string
	setup  time.Duration // service.New plus the listener
}

// startDaemon builds a daemon at seed and serves it on loopback; wrap,
// when non-nil, wraps its handler.
func startDaemon(seed int64, wrap func(http.Handler) http.Handler) (*daemon, error) {
	runtime.GC()
	start := time.Now()
	svc, err := service.New(service.Config{Seed: seed})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		svc.Close()
		return nil, err
	}
	var h http.Handler = service.Handler(svc)
	if wrap != nil {
		h = wrap(h)
	}
	d := &daemon{svc: svc, srv: &http.Server{Handler: h}, served: make(chan error, 1), base: "http://" + ln.Addr().String()}
	go func() { d.served <- d.srv.Serve(ln) }()
	d.setup = time.Since(start)
	return d, nil
}

// stop shuts the server down, waits for it, and closes the daemon.
func (d *daemon) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	d.srv.Shutdown(ctx) //nolint:errcheck // the repetition's result is already decided
	<-d.served
	d.svc.Close()
}

// daemonRep runs one repetition; rt, when non-nil, times the routes.
func daemonRep(seed int64, rt *routeTimer) (daemonOut, error) {
	var out daemonOut
	var wrap func(http.Handler) http.Handler
	if rt != nil {
		wrap = func(h http.Handler) http.Handler { rt.inner = h; return rt }
	}
	d, err := startDaemon(seed, wrap)
	if err != nil {
		return out, err
	}
	defer d.stop()
	out.setup = d.setup

	writer := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1}}
	reader := &http.Client{Transport: &http.Transport{MaxConnsPerHost: readConns, MaxIdleConnsPerHost: readConns}}
	defer writer.CloseIdleConnections()
	defer reader.CloseIdleConnections()

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var submitted atomic.Int64
	readsDone := make(chan []sample, 1)
	go func() {
		readsDone <- runOpenLoop(readsPerRep, readInterval, readConns, func(k int) bool {
			return readOnce(reader, d.base, k, submitted.Load())
		})
	}()
	runStart := time.Now()
	body, werr := writeLoad(writer, d.base, seed, &submitted, &out)
	out.run = time.Since(runStart)
	out.reads = <-readsDone
	if werr != nil {
		return out, werr
	}
	runtime.ReadMemStats(&after)
	out.alloc = after.TotalAlloc - before.TotalAlloc
	out.heap = liveHeap()
	runtime.KeepAlive(d)
	out.digest = digestBytes(body)
	return out, nil
}

// writeLoad is the closed-loop writer: daemonSubmits rounds of one seeded
// submission and one advance, then advances until nothing is in flight.
// A failed request is recorded and the load goes on; the drained
// snapshot then differs from the other repetitions' and fails the digest
// check too. It returns the drained daemon's /v1/metrics body, or an
// error when the grid never drains.
func writeLoad(c *http.Client, base string, seed int64, submitted *atomic.Int64, out *daemonOut) ([]byte, error) {
	start := time.Now()
	call := func(method, path string, req any, want int) bool {
		due := time.Since(start)
		_, err := do(c, method, base+path, req, want)
		out.writes = append(out.writes, sample{due: due, issued: due, done: time.Since(start), ok: err == nil})
		return err == nil
	}
	for i := 0; i < daemonSubmits; i++ {
		gen := &wire.GenRequest{Seed: stats.SplitSeed(seed, uint64(0xBE00+i))}
		if call(http.MethodPost, "/v1/workflows", wire.SubmitRequest{Gen: gen}, http.StatusCreated) {
			submitted.Add(1) // workflow ids are dense: the reader reads ids below this
		}
		call(http.MethodPost, "/v1/clock/advance", wire.AdvanceRequest{BySeconds: advanceStep}, http.StatusOK)
	}
	for step := 0; step <= maxDrainSteps; step++ {
		body, err := do(c, http.MethodGet, base+"/v1/metrics", nil, http.StatusOK)
		var m wire.MetricsResponse
		if err == nil {
			err = json.Unmarshal(body, &m)
		}
		out.polls = append(out.polls, err == nil)
		if err == nil && m.InFlight == 0 {
			return body, nil
		}
		call(http.MethodPost, "/v1/clock/advance", wire.AdvanceRequest{BySeconds: drainStep}, http.StatusOK)
	}
	return nil, fmt.Errorf("daemon still has workflows in flight after %d drain steps", maxDrainSteps)
}

// readOnce issues the k-th read of the mix: a workflow status, the JSON
// metrics snapshot or the Prometheus scrape, in turn.
func readOnce(c *http.Client, base string, k int, submitted int64) bool {
	path := "/v1/metrics"
	switch k % 3 {
	case 0:
		if submitted > 0 {
			path = fmt.Sprintf("/v1/workflows/%d", int64(k/3)%submitted)
		}
	case 2:
		path = "/metrics"
	}
	_, err := do(c, http.MethodGet, base+path, nil, http.StatusOK)
	return err == nil
}

// do sends one request and requires status want; any other status
// (429 and 5xx included) or a transport error is a failure.
func do(c *http.Client, method, url string, req any, want int) ([]byte, error) {
	var body io.Reader
	if req != nil {
		data, err := json.Marshal(req)
		if err != nil {
			return nil, err
		}
		body = bytes.NewReader(data)
	}
	hr, err := http.NewRequest(method, url, body)
	if err != nil {
		return nil, err
	}
	resp, err := c.Do(hr)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != want {
		return nil, fmt.Errorf("%s %s: status %d: %s", method, url, resp.StatusCode, bytes.TrimSpace(data))
	}
	return data, nil
}

func runDaemonMixed(c config) (*report, error) {
	r := newReport()
	budget := c.budget
	if c.trace {
		budget /= 2
	}
	var first string
	var setup, run, alloc, heap []float64
	var reads, writes []sample
	deadline := time.Now().Add(budget)
	for i := 0; i < maxReps && (i < 3 || time.Now().Before(deadline)); i++ {
		out, err := daemonRep(c.seed, nil)
		if err != nil {
			return nil, err
		}
		if i == 0 {
			first = out.digest
		}
		r.check(out.digest == first, "repetition %d: drained snapshot digest %.12s, first %.12s", i, out.digest, first)
		setup = append(setup, out.setup.Seconds())
		run = append(run, out.run.Seconds())
		alloc = append(alloc, float64(out.alloc)/mib)
		heap = append(heap, float64(out.heap)/mib)
		reads = append(reads, out.reads...)
		writes = append(writes, out.writes...)
		for _, ok := range out.polls {
			r.check(ok, "repetition %d: a drain-phase metrics poll failed", i)
		}
		for j := 0; j < setupsPerRep; j++ {
			d, err := startDaemon(c.seed, nil)
			if err != nil {
				return nil, err
			}
			setup = append(setup, d.setup.Seconds())
			d.stop()
		}
	}
	r.e2e["setup_s"] = median(setup)
	r.e2e["run_s"] = median(run)
	r.e2e["alloc_mb"] = median(alloc)
	r.e2e["heap_mb"] = median(heap)
	rs, ws := summarize(reads), summarize(writes)
	r.attempted += rs.n + ws.n
	r.failed += rs.failed + ws.failed
	if rs.failed+ws.failed > 0 {
		r.problems = append(r.problems, fmt.Sprintf("%d reads and %d writes failed", rs.failed, ws.failed))
	}
	r.note("drained snapshot sha256 %.16s  repetitions %d  run_s min %.3f max %.3f", first, len(run), percentile(run, 0), percentile(run, 100))
	r.note("read_p50_ms %.3f read_p99_ms %.3f (n=%d, %d/s open loop over %d connections)", rs.p50Ms, rs.p99Ms, rs.n, readRate, readConns)
	r.note("write_p50_ms %.3f write_p99_ms %.3f (n=%d, closed loop)", ws.p50Ms, ws.p99Ms, ws.n)
	r.note("reader late mean %.3f ms, worst %.3f ms", rs.lateMeanMs, rs.lateMaxMs)
	if !c.trace {
		return r, nil
	}
	r.layers["read_p50_ms"] = rs.p50Ms
	r.layers["read_p99_ms"] = rs.p99Ms
	r.layers["read_n"] = float64(rs.n)
	r.layers["write_p50_ms"] = ws.p50Ms
	r.layers["write_p99_ms"] = ws.p99Ms
	r.layers["write_n"] = float64(ws.n)
	r.layers["reader.late_ms"] = rs.lateMeanMs

	root := newTracer(0, exportSpans)
	var tracedRun, newS []float64
	deadline = time.Now().Add(budget)
	for i := 0; i < maxReps && (i < 1 || time.Now().Before(deadline)); i++ {
		out, err := daemonRep(c.seed, &routeTimer{tr: root})
		if err != nil {
			return nil, err
		}
		r.check(out.digest == first, "traced repetition %d: drained snapshot digest %.12s, untraced %.12s", i, out.digest, first)
		tracedRun = append(tracedRun, out.run.Seconds())
		newS = append(newS, out.setup.Seconds())
	}
	for _, route := range []string{"submit", "advance", "status", "metrics", "prom"} {
		l := root.layer("service." + route)
		r.layers["service."+route+"_ms"] = ratio(float64(l.total)/1e6, float64(l.count))
	}
	r.layers["service.new_s"] = median(newS)
	r.layers["trace.overhead_s"] = median(tracedRun) - r.e2e["run_s"]
	r.trace = root
	return r, nil
}
