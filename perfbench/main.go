// Command perfbench is the repository's benchmark. It runs one workload
// from a workload seed, measures it for a fixed wall-clock budget, checks
// that the simulated outputs are correct, and prints a human-readable
// report followed by one JSON line:
//
//	{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones, measured untraced.
// With -trace 1 the same budget is split between an untraced and a traced
// run, and the metrics are the per-layer ones, timed from outside each
// layer; the traced run's spans are written as a Chrome trace-event file
// and a per-layer self-time table under .bench_build/perfbench/traces.
//
// Run it through run.sh from the repository root, which builds it first:
//
//	bash perfbench/run.sh --workload paper-dsmf --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"
)

type metricDef struct{ name, unit string }

// endToEnd and perLayer list the metrics in BENCHMARK.json order;
// benchmark_test.go keeps the two in step.
var endToEnd = []metricDef{
	{"setup_s", "s"}, {"run_s", "s"}, {"alloc_mb", "MB"}, {"heap_mb", "MB"},
}

var perLayer = []metricDef{
	{"gossip.cycles", "count"}, {"gossip.self_s", "s"}, {"gossip.ms_per_cycle", "ms"},
	{"gossip.msgs", "count"}, {"gossip.ns_per_msg", "ns"},
	{"core.phase1_calls", "count"}, {"core.phase1_s", "s"},
	{"core.phase1_s.DHEFT", "s"}, {"core.phase1_s.max-min", "s"}, {"core.phase1_s.min-min", "s"},
	{"core.phase1_s.DSDF", "s"}, {"core.phase1_s.sufferage", "s"}, {"core.phase1_s.DSMF", "s"},
	{"core.phase1_idle_frac", "ratio"}, {"core.us_per_dispatch", "us"}, {"core.plan_s", "s"},
	{"core.phase2_picks", "count"}, {"core.phase2_s", "s"},
	{"sim.events", "count"}, {"sim.self_s", "s"}, {"sim.ns_per_event", "ns"},
	{"grid.rounds", "count"}, {"grid.round_self_s", "s"}, {"grid.task_events", "count"},
	{"grid.task_self_s", "s"}, {"grid.dispatches", "count"},
	{"topology.generate_s", "s"}, {"grid.new_s", "s"}, {"workload.generate_s", "s"},
	{"metrics.samples", "count"}, {"metrics.sample_s", "s"},
	{"service.new_s", "s"}, {"service.submit_ms", "ms"}, {"service.advance_ms", "ms"},
	{"service.status_ms", "ms"}, {"service.metrics_ms", "ms"}, {"service.prom_ms", "ms"},
	{"read_p50_ms", "ms"}, {"read_p99_ms", "ms"}, {"read_n", "count"},
	{"write_p50_ms", "ms"}, {"write_p99_ms", "ms"}, {"write_n", "count"},
	{"experiments.jobs", "count"}, {"experiments.job_s", "s"}, {"experiments.worker_util", "ratio"},
	{"experiments.plumbing_s", "s"}, {"wire.json_s", "s"},
	{"trace.overhead_s", "s"}, {"reader.late_ms", "ms"},
}

// config is one invocation.
type config struct {
	seed   int64
	budget time.Duration // wall time of the measured repetitions
	trace  bool
}

// report is what a workload measured. Every repetition or request counts
// once in attempted; one whose outputs are wrong, or that failed, also
// counts in failed, with the reason in problems.
type report struct {
	attempted, failed int
	problems          []string
	notes             []string           // extra human-readable lines
	e2e               map[string]float64 // untraced figures
	layers            map[string]float64 // traced figures (trace mode only)
	trace             *tracer            // the traced run, for the export
}

func newReport() *report {
	return &report{e2e: map[string]float64{}, layers: map[string]float64{}}
}

func (r *report) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

var workloads = map[string]func(config) (*report, error){
	"paper-dsmf":   runPaperDSMF,
	"sched-heavy":  runSchedHeavy,
	"daemon-mixed": runDaemonMixed,
}

func main() {
	workload := flag.String("workload", "", "paper-dsmf | sched-heavy | daemon-mixed")
	seed := flag.Int64("seed", 1, "workload seed")
	secs := flag.Int("seconds", 20, "measured wall time per invocation")
	traced := flag.Int("trace", 0, "1: report per-layer metrics from a traced run")
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok || *secs < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload paper-dsmf|sched-heavy|daemon-mixed, -seconds >= 1, -trace 0|1\n")
		os.Exit(2)
	}
	cfg := config{seed: *seed, budget: time.Duration(*secs) * time.Second, trace: *traced == 1}
	start := time.Now()
	r, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	if err := emit(*workload, cfg, r, time.Since(start)); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

// emit prints the report and the result line, and in trace mode writes
// the trace files.
func emit(workload string, cfg config, r *report, wall time.Duration) error {
	fmt.Printf("workload %s  seed %d  trace %v  wall %.1fs\n", workload, cfg.seed, cfg.trace, wall.Seconds())
	for _, n := range r.notes {
		fmt.Println("  " + n)
	}
	for _, p := range r.problems {
		fmt.Println("  FAILED: " + p)
	}
	fmt.Printf("  error_rate %.4f (%d failed of %d attempted)\n", float64(r.failed)/float64(max(1, r.attempted)), r.failed, r.attempted)

	defs, values := endToEnd, r.e2e
	if cfg.trace {
		defs, values = perLayer, r.layers
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(defs))
	for _, d := range defs {
		v := values[d.name]
		if math.IsInf(v, 0) || math.IsNaN(v) {
			// A failed request's infinite latency; error_rate reports it.
			v = 1e9
		}
		metrics[d.name] = value{v, d.unit}
		fmt.Printf("  %-26s %14.6g %s\n", d.name, v, d.unit)
	}
	if cfg.trace && r.trace != nil {
		r.trace.writeTable(os.Stdout)
		if err := writeTrace(workload, cfg.seed, r.trace); err != nil {
			return err
		}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// traceDir holds the traced runs' exports, inside the checkout's build
// directory.
const traceDir = ".bench_build/perfbench/traces"

func writeTrace(workload string, seed int64, tr *tracer) error {
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(traceDir, fmt.Sprintf("%s-seed%d", workload, seed))
	f, err := os.Create(base + ".trace.json")
	if err != nil {
		return err
	}
	if err := tr.writeChrome(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	t, err := os.Create(base + ".layers.txt")
	if err != nil {
		return err
	}
	tr.writeTable(t)
	if err := t.Close(); err != nil {
		return err
	}
	fmt.Printf("  trace: %s.trace.json, %s.layers.txt\n", base, base)
	return nil
}
