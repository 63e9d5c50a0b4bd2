package main

import (
	"time"

	"repro/internal/experiments"
)

// paperHours is the simulated horizon of paper-dsmf. The paper runs 36 h;
// a gossip cycle costs the same at every hour, so a shorter horizon keeps
// the profile while fitting several repetitions into one invocation.
const paperHours = 3

// maxReps bounds the repetitions of one invocation.
const maxReps = 50

// exportSpans bounds the spans a traced run keeps for the Chrome export;
// the per-layer totals count every span regardless.
const exportSpans = 100_000

// runPaperDSMF: the paper's Section IV setting, 1000 nodes with the
// Table I batch load (3 workflows per home at t=0) under DSMF on a static
// grid.
func runPaperDSMF(c config) (*report, error) {
	spec := runSpec{
		scale: experiments.Scale{Name: "paper-dsmf", Nodes: 1000, LoadFactor: 3, HorizonHours: paperHours, SnapshotHours: 1},
		algo:  "DSMF",
		seed:  c.seed,
	}
	r := newReport()
	// The reference run also warms the process up before any timing.
	ref, err := referenceDigest(spec)
	if err != nil {
		return nil, err
	}
	budget := c.budget
	if c.trace {
		budget /= 2
	}
	var setup, run, alloc, heap []float64
	deadline := time.Now().Add(budget)
	for i := 0; i < maxReps && (i < 3 || time.Now().Before(deadline)); i++ {
		out, err := assemble(spec, nil, true)
		if err != nil {
			return nil, err
		}
		r.check(out.digest == ref, "repetition %d: digest %.12s, experiments.Run gives %.12s", i, out.digest, ref)
		setup = append(setup, out.setup.Seconds())
		run = append(run, out.run.Seconds())
		alloc = append(alloc, float64(out.allocBytes)/mib)
		heap = append(heap, float64(out.heapBytes)/mib)
	}
	r.e2e["setup_s"] = median(setup)
	r.e2e["run_s"] = median(run)
	r.e2e["alloc_mb"] = median(alloc)
	r.e2e["heap_mb"] = median(heap)
	r.note("digest %.16s  repetitions %d  run_s min %.3f max %.3f", ref, len(run), percentile(run, 0), percentile(run, 100))
	if !c.trace {
		return r, nil
	}

	var tracedRun []float64
	var layers []map[string]float64
	deadline = time.Now().Add(budget)
	for i := 0; i < maxReps && (i < 1 || time.Now().Before(deadline)); i++ {
		keep := 0
		if i == 0 {
			keep = exportSpans
		}
		tr := newTracer(1, keep)
		out, err := assemble(spec, tr, false)
		if err != nil {
			return nil, err
		}
		r.check(out.digest == ref, "traced repetition %d: digest %.12s, untraced %.12s", i, out.digest, ref)
		tracedRun = append(tracedRun, out.run.Seconds())
		m := map[string]float64{}
		simLayers(tr, m)
		layers = append(layers, m)
		if i == 0 {
			r.trace = tr
		}
	}
	r.layers = medianMaps(layers)
	r.layers["trace.overhead_s"] = median(tracedRun) - r.e2e["run_s"]
	r.note("traced repetitions %d  traced run_s median %.3f", len(tracedRun), median(tracedRun))
	return r, nil
}

// jitAlgorithms are the paper algorithms with a phase-1 scheduler.
var jitAlgorithms = []string{"DHEFT", "max-min", "min-min", "DSDF", "sufferage", "DSMF"}

// simLayers derives the simulation-layer metrics from a traced run (or
// the merged traces of several runs).
func simLayers(tr *tracer, m map[string]float64) {
	g := tr.layer(spanGossip)
	m["gossip.cycles"] = float64(g.count)
	m["gossip.self_s"] = sec(g.self)
	m["gossip.ms_per_cycle"] = ratio(float64(g.total)/1e6, float64(g.count))
	m["gossip.msgs"] = tr.counters["gossip.msgs"]
	m["gossip.ns_per_msg"] = ratio(float64(g.total), tr.counters["gossip.msgs"])

	p1 := tr.layersWithPrefix(spanPhase1)
	m["core.phase1_calls"] = float64(p1.count)
	m["core.phase1_s"] = sec(p1.total)
	for _, a := range jitAlgorithms {
		m["core.phase1_s."+a] = sec(tr.layer(spanPhase1 + a).total)
	}
	m["core.phase1_idle_frac"] = ratio(tr.counters[counterIdle], float64(p1.count))
	m["core.us_per_dispatch"] = ratio(float64(p1.total)/1e3, tr.counters[counterPhase1])
	m["core.plan_s"] = sec(tr.layer(spanPlan).total)
	p2 := tr.layer(spanPhase2)
	m["core.phase2_picks"] = float64(p2.count)
	m["core.phase2_s"] = sec(p2.total)

	round, task, col := tr.layer(spanRound), tr.layer(spanTask), tr.layer(spanMetrics)
	events := g.count + round.count + task.count + col.count + tr.layer(spanOther).count
	run := tr.layer(spanSimRun)
	m["sim.events"] = float64(events)
	m["sim.self_s"] = sec(run.self)
	m["sim.ns_per_event"] = ratio(float64(run.self), float64(events))
	m["grid.rounds"] = float64(round.count)
	m["grid.round_self_s"] = sec(round.self)
	m["grid.task_events"] = float64(task.count)
	m["grid.task_self_s"] = sec(task.self)
	m["grid.dispatches"] = tr.counters["grid.dispatches"]
	m["topology.generate_s"] = sec(tr.layer(spanTopology).total)
	m["grid.new_s"] = sec(tr.layer(spanGridNew).total)
	m["workload.generate_s"] = sec(tr.layer(spanWorkload).total)
	m["metrics.samples"] = float64(col.count)
	m["metrics.sample_s"] = sec(col.total)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// medianMaps takes the per-key median over several metric maps.
func medianMaps(ms []map[string]float64) map[string]float64 {
	vals := map[string][]float64{}
	for _, m := range ms {
		for k, v := range m {
			vals[k] = append(vals[k], v)
		}
	}
	out := make(map[string]float64, len(vals))
	for k, v := range vals {
		out[k] = median(v)
	}
	return out
}
