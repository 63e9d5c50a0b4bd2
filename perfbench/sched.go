package main

import (
	"runtime"
	"sync"
	"time"

	"repro/internal/experiments"
	"repro/internal/experiments/executor"
	"repro/internal/heuristics"
)

// sched-heavy: all eight paper algorithms on a 30-node grid at load factor
// 16, the high-load corner of Figs. 7-8 on a small grid, as one streaming
// sweep on sweepWorkers workers.
const (
	sweepWorkers = 2
	schedReps    = 8
	schedHours   = 12
)

func schedSpec(seed int64) experiments.SweepSpec {
	return experiments.SweepSpec{
		Name:       "sched-heavy",
		Scales:     []experiments.Scale{{Name: "sched-heavy", Nodes: 30, LoadFactor: 16, HorizonHours: schedHours, SnapshotHours: 1}},
		Algorithms: heuristics.Names(),
		Reps:       schedReps,
		Seed:       seed,
	}
}

// jobSpec is the simulation one sweep job runs.
func jobSpec(j experiments.SweepJob) runSpec {
	return runSpec{scale: j.Scenario.Scale, algo: j.Algo, seed: j.Seed}
}

// sweepOut is one measured sweep.
type sweepOut struct {
	res      *experiments.SweepResult
	run      time.Duration
	alloc    uint64
	heap     uint64
	digest   string // SHA-256 of the sweep JSON
	jsonTime time.Duration
}

// runSweep runs the sweep on exec and encodes its JSON artifact, timing
// both; measureMem adds the memory figures.
func runSweep(spec experiments.SweepSpec, exec executor.Executor, measureMem bool) (sweepOut, error) {
	var out sweepOut
	var before, after runtime.MemStats
	if measureMem {
		runtime.GC()
		runtime.ReadMemStats(&before)
	}
	start := time.Now()
	res, err := experiments.RunSweepStream(spec, experiments.RunOptions{Executor: exec})
	if err != nil {
		return out, err
	}
	jsonStart := time.Now()
	data, err := res.JSON()
	if err != nil {
		return out, err
	}
	out.jsonTime = time.Since(jsonStart)
	out.run = time.Since(start)
	if measureMem {
		runtime.ReadMemStats(&after)
		out.alloc = after.TotalAlloc - before.TotalAlloc
		out.heap = liveHeap()
	}
	out.res = res
	out.digest = digestBytes(data)
	return out, nil
}

// replayOut is one sweep job re-run through the benchmark's assembly.
type replayOut struct {
	job experiments.SweepJob
	out runOut
	tr  *tracer
	err error
}

// replayJobs re-runs the given sweep jobs through assemble on workers
// workers, traced when keep >= 0 (keeping that many spans per job for the
// export).
func replayJobs(jobs []experiments.SweepJob, workers, keep int) []replayOut {
	outs := make([]replayOut, len(jobs))
	ids := make([]int, len(jobs))
	for i := range ids {
		ids[i] = i
	}
	var mu sync.Mutex
	nextTid := 10
	executor.Local{Workers: workers}.Execute(ids, func(i int) error { //nolint:errcheck // errors are kept per job
		j := jobs[i]
		var tr *tracer
		if keep >= 0 {
			mu.Lock()
			tr = newTracer(nextTid, keep)
			nextTid++
			mu.Unlock()
		}
		out, err := assemble(jobSpec(j), tr, false)
		outs[i] = replayOut{job: j, out: out, tr: tr, err: err}
		return nil
	})
	return outs
}

// checkReplays compares each replayed job with the record the sweep kept
// for it: the benchmark's assembly must reproduce the sweep's runs.
func checkReplays(r *report, res *experiments.SweepResult, replays []replayOut) error {
	for _, rp := range replays {
		if rp.err != nil {
			return rp.err
		}
		want, err := digestJSON(res.Cells[rp.job.Cell].Stats[rp.job.Rep])
		if err != nil {
			return err
		}
		r.check(rp.out.digest == want, "job %d (%s rep %d): replay digest %.12s, sweep record %.12s",
			rp.job.ID, rp.job.Algo, rp.job.Rep, rp.out.digest, want)
	}
	return nil
}

func runSchedHeavy(c config) (*report, error) {
	spec := schedSpec(c.seed)
	jobs, err := spec.Jobs()
	if err != nil {
		return nil, err
	}
	r := newReport()
	budget := c.budget
	if c.trace {
		budget /= 2
	}
	var first sweepOut
	var run, alloc, heap []float64
	deadline := time.Now().Add(budget)
	for i := 0; i < maxReps && (i < 3 || time.Now().Before(deadline)); i++ {
		out, err := runSweep(spec, executor.Local{Workers: sweepWorkers}, true)
		if err != nil {
			return nil, err
		}
		if i == 0 {
			first = out
		}
		r.check(out.digest == first.digest, "sweep %d: JSON digest %.12s, first sweep %.12s", i, out.digest, first.digest)
		run = append(run, out.run.Seconds())
		alloc = append(alloc, float64(out.alloc)/mib)
		heap = append(heap, float64(out.heap)/mib)
	}
	r.e2e["run_s"] = median(run)
	r.e2e["alloc_mb"] = median(alloc)
	r.e2e["heap_mb"] = median(heap)
	r.note("sweep JSON sha256 %.16s  sweeps %d  run_s min %.3f max %.3f", first.digest, len(run), percentile(run, 0), percentile(run, 100))

	if !c.trace {
		// The benchmark's assembly must reproduce the sweep: replay the
		// first replication's jobs. Set-up time is the median over every
		// job of the sweep, each built alone so set-ups do not contend.
		var firstRep []experiments.SweepJob
		for _, j := range jobs {
			if j.Rep == 0 {
				firstRep = append(firstRep, j)
			}
		}
		if err := checkReplays(r, first.res, replayJobs(firstRep, sweepWorkers, -1)); err != nil {
			return nil, err
		}
		var setup []float64
		for _, j := range jobs {
			b, err := build(jobSpec(j), nil)
			if err != nil {
				return nil, err
			}
			setup = append(setup, b.setup.Seconds())
		}
		r.e2e["setup_s"] = median(setup)
		return r, nil
	}

	// Traced sweep: job spans from the executor wrapper.
	exec := &timedExecutor{inner: executor.Local{Workers: sweepWorkers}, workers: sweepWorkers}
	traced, err := runSweep(spec, exec, false)
	if err != nil {
		return nil, err
	}
	r.check(traced.digest == first.digest, "traced sweep: JSON digest %.12s, untraced %.12s", traced.digest, first.digest)
	var job layerStat
	for _, jt := range exec.jobs {
		l := jt.layer(spanJob)
		job.count += l.count
		job.total += l.total
	}
	wall := traced.run.Seconds()
	r.layers["experiments.jobs"] = float64(job.count)
	r.layers["experiments.job_s"] = sec(job.total)
	r.layers["experiments.worker_util"] = sec(job.total) / (wall * sweepWorkers)
	r.layers["experiments.plumbing_s"] = wall - sec(job.total)/sweepWorkers
	r.layers["wire.json_s"] = traced.jsonTime.Seconds()

	// Traced replays of every job: the per-layer simulation figures.
	start := time.Now()
	replays := replayJobs(jobs, sweepWorkers, exportSpans/len(jobs))
	replayWall := time.Since(start)
	if err := checkReplays(r, traced.res, replays); err != nil {
		return nil, err
	}
	sims := newTracer(0, 0)
	for _, rp := range replays {
		sims.merge(rp.tr)
	}
	simLayers(sims, r.layers)
	r.layers["trace.overhead_s"] = replayWall.Seconds() - r.e2e["run_s"]
	r.note("traced sweep %.3fs  traced replays %.3fs", wall, replayWall.Seconds())
	// The export shows the sweep's job spans beside the replays; the
	// per-layer table is the replays'.
	sims.children = append(sims.children, exec.jobs...)
	r.trace = sims
	return r, nil
}
