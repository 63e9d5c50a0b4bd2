package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"repro/internal/dag"
	"repro/internal/experiments"
	"repro/internal/grid"
	"repro/internal/heuristics"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/workload"
)

// runSpec is one simulation of the batch Table I workload: every workflow
// submitted at t=0 on a static grid, the setting of the paper's Figs. 4-8.
type runSpec struct {
	scale experiments.Scale
	algo  string
	seed  int64
}

// runOut is what one assembled run measured and produced.
type runOut struct {
	setup, run time.Duration
	allocBytes uint64 // allocated while the simulation ran
	heapBytes  uint64 // live heap after a forced GC, run state reachable
	stats      metrics.RunStats
	digest     string
}

// built is one assembled simulation, ready to run.
type built struct {
	spec      runSpec
	eng       sim.Driver
	g         *grid.Grid
	col       metrics.Collector
	submitted int
	setup     time.Duration
}

// build assembles one simulation from the program's public pieces, in the
// order experiments.Run uses, so it produces the same outputs at the same
// seed (checked by the benchmark on every invocation). With a non-nil
// tracer the engine and the algorithm are wrapped and each set-up step
// runs in its own span.
func build(spec runSpec, tr *tracer) (*built, error) {
	algo, err := heuristics.ByName(spec.algo)
	if err != nil {
		return nil, err
	}
	if tr != nil {
		algo = traceAlgorithm(algo, tr)
	}
	step := func(name string, fn func()) {
		if tr == nil {
			fn()
			return
		}
		tr.do(name, fn)
	}
	runtime.GC() // no earlier run's garbage is collected inside this set-up

	start := time.Now()
	var net *topology.Network
	step(spanTopology, func() {
		net, err = topology.Generate(topology.Config{N: spec.scale.Nodes, Seed: stats.SplitSeed(spec.seed, 0x70)})
	})
	if err != nil {
		return nil, fmt.Errorf("topology: %w", err)
	}
	b := &built{spec: spec, eng: sim.NewEngine()}
	if tr != nil {
		b.eng = newTracedDriver(b.eng, tr)
	}
	step(spanGridNew, func() { b.g, err = grid.New(b.eng, grid.Config{Net: net, Seed: spec.seed}, algo) })
	if err != nil {
		return nil, fmt.Errorf("grid: %w", err)
	}
	var subs []workload.Submission
	step(spanWorkload, func() {
		subs, err = workload.Generate(workload.Config{
			Nodes:      spec.scale.Nodes,
			LoadFactor: spec.scale.LoadFactor,
			Gen:        dag.DefaultGenConfig(),
			Seed:       stats.SplitSeed(spec.seed, 0x71),
		})
	})
	if err != nil {
		return nil, fmt.Errorf("workload: %w", err)
	}
	for _, sub := range subs {
		if _, err := b.g.Submit(sub.Home, sub.Workflow); err != nil {
			return nil, fmt.Errorf("submit: %w", err)
		}
	}
	b.submitted = len(subs)
	b.col.Attach(b.g, spec.scale.SnapshotHours*3600)
	b.g.Start()
	b.setup = time.Since(start)
	return b, nil
}

// run simulates to the horizon and reduces the outputs. measureMem adds
// the memory figures, at the price of a forced collection after the run.
func (b *built) run(tr *tracer, measureMem bool) (runOut, error) {
	out := runOut{setup: b.setup}
	var before, after runtime.MemStats
	if measureMem {
		runtime.ReadMemStats(&before)
	}
	start := time.Now()
	b.eng.RunUntil(b.spec.scale.HorizonHours * 3600)
	final := metrics.Sample(b.g, b.eng.Now())
	out.run = time.Since(start)
	if measureMem {
		runtime.ReadMemStats(&after)
		out.allocBytes = after.TotalAlloc - before.TotalAlloc
		out.heapBytes = liveHeap()
	}
	avgCap, avgBW := b.g.TrueAverages()
	out.stats = metrics.ReduceRun(&b.col, final, b.submitted, workload.EstimateCCR(dag.DefaultGenConfig(), avgCap, avgBW))
	if tr != nil {
		tr.add("gossip.msgs", float64(b.g.Gossip.MessagesSent))
		tr.add("grid.dispatches", float64(b.g.DispatchCount))
	}
	var err error
	out.digest, err = digestJSON(out.stats)
	return out, err
}

// assemble builds and runs one simulation.
func assemble(spec runSpec, tr *tracer, measureMem bool) (runOut, error) {
	b, err := build(spec, tr)
	if err != nil {
		return runOut{}, err
	}
	return b.run(tr, measureMem)
}

// referenceDigest runs the same simulation through experiments.Run, the
// program's own assembly, and digests its reduced outputs.
func referenceDigest(spec runSpec) (string, error) {
	algo, err := heuristics.ByName(spec.algo)
	if err != nil {
		return "", err
	}
	res, err := experiments.Run(experiments.NewSetting(spec.scale, spec.seed), algo)
	if err != nil {
		return "", err
	}
	return digestJSON(metrics.ReduceRun(&res.Collector, res.Final, res.Submitted, res.CCR))
}

// digestJSON is the SHA-256 of v's JSON encoding, the form in which the
// program itself persists run records (float64 values round-trip exactly).
func digestJSON(v any) (string, error) {
	data, err := json.Marshal(v)
	if err != nil {
		return "", fmt.Errorf("digest: %w", err)
	}
	return digestBytes(data), nil
}

func digestBytes(data []byte) string {
	h := sha256.Sum256(data)
	return hex.EncodeToString(h[:])
}
