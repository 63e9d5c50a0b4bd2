package main

import (
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"

	"repro/internal/experiments/executor"
	"repro/internal/grid"
	"repro/internal/sim"
)

// The wrappers in this file time each layer from outside, through the
// values the program accepts: a sim.Driver handed to grid.New, the
// algorithm values of grid.Algorithm, and an executor.Executor in
// experiments.RunOptions. None of them changes what the wrapped value does,
// so a traced run produces the same simulated outputs as an untraced one.

// Span and counter names of the traced layers.
const (
	spanSimRun    = "sim.run"
	spanGossip    = "gossip.cycle"
	spanRound     = "grid.round"
	spanTask      = "grid.task"
	spanMetrics   = "metrics.sample"
	spanOther     = "sim.event"
	spanPhase1    = "core.phase1/" // + algorithm label
	spanPhase2    = "core.phase2"
	spanPlan      = "core.plan"
	spanTopology  = "topology.generate"
	spanGridNew   = "grid.new"
	spanWorkload  = "workload.generate"
	spanJob       = "experiments.job"
	counterIdle   = "core.phase1_idle_calls"
	counterPhase1 = "core.phase1_dispatches"
)

// tracedDriver wraps a sim.Driver: every event callback runs inside a span
// named after the package whose function was scheduled, and RunUntil runs
// inside a sim.run span, so the engine's own cost is sim.run's self time.
type tracedDriver struct {
	sim.Driver
	tr   *tracer
	run  int
	kind map[uintptr]int // callback code pointer -> span id
}

func newTracedDriver(inner sim.Driver, tr *tracer) *tracedDriver {
	return &tracedDriver{Driver: inner, tr: tr, run: tr.id(spanSimRun), kind: map[uintptr]int{}}
}

// eventSpan names the layer of a callback from its code: gossip cycles,
// the grid's scheduling round, other grid events (task dispatch,
// transfers, execution) and the metrics collector. The source file, not
// the symbol, decides the package: a closure inlined into another
// package's caller is named after the caller but keeps its file.
func eventSpan(fn sim.Event) string {
	pc := reflect.ValueOf(fn).Pointer()
	f := runtime.FuncForPC(pc)
	if f == nil {
		return spanOther
	}
	file, _ := f.FileLine(pc)
	file = filepath.ToSlash(file)
	switch {
	case strings.Contains(file, "internal/gossip/"):
		return spanGossip
	case strings.HasSuffix(f.Name(), ".schedulingCycle-fm"):
		return spanRound
	case strings.Contains(file, "internal/grid/"):
		return spanTask
	case strings.Contains(file, "internal/metrics/"):
		return spanMetrics
	}
	return spanOther
}

func (d *tracedDriver) wrap(fn sim.Event) sim.Event {
	pc := reflect.ValueOf(fn).Pointer()
	id, ok := d.kind[pc]
	if !ok {
		id = d.tr.id(eventSpan(fn))
		d.kind[pc] = id
	}
	tr := d.tr
	return func(now float64) {
		tr.begin(id)
		fn(now)
		tr.end()
	}
}

func (d *tracedDriver) At(t float64, fn sim.Event) sim.Handle { return d.Driver.At(t, d.wrap(fn)) }
func (d *tracedDriver) After(dt float64, fn sim.Event) sim.Handle {
	return d.Driver.After(dt, d.wrap(fn))
}
func (d *tracedDriver) Every(start, period float64, fn sim.Event) *sim.Ticker {
	return d.Driver.Every(start, period, d.wrap(fn))
}
func (d *tracedDriver) NodeAt(node int, t float64, fn sim.Event) sim.Handle {
	return d.Driver.NodeAt(node, t, d.wrap(fn))
}
func (d *tracedDriver) NodeAfter(node int, dt float64, fn sim.Event) sim.Handle {
	return d.Driver.NodeAfter(node, dt, d.wrap(fn))
}

// DeferFrom runs fn synchronously on the serial engine; the caller's span
// already covers it, so it is passed through unwrapped.
func (d *tracedDriver) DeferFrom(node int, t float64, fn sim.Event) { d.Driver.DeferFrom(node, t, fn) }

func (d *tracedDriver) RunUntil(deadline float64) {
	d.tr.begin(d.run)
	d.Driver.RunUntil(deadline)
	d.tr.end()
}

// traceAlgorithm wraps each part of a grid.Algorithm in a timing span.
func traceAlgorithm(a grid.Algorithm, tr *tracer) grid.Algorithm {
	if a.Phase1 != nil {
		a.Phase1 = &tracedPhase1{inner: a.Phase1, tr: tr, span: tr.id(spanPhase1 + a.Label)}
	}
	if a.Planner != nil {
		a.Planner = &tracedPlanner{inner: a.Planner, tr: tr, span: tr.id(spanPlan)}
	}
	a.Phase2 = &tracedPhase2{inner: a.Phase2, tr: tr, span: tr.id(spanPhase2)}
	return a
}

type tracedPhase1 struct {
	inner grid.Phase1Scheduler
	tr    *tracer
	span  int
}

func (p *tracedPhase1) Name() string { return p.inner.Name() }

// Schedule also counts the call's dispatches (from the grid's public
// counter), and the calls that dispatched nothing.
func (p *tracedPhase1) Schedule(g *grid.Grid, home *grid.Node, now float64) {
	before := g.DispatchCount
	p.tr.begin(p.span)
	p.inner.Schedule(g, home, now)
	p.tr.end()
	n := g.DispatchCount - before
	p.tr.add(counterPhase1, float64(n))
	if n == 0 {
		p.tr.add(counterIdle, 1)
	}
}

type tracedPhase2 struct {
	inner grid.Phase2Policy
	tr    *tracer
	span  int
}

func (p *tracedPhase2) Name() string { return p.inner.Name() }

func (p *tracedPhase2) Pick(ready []*grid.TaskInstance) *grid.TaskInstance {
	p.tr.begin(p.span)
	t := p.inner.Pick(ready)
	p.tr.end()
	return t
}

type tracedPlanner struct {
	inner grid.FullAheadPlanner
	tr    *tracer
	span  int
}

func (p *tracedPlanner) Name() string { return p.inner.Name() }

func (p *tracedPlanner) PlanAll(g *grid.Grid, wfs []*grid.WorkflowInstance) {
	p.tr.begin(p.span)
	p.inner.PlanAll(g, wfs)
	p.tr.end()
}

// timedExecutor wraps a sweep's executor and records one span per job,
// on a track per concurrent worker slot.
type timedExecutor struct {
	inner   executor.Executor
	workers int // the inner executor's parallelism

	mu   sync.Mutex
	jobs []*tracer // one per job, tid = worker slot
}

func (e *timedExecutor) Execute(ids []int, run func(id int) error) error {
	slots := make(chan int, e.workers) // one token per worker slot
	for w := 0; w < e.workers; w++ {
		slots <- w + 1
	}
	return e.inner.Execute(ids, func(id int) error {
		slot := <-slots
		defer func() { slots <- slot }()
		tr := newTracer(slot, 1)
		tr.begin(tr.id(spanJob))
		err := run(id)
		tr.end()
		e.mu.Lock()
		e.jobs = append(e.jobs, tr)
		e.mu.Unlock()
		return err
	})
}
