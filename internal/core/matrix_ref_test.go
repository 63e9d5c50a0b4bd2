package core

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/dag"
	"repro/internal/grid"
	"repro/internal/sim"
	"repro/internal/workload"
)

// referenceMatrix is the matrix first phase as a full recompute: every
// row's finish times on every candidate are evaluated again after each
// placement. MatrixPhase1 must dispatch exactly what it dispatches.
type referenceMatrix struct {
	pick    func(rows []MatrixRow) int
	refused int // dispatches refused by a departed candidate
}

func (*referenceMatrix) Name() string { return "reference-matrix" }

func (s *referenceMatrix) Schedule(g *grid.Grid, home *grid.Node, now float64) {
	views := Analyze(g, home)
	if len(views) == 0 {
		return
	}
	cands := Candidates(g, home)
	if len(cands) == 0 {
		return
	}
	pending := Flatten(views)
	for len(pending) > 0 {
		alive := pending[:0]
		for _, rt := range pending {
			if rt.Task.State == grid.TaskSchedulePoint {
				alive = append(alive, rt)
			}
		}
		pending = alive
		if len(pending) == 0 {
			return
		}
		var rows []MatrixRow
		for _, rt := range pending {
			rows = append(rows, computeRow(g, rt, cands))
		}
		pick := s.pick(rows)
		if pick < 0 || pick >= len(rows) {
			return
		}
		row := rows[pick]
		if row.BestIdx < 0 {
			return
		}
		row.Task.SufferageAtDispatch = row.Sufferage()
		if !dispatchTo(g, home, row.Task, cands, row.BestIdx, row.RPM, row.Makespan) {
			s.refused++
			cands = removeCandidate(cands, row.BestIdx)
			if len(cands) == 0 {
				return
			}
			continue
		}
		pending = append(pending[:pick], pending[pick+1:]...)
	}
}

func computeRow(g *grid.Grid, rt RankedTask, cands []Candidate) MatrixRow {
	row := MatrixRow{
		Task: rt.Task, RPM: rt.RPM, Makespan: rt.Makespan,
		BestIdx: -1, BestFT: math.Inf(1), SecondFT: math.Inf(1),
	}
	for i := range cands {
		ft := FinishTime(g, rt.Task, cands[i])
		switch {
		case ft < row.BestFT:
			row.SecondFT = row.BestFT
			row.BestFT = ft
			row.BestIdx = i
		case ft < row.SecondFT:
			row.SecondFT = ft
		}
	}
	return row
}

// dispatchLog wraps a first phase and records, per scheduling call, every
// task it dispatched in dispatch order: workflow, task, node and the
// sufferage carried to phase 2 (bit-exact).
type dispatchLog struct {
	inner grid.Phase1Scheduler
	log   []string
}

func (d *dispatchLog) Name() string { return d.inner.Name() }

func (d *dispatchLog) Schedule(g *grid.Grid, home *grid.Node, now float64) {
	var points []*grid.TaskInstance
	for _, rt := range Flatten(Analyze(g, home)) {
		points = append(points, rt.Task)
	}
	d.inner.Schedule(g, home, now)
	var placed []*grid.TaskInstance
	for _, t := range points {
		if t.State != grid.TaskSchedulePoint {
			placed = append(placed, t)
		}
	}
	slices.SortFunc(placed, func(a, b *grid.TaskInstance) int { return a.DispatchSeq - b.DispatchSeq })
	for _, t := range placed {
		d.log = append(d.log, fmt.Sprintf("t=%x home=%d %s/%d@%d suff=%x",
			math.Float64bits(now), home.ID, t.WF.W.Name, t.ID, t.Node, math.Float64bits(t.SufferageAtDispatch)))
	}
}

// runMatrix runs one churning grid under phase1 and returns its dispatch
// log. Homes are the stable nodes, so churn departs only resource nodes
// that stay listed in gossip views for a while: the stale-candidate path
// runs.
func runMatrix(t *testing.T, phase1 grid.Phase1Scheduler, seed int64) []string {
	t.Helper()
	const nodes, stable = 14, 4
	logged := &dispatchLog{inner: phase1}
	engine := sim.NewEngine()
	g, err := grid.New(engine, grid.Config{Nodes: nodes, Seed: seed},
		grid.Algorithm{Label: "matrix", Phase1: logged, Phase2: FCFS{}})
	if err != nil {
		t.Fatal(err)
	}
	subs, err := workload.Generate(workload.Config{Nodes: stable, LoadFactor: 6, Gen: dag.DefaultGenConfig(), Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range subs {
		if _, err := g.Submit(s.Home, s.Workflow); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.StartChurn(grid.ChurnConfig{DynamicFactor: 0.3, StableCount: stable, Seed: seed}); err != nil {
		t.Fatal(err)
	}
	g.Start()
	engine.RunUntil(12 * 3600)
	return logged.log
}

// TestMatrixPhase1MatchesFullRecompute runs whole churning simulations
// under MatrixPhase1 and under the full-recompute reference, for every
// pick rule over several seeds, and requires identical dispatch
// sequences. The reference counts refused dispatches, so the test also
// shows that the refill-after-refusal path was exercised.
func TestMatrixPhase1MatchesFullRecompute(t *testing.T) {
	rules := map[string]func([]MatrixRow) int{
		"min-min":   PickMinMin,
		"max-min":   PickMaxMin,
		"sufferage": PickSufferage,
	}
	for name, pick := range rules {
		refused, dispatched := 0, 0
		for seed := int64(1); seed <= 4; seed++ {
			ref := &referenceMatrix{pick: pick}
			want := runMatrix(t, ref, seed)
			got := runMatrix(t, &MatrixPhase1{Label: name, Pick: pick}, seed)
			if i, ok := firstDiff(got, want); !ok {
				t.Fatalf("%s seed %d: dispatch %d differs: got %q, want %q", name, seed, i, at(got, i), at(want, i))
			}
			refused += ref.refused
			dispatched += len(want)
		}
		if dispatched == 0 || refused == 0 {
			t.Fatalf("%s: %d dispatches, %d refused; the comparison must cover both paths", name, dispatched, refused)
		}
		t.Logf("%s: %d dispatches identical, %d refused dispatches", name, dispatched, refused)
	}
}

func firstDiff(a, b []string) (int, bool) {
	for i := 0; i < min(len(a), len(b)); i++ {
		if a[i] != b[i] {
			return i, false
		}
	}
	return min(len(a), len(b)), len(a) == len(b)
}

func at(s []string, i int) string {
	if i < len(s) {
		return s[i]
	}
	return "<end>"
}
