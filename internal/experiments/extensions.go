package experiments

import (
	"fmt"

	"repro/internal/dag"
	"repro/internal/grid"
	"repro/internal/heuristics"
	"repro/internal/sim"
	"repro/internal/stats"
)

// PlannerShootout compares the full-ahead planner family on one workload:
// HEFT (non-insertion, the paper's baseline), insertion-based HEFT, the
// one-level-lookahead LAHEFT the paper's related work credits with up to
// 20% improvement, CPOP, and SMF. A reproduction extension, not a paper
// figure.
func PlannerShootout(scale Scale, seed int64) (Table, error) {
	setting := NewSetting(scale, seed)
	var jobs []batchJob
	for _, algo := range []func() grid.Algorithm{
		heuristics.NewHEFT,
		heuristics.NewHEFTInsertion,
		heuristics.NewLAHEFT,
		heuristics.NewCPOP,
		heuristics.NewSMF,
	} {
		jobs = append(jobs, batchJob{setting, algo})
	}
	results, err := runBatch(jobs)
	if err != nil {
		return Table{}, err
	}
	t := finalStateTable("Full-ahead planner shootout (extension)")
	for _, r := range results {
		t.Rows = append(t.Rows, finalRow(r.Algo, r.Final))
	}
	return t, nil
}

// ChurnModelAblation contrasts the default graceful churn-loss model with
// the maximal-loss HarshChurn variant at one dynamic factor, quantifying
// how much the unspecified paper loss model matters.
func ChurnModelAblation(scale Scale, seed int64, df float64) (Table, error) {
	stable := scale.Nodes / 2
	mk := func(harsh bool) Setting {
		s := NewSetting(scale, seed)
		s.Homes = stable
		s.Scale.LoadFactor = scale.LoadFactor * 2
		s.Churn = grid.ChurnConfig{
			DynamicFactor: df, StableCount: stable,
			Seed: stats.SplitSeed(seed, uint64(df*1000)),
		}
		s.Harsh = harsh
		return s
	}
	results, err := runBatch([]batchJob{
		{mk(false), heuristics.NewDSMF},
		{mk(true), heuristics.NewDSMF},
	})
	if err != nil {
		return Table{}, err
	}
	t := Table{
		Title:  fmt.Sprintf("Churn loss-model ablation at df=%.1f (extension)", df),
		Header: []string{"loss model", "completed", "failed", "ACT(s)", "AE"},
	}
	labels := []string{"graceful (default)", "harsh (maximal loss)"}
	for i, r := range results {
		t.Rows = append(t.Rows, []string{
			labels[i],
			fmt.Sprintf("%d", r.Final.Completed),
			fmt.Sprintf("%d", r.Final.Failed),
			fmt.Sprintf("%.0f", r.Final.ACT),
			fmt.Sprintf("%.3f", r.Final.AE),
		})
	}
	return t, nil
}

// FamilyComparison runs DSMF on each structured workflow family (the
// domain scenarios the paper's introduction motivates) and reports
// per-family ACT/AE - a library-level scenario study.
func FamilyComparison(scale Scale, seed int64) (Table, error) {
	setting := NewSetting(scale, seed)
	net, err := setting.BuildNet()
	if err != nil {
		return Table{}, err
	}
	t := Table{
		Title:  "DSMF on structured workflow families (extension)",
		Header: []string{"family", "workflows", "completed", "ACT(s)", "AE", "depth", "parallelism"},
	}
	for _, fam := range dag.Families() {
		engine := sim.NewEngine()
		g, err := grid.New(engine, grid.Config{Net: net, Seed: seed}, heuristics.NewDSMF())
		if err != nil {
			return Table{}, err
		}
		rng := stats.NewRand(seed, uint64(len(fam)))
		weights := dag.DefaultWeights(rng)
		count := scale.Nodes * scale.LoadFactor / 4
		if count < 4 {
			count = 4
		}
		var shapes []dag.Shape
		for i := 0; i < count; i++ {
			w, err := dag.FamilyByName(fam, fmt.Sprintf("%s-%d", fam, i), 4+i%4, weights)
			if err != nil {
				return Table{}, err
			}
			shapes = append(shapes, dag.ShapeOf(w))
			if _, err := g.Submit(i%scale.Nodes, w); err != nil {
				return Table{}, err
			}
		}
		g.Start()
		engine.RunUntil(scale.HorizonHours * 3600)
		var ct, eff []float64
		completed := 0
		for _, wf := range g.Workflows {
			if wf.State == grid.WorkflowCompleted {
				completed++
				ct = append(ct, wf.CompletionTime())
				eff = append(eff, wf.Efficiency())
			}
		}
		var depth, par float64
		for _, s := range shapes {
			depth += float64(s.Depth)
			par += s.Parallelism
		}
		t.Rows = append(t.Rows, []string{
			fam,
			fmt.Sprintf("%d", count),
			fmt.Sprintf("%d", completed),
			fmt.Sprintf("%.0f", stats.Mean(ct)),
			fmt.Sprintf("%.3f", stats.Mean(eff)),
			fmt.Sprintf("%.1f", depth/float64(len(shapes))),
			fmt.Sprintf("%.1f", par/float64(len(shapes))),
		})
	}
	return t, nil
}
