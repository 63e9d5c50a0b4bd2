package experiments

import (
	"fmt"

	"repro/internal/grid"
	"repro/internal/heuristics"
)

// OracleAblation quantifies the cost of decentralized information: DSMF
// driven by the gossip view versus DSMF with oracle bandwidth and averages.
// This is a reproduction extension, not a paper figure - it measures how
// much the mixed gossip protocol gives up against perfect knowledge.
func OracleAblation(scale Scale, seed int64) (Table, error) {
	base := NewSetting(scale, seed)
	if _, err := base.BuildNet(); err != nil {
		return Table{}, err
	}
	oracle := base
	oracle.OracleBandwidth = true
	oracle.OracleAverages = true

	jobs := []job{
		{setting: base, make: heuristics.NewDSMF},
		{setting: oracle, make: heuristics.NewDSMF},
	}
	results, err := runPool(jobs)
	if err != nil {
		return Table{}, err
	}
	t := Table{
		Title:  "Ablation: DSMF with gossip information vs oracle information",
		Header: []string{"information", "completed", "ACT(s)", "AE"},
	}
	labels := []string{"gossip (paper)", "oracle"}
	for i, r := range results {
		t.Rows = append(t.Rows, []string{
			labels[i],
			fmt.Sprintf("%d", r.Final.Completed),
			fmt.Sprintf("%.0f", r.Final.ACT),
			fmt.Sprintf("%.3f", r.Final.AE),
		})
	}
	return t, nil
}

// ReplicatedFCFSAblation repeats the Section IV.B ablation over several
// seeds: the paper's own max-min gap (33495 vs 33746) is under 1%, well
// inside single-run noise, so multi-seed means are the honest comparison.
func ReplicatedFCFSAblation(scale Scale, seed int64, reps int) (Table, error) {
	setting := NewSetting(scale, seed)
	bases := []AlgoFactory{
		heuristics.NewMinMin, heuristics.NewMaxMin,
		heuristics.NewSufferage, heuristics.NewDHEFT,
	}
	var algos []AlgoFactory
	for _, b := range bases {
		b := b
		algos = append(algos, b, func() grid.Algorithm { return heuristics.WithFCFSPhase2(b()) })
	}
	reps0, err := Replicate(setting, algos, reps)
	if err != nil {
		return Table{}, err
	}
	t := Table{
		Title:  fmt.Sprintf("Section IV.B ablation over %d seeds: ACT mean ± std", reps),
		Header: []string{"algorithm", "ACT(policy)", "ACT(FCFS)", "policy wins"},
	}
	for i := 0; i < len(reps0); i += 2 {
		with, fcfs := reps0[i], reps0[i+1]
		t.Rows = append(t.Rows, []string{
			with.Algo,
			fmt.Sprintf("%.0f ± %.0f", with.ACT.Mean, with.ACT.Std),
			fmt.Sprintf("%.0f ± %.0f", fcfs.ACT.Mean, fcfs.ACT.Std),
			fmt.Sprintf("%v", with.ACT.Mean <= fcfs.ACT.Mean),
		})
	}
	return t, nil
}

// ScalabilitySizes returns the Fig. 11 system sizes appropriate for a
// scale preset (the paper sweeps 200..2000).
func ScalabilitySizes(scale Scale) []int {
	switch scale.Name {
	case "paper":
		return []int{200, 400, 600, 800, 1000, 1200, 1400, 1600, 1800, 2000}
	case "small":
		return []int{50, 100, 150, 200, 300}
	default:
		return []int{30, 60, 90}
	}
}

// ScalabilityTable renders Fig. 11's three panels as one table.
func ScalabilityTable(points []ScalabilityPoint) Table {
	t := Table{
		Title:  "Fig. 11: System Scalability of DSMF (a: idle nodes known, b: AE, c: ACT)",
		Header: []string{"nodes", "idle known", "|RSS|", "AE", "ACT(s)"},
	}
	for _, p := range points {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", p.Nodes),
			fmt.Sprintf("%.1f", p.IdleKnown),
			fmt.Sprintf("%.1f", p.RSSSize),
			fmt.Sprintf("%.3f", p.AE),
			fmt.Sprintf("%.0f", p.ACT),
		})
	}
	return t
}
