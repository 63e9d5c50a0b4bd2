package experiments

import (
	"fmt"

	"repro/internal/heuristics"
	"repro/internal/stats"
)

// OracleAblation quantifies the cost of decentralized information: DSMF
// driven by the gossip view versus DSMF with oracle bandwidth and averages.
// This is a reproduction extension, not a paper figure - it measures how
// much the mixed gossip protocol gives up against perfect knowledge.
func OracleAblation(scale Scale, seed int64) (Table, error) {
	base := NewSetting(scale, seed)
	oracle := base
	oracle.OracleBandwidth = true
	oracle.OracleAverages = true
	results, err := runBatch([]batchJob{
		{base, heuristics.NewDSMF},
		{oracle, heuristics.NewDSMF},
	})
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
//
// Replication r runs every variant at one derived seed (same topology and
// workload), so the policy-vs-FCFS differences are paired within a
// replication and independent across replications.
func ReplicatedFCFSAblation(scale Scale, seed int64, reps int) (Table, error) {
	if reps < 1 {
		return Table{}, fmt.Errorf("experiments: need at least 1 replication, got %d", reps)
	}
	var jobs []batchJob
	for r := 0; r < reps; r++ {
		jobs = append(jobs, fcfsPairs(NewSetting(scale, stats.SplitSeed(seed, uint64(r)+0x5EED)))...)
	}
	results, err := runBatch(jobs)
	if err != nil {
		return Table{}, err
	}
	// act[v] is variant v's mean ± std ACT over the replications.
	variants := len(jobs) / reps
	act := make([]stats.Summary, variants)
	for v := range act {
		xs := make([]float64, reps)
		for r := range xs {
			xs[r] = results[r*variants+v].Final.ACT
		}
		act[v] = stats.Summarize(xs)
	}
	t := Table{
		Title:  fmt.Sprintf("Section IV.B ablation over %d seeds: ACT mean ± std", reps),
		Header: []string{"algorithm", "ACT(policy)", "ACT(FCFS)", "policy wins"},
	}
	for v := 0; v < variants; v += 2 {
		with, fcfs := act[v], act[v+1]
		t.Rows = append(t.Rows, []string{
			results[v].Algo,
			fmt.Sprintf("%.0f ± %.0f", with.Mean, with.Std),
			fmt.Sprintf("%.0f ± %.0f", fcfs.Mean, fcfs.Std),
			fmt.Sprintf("%v", with.Mean <= fcfs.Mean),
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
