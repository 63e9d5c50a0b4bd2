// Package repro_test is the benchmark harness regenerating every table and
// figure of the paper's evaluation (Section IV). One benchmark per
// experiment; each reports the headline metric(s) of its figure via
// b.ReportMetric so `go test -bench=. -benchmem` prints the reproduced
// values next to the timing.
//
// Benchmarks run at reduced scale (TinyScale / explicit small scales) so
// the whole harness completes in minutes on a laptop; the CLI
// (cmd/p2pgridsim -scale paper) reproduces the full 1000-node, 36-hour
// setting. The qualitative relationships - who wins, in which order, where
// the crossovers fall - hold at every scale; `p2pgridsim -experiment
// report` regenerates the paper-vs-measured comparison.
package repro_test

import (
	"fmt"
	"strconv"
	"strings"
	"testing"

	"repro/internal/dag"
	"repro/internal/experiments"
	"repro/internal/heuristics"
	"repro/internal/workload"
)

const benchSeed = 2010

// benchScale is the common reduced setting for figure benchmarks.
var benchScale = experiments.Scale{
	Name: "bench", Nodes: 60, LoadFactor: 1, HorizonHours: 10, SnapshotHours: 1,
}

// BenchmarkTableIWorkloadGen measures the Table I workload generator: one
// full paper-scale workload (1000 homes x 3 workflows) per iteration.
func BenchmarkTableIWorkloadGen(b *testing.B) {
	cfg := workload.Config{Nodes: 1000, LoadFactor: 3, Gen: dag.DefaultGenConfig(), Seed: benchSeed}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i)
		subs, err := workload.Generate(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(subs) != 3000 {
			b.Fatalf("generated %d workflows", len(subs))
		}
	}
}

// BenchmarkFig3Example regenerates the worked example (RPM values and
// scheduling orders) and checks the published numbers every iteration.
func BenchmarkFig3Example(b *testing.B) {
	for i := 0; i < b.N; i++ {
		report := experiments.Fig3Report()
		for _, frag := range []string{"RPM(A2) = 80", "RPM(A3) = 115", "RPM(B2) = 65", "RPM(B3) = 60"} {
			if !strings.Contains(report, frag) {
				b.Fatalf("fig3 report missing %q", frag)
			}
		}
	}
}

// BenchmarkFig4to6Static regenerates the static comparison behind Figs.
// 4-6: all eight algorithms on one shared workload. Reports DSMF's final
// ACT and AE and the best competitor ACT.
func BenchmarkFig4to6Static(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.StaticComparisonRep(benchScale, benchSeed, 1)
		if err != nil {
			b.Fatal(err)
		}
		var dsmfACT, dsmfAE float64
		for _, c := range res.Cells {
			if c.Algo == "DSMF" {
				dsmfACT, dsmfAE = c.Stats[0].Final.ACT, c.Stats[0].Final.AE
			}
		}
		b.ReportMetric(dsmfACT, "DSMF-ACT(s)")
		b.ReportMetric(dsmfAE, "DSMF-AE")
	}
}

// BenchmarkFCFSAblation regenerates the Section IV.B second-phase-vs-FCFS
// numbers (4 algorithms x 2 variants).
func BenchmarkFCFSAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		table, err := experiments.FCFSAblation(benchScale, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		if len(table.Rows) != 4 {
			b.Fatalf("ablation rows %d", len(table.Rows))
		}
		// Report the mean ACT gap (FCFS minus policy) across the four
		// algorithm pairs: positive means the second phase helps, the
		// paper's conclusion ("FCFS is not suggested").
		var gap float64
		for _, row := range table.Rows {
			policy, err1 := strconv.ParseFloat(row[1], 64)
			fcfs, err2 := strconv.ParseFloat(row[2], 64)
			if err1 != nil || err2 != nil {
				b.Fatalf("ablation row %q", row)
			}
			gap += fcfs - policy
		}
		b.ReportMetric(gap/4, "meanACTgap(s)")
	}
}

// BenchmarkFig7and8LoadFactor regenerates the load-factor sweep (ACT and AE
// per algorithm per load factor 1..3 at bench scale; the paper sweeps 1..8).
func BenchmarkFig7and8LoadFactor(b *testing.B) {
	for i := 0; i < b.N; i++ {
		act, ae, err := experiments.LoadFactorSweepRep(benchScale, benchSeed, 3, 1)
		if err != nil {
			b.Fatal(err)
		}
		if len(act.Rows) != 8 || len(ae.Rows) != 8 {
			b.Fatalf("sweep rows %d/%d", len(act.Rows), len(ae.Rows))
		}
	}
}

// BenchmarkFig9and10CCR regenerates the four CCR combinations for all
// eight algorithms.
func BenchmarkFig9and10CCR(b *testing.B) {
	scale := benchScale
	scale.HorizonHours = 8
	for i := 0; i < b.N; i++ {
		act, ae, err := experiments.CCRSweepRep(scale, benchSeed, 1)
		if err != nil {
			b.Fatal(err)
		}
		if len(act.Rows) != 8 || len(ae.Rows) != 8 {
			b.Fatalf("sweep rows %d/%d", len(act.Rows), len(ae.Rows))
		}
	}
}

// BenchmarkFig11Scalability regenerates the scalability panels: DSMF at
// increasing system sizes, reporting the Fig. 11(a) gossip space bound for
// the largest size.
func BenchmarkFig11Scalability(b *testing.B) {
	sizes := []int{40, 80, 120}
	for i := 0; i < b.N; i++ {
		points, err := experiments.ScalabilitySweep(benchScale, benchSeed, sizes)
		if err != nil {
			b.Fatal(err)
		}
		last := points[len(points)-1]
		b.ReportMetric(last.RSSSize, "RSS@120")
		b.ReportMetric(last.IdleKnown, "idle@120")
	}
}

// BenchmarkFig12to14Churn regenerates the dynamic-environment series for
// dynamic factors 0, 0.2 and 0.4, reporting the df=0.4 throughput ratio.
func BenchmarkFig12to14Churn(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.ChurnSweepRep(benchScale, benchSeed, []float64{0, 0.2, 0.4}, false, 1)
		if err != nil {
			b.Fatal(err)
		}
		base := float64(res.Cells[0].Stats[0].Final.Completed)
		worst := float64(res.Cells[2].Stats[0].Final.Completed)
		if base > 0 {
			b.ReportMetric(worst/base, "df0.4/df0-throughput")
		}
	}
}

// BenchmarkRescheduleExtension measures the future-work extension: churn at
// df=0.2 with and without failed-task rescheduling, reporting the recovered
// completion fraction.
func BenchmarkRescheduleExtension(b *testing.B) {
	for i := 0; i < b.N; i++ {
		plain, err := experiments.ChurnSweepRep(benchScale, benchSeed, []float64{0.2}, false, 1)
		if err != nil {
			b.Fatal(err)
		}
		resched, err := experiments.ChurnSweepRep(benchScale, benchSeed, []float64{0.2}, true, 1)
		if err != nil {
			b.Fatal(err)
		}
		p, r := plain.Cells[0].Stats[0], resched.Cells[0].Stats[0]
		if p.Submitted > 0 {
			b.ReportMetric(float64(p.Final.Completed)/float64(p.Submitted), "plain-completion")
			b.ReportMetric(float64(r.Final.Completed)/float64(r.Submitted), "resched-completion")
		}
	}
}

// BenchmarkOracleAblation measures the information-quality ablation: DSMF
// on gossip views vs oracle views.
func BenchmarkOracleAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		table, err := experiments.OracleAblation(benchScale, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		if len(table.Rows) != 2 {
			b.Fatalf("ablation rows %d", len(table.Rows))
		}
	}
}

// BenchmarkSingleDSMFRun measures one complete DSMF simulation (the unit
// of every sweep above): 60 nodes, 60 workflows, 10 simulated hours.
func BenchmarkSingleDSMFRun(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		setting := experiments.NewSetting(benchScale, int64(i))
		if _, err := experiments.Run(setting, heuristics.NewDSMF()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkShardedDSMFRun measures the sweep-unit simulation on the
// K-sharded parallel engine (results are bit-identical at every K; see
// internal/sim). With GOMAXPROCS >= 4 the shards=4 case is where the
// engine's wall-clock speedup shows; on fewer cores the sub-benchmarks
// track the pure coordination overhead instead, which should stay within
// a few percent of BenchmarkSingleDSMFRun.
func BenchmarkShardedDSMFRun(b *testing.B) {
	for _, shards := range []int{2, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				setting := experiments.NewSetting(benchScale, int64(i))
				setting.Shards = shards
				if _, err := experiments.Run(setting, heuristics.NewDSMF()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPlannerShootout measures the full-ahead planner ablation (HEFT
// vs insertion-based vs LAHEFT vs CPOP vs SMF), reporting the insertion
// variant's ACT improvement over plain HEFT.
func BenchmarkPlannerShootout(b *testing.B) {
	for i := 0; i < b.N; i++ {
		table, err := experiments.PlannerShootout(benchScale, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		if len(table.Rows) != 5 {
			b.Fatalf("shootout rows %d", len(table.Rows))
		}
	}
}

// BenchmarkChurnModelAblation measures the gap between the graceful and
// the harsh churn loss model (grid.Config.HarshChurn).
func BenchmarkChurnModelAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		table, err := experiments.ChurnModelAblation(benchScale, benchSeed, 0.2)
		if err != nil {
			b.Fatal(err)
		}
		if len(table.Rows) != 2 {
			b.Fatalf("ablation rows %d", len(table.Rows))
		}
	}
}

// BenchmarkFamilyComparison measures DSMF across the structured workflow
// families (the domain scenarios of the introduction).
func BenchmarkFamilyComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		table, err := experiments.FamilyComparison(benchScale, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		if len(table.Rows) != 4 {
			b.Fatalf("family rows %d", len(table.Rows))
		}
	}
}

// BenchmarkReplicatedAblation measures the 3-seed Section IV.B ablation.
func BenchmarkReplicatedAblation(b *testing.B) {
	scale := benchScale
	scale.HorizonHours = 6
	for i := 0; i < b.N; i++ {
		table, err := experiments.ReplicatedFCFSAblation(scale, benchSeed, 2)
		if err != nil {
			b.Fatal(err)
		}
		if len(table.Rows) != 4 {
			b.Fatalf("replicated rows %d", len(table.Rows))
		}
	}
}
