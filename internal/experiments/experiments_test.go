package experiments

import (
	"strings"
	"testing"

	"repro/internal/heuristics"
)

func TestScaleByName(t *testing.T) {
	for _, name := range []string{"paper", "small", "tiny"} {
		s, err := ScaleByName(name)
		if err != nil {
			t.Fatalf("ScaleByName(%s): %v", name, err)
		}
		if s.Name != name || s.Nodes <= 0 {
			t.Fatalf("bad scale %+v", s)
		}
	}
	if _, err := ScaleByName("galactic"); err == nil {
		t.Fatal("unknown scale accepted")
	}
}

func TestRunProducesSnapshotsAndCompletions(t *testing.T) {
	r, err := Run(NewSetting(TinyScale, 1), heuristics.NewDSMF())
	if err != nil {
		t.Fatal(err)
	}
	if r.Algo != "DSMF" {
		t.Fatalf("algo label %s", r.Algo)
	}
	if r.Submitted != TinyScale.Nodes*TinyScale.LoadFactor {
		t.Fatalf("submitted %d, want %d", r.Submitted, TinyScale.Nodes*TinyScale.LoadFactor)
	}
	wantSnaps := int(TinyScale.HorizonHours / TinyScale.SnapshotHours)
	if len(r.Collector.Snapshots) != wantSnaps {
		t.Fatalf("snapshots %d, want %d", len(r.Collector.Snapshots), wantSnaps)
	}
	if r.Final.Completed == 0 {
		t.Fatal("nothing completed in the tiny static run")
	}
	if r.CCR <= 0 {
		t.Fatalf("CCR %v", r.CCR)
	}
	tp := r.Collector.Throughput()
	for i := 1; i < len(tp); i++ {
		if tp[i] < tp[i-1] {
			t.Fatalf("throughput decreased at snapshot %d: %v", i, tp)
		}
	}
}

func TestRunDeterministicForSameSeed(t *testing.T) {
	a, err := Run(NewSetting(TinyScale, 7), heuristics.NewDSMF())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(NewSetting(TinyScale, 7), heuristics.NewDSMF())
	if err != nil {
		t.Fatal(err)
	}
	if a.Final.Completed != b.Final.Completed || a.Final.ACT != b.Final.ACT || a.Final.AE != b.Final.AE {
		t.Fatalf("same seed diverged: %+v vs %+v", a.Final, b.Final)
	}
	c, err := Run(NewSetting(TinyScale, 8), heuristics.NewDSMF())
	if err != nil {
		t.Fatal(err)
	}
	if a.Final.ACT == c.Final.ACT && a.Final.AE == c.Final.AE {
		t.Fatal("different seeds produced identical metrics (suspicious)")
	}
}

func TestRunBatchPreservesOrderAndSharesInputs(t *testing.T) {
	setting := NewSetting(TinyScale, 5)
	other := NewSetting(TinyScale, 6)
	results, err := runBatch([]batchJob{
		{setting, heuristics.NewDSMF},
		{other, heuristics.NewDSMF},
		{setting, heuristics.NewDHEFT},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("got %d results", len(results))
	}
	if results[0].Algo != "DSMF" || results[2].Algo != "DHEFT" {
		t.Fatalf("order not preserved: %s, %s", results[0].Algo, results[2].Algo)
	}
	if results[0].Submitted != results[2].Submitted {
		t.Fatal("algorithms did not face the same workload size")
	}
	// Jobs of one setting share one topology; another seed gets its own,
	// and each run matches a standalone Run of its setting.
	if results[0].Setting.Net != results[2].Setting.Net || results[0].Setting.Net == results[1].Setting.Net {
		t.Fatal("topologies not shared per (nodes, seed)")
	}
	alone, err := Run(other, heuristics.NewDSMF())
	if err != nil {
		t.Fatal(err)
	}
	if alone.Final != results[1].Final {
		t.Fatalf("batched run diverged from a standalone run:\n%+v\nvs\n%+v", results[1].Final, alone.Final)
	}
}

// Shape check against the paper's headline claim: DSMF beats the
// decentralized HEFT on both ACT and AE, and reaches higher mid-run
// throughput (Figs. 4-6). A small 24-hour run is enough for the ordering
// to be stable.
func TestDSMFBeatsDHEFTShape(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run simulation in -short mode")
	}
	scale := Scale{Name: "shape", Nodes: 80, LoadFactor: 2, HorizonHours: 24, SnapshotHours: 1}
	setting := NewSetting(scale, 11)
	results, err := runBatch([]batchJob{{setting, heuristics.NewDSMF}, {setting, heuristics.NewDHEFT}})
	if err != nil {
		t.Fatal(err)
	}
	dsmf, dheft := results[0], results[1]
	if dsmf.Final.ACT >= dheft.Final.ACT {
		t.Errorf("DSMF ACT %.0f not below DHEFT ACT %.0f", dsmf.Final.ACT, dheft.Final.ACT)
	}
	if dsmf.Final.AE <= dheft.Final.AE {
		t.Errorf("DSMF AE %.3f not above DHEFT AE %.3f", dsmf.Final.AE, dheft.Final.AE)
	}
	// Cumulative area under the throughput curve captures "finishes work
	// earlier" more robustly than any single sample.
	area := func(r Result) (sum int) {
		for _, v := range r.Collector.Throughput() {
			sum += v
		}
		return
	}
	if area(dsmf) <= area(dheft) {
		t.Errorf("DSMF throughput area %d not above DHEFT %d", area(dsmf), area(dheft))
	}
}

func TestChurnSweepDegradesThroughputOnly(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run simulation in -short mode")
	}
	scale := Scale{Name: "churn", Nodes: 60, LoadFactor: 1, HorizonHours: 18, SnapshotHours: 1}
	res, err := ChurnSweepRep(scale, 13, []float64{0, 0.3}, false, 1)
	if err != nil {
		t.Fatal(err)
	}
	static, churny := res.Cells[0].Stats[0].Final, res.Cells[1].Stats[0].Final
	if static.Failed != 0 {
		t.Fatalf("df=0 failed %d workflows", static.Failed)
	}
	if churny.Failed == 0 {
		t.Fatal("df=0.3 produced no failures (churn not biting)")
	}
	if churny.Completed >= static.Completed {
		t.Fatalf("churn throughput %d not below static %d",
			churny.Completed, static.Completed)
	}
	if label := churnLabel(&res.Cells[1]); label != "df=0.3" {
		t.Fatalf("cell label %s", label)
	}
}

func TestReschedulingImprovesChurnThroughput(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run simulation in -short mode")
	}
	scale := Scale{Name: "resched", Nodes: 60, LoadFactor: 1, HorizonHours: 18, SnapshotHours: 1}
	plain, err := ChurnSweepRep(scale, 17, []float64{0.3}, false, 1)
	if err != nil {
		t.Fatal(err)
	}
	resched, err := ChurnSweepRep(scale, 17, []float64{0.3}, true, 1)
	if err != nil {
		t.Fatal(err)
	}
	p, r := plain.Cells[0].Stats[0].Final, resched.Cells[0].Stats[0].Final
	if r.Completed < p.Completed {
		t.Errorf("rescheduling lowered throughput: %d vs %d", r.Completed, p.Completed)
	}
}

func TestScalabilitySweepBoundsGossipView(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run simulation in -short mode")
	}
	base := Scale{Name: "scal", Nodes: 0, LoadFactor: 1, HorizonHours: 10, SnapshotHours: 1}
	points, err := ScalabilitySweep(base, 19, []int{40, 120})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 {
		t.Fatalf("points %d", len(points))
	}
	for _, p := range points {
		if p.RSSSize <= 0 {
			t.Fatalf("n=%d: empty RSS", p.Nodes)
		}
		if p.RSSSize > 40 {
			t.Fatalf("n=%d: RSS %v not bounded", p.Nodes, p.RSSSize)
		}
		if p.IdleKnown > p.RSSSize {
			t.Fatalf("idle known %v exceeds RSS %v", p.IdleKnown, p.RSSSize)
		}
	}
	if points[1].RSSSize <= points[0].RSSSize {
		t.Errorf("RSS should grow (log-like) with scale: %v vs %v",
			points[0].RSSSize, points[1].RSSSize)
	}
}

func TestTableIContent(t *testing.T) {
	tbl := TableI()
	out := tbl.Format()
	for _, frag := range []string{"MIPS", "2 - 30", "0.1 - 10 Mb/s", "100 - 10000 MI"} {
		if !strings.Contains(out, frag) {
			t.Errorf("Table I output missing %q", frag)
		}
	}
	if len(tbl.Rows) < 8 {
		t.Fatalf("Table I has %d rows", len(tbl.Rows))
	}
}

func TestCCRCasesMatchPaperRegimes(t *testing.T) {
	cases := CCRCases()
	if len(cases) != 4 {
		t.Fatalf("%d CCR cases, want 4", len(cases))
	}
	const avgCap, avgBW = 6.2, 5.05
	var ccrs []float64
	for _, c := range cases {
		cfg := NewSetting(TinyScale, 1)
		cfg.Gen.LoadMI = c.LoadMI
		cfg.Gen.DataMb = c.DataMb
		ccrs = append(ccrs, cfg.Gen.DataMb.Mid()/avgBW/(cfg.Gen.LoadMI.Mid()/avgCap))
	}
	// Figure order: ~1.6, ~16, ~0.16, ~1.6.
	if !(ccrs[1] > ccrs[0] && ccrs[0] > ccrs[2]) {
		t.Fatalf("CCR ordering wrong: %v", ccrs)
	}
}

func TestFormatsRender(t *testing.T) {
	tbl := Table{Title: "T", Header: []string{"a", "bb"}, Rows: [][]string{{"x", "y"}}}
	out := tbl.Format()
	if !strings.Contains(out, "T\n") || !strings.Contains(out, "x") {
		t.Fatalf("table format broken:\n%s", out)
	}
	ss := SeriesSet{Title: "S", XLabel: "x", YLabel: "y", X: []float64{1, 2},
		Series: []LabeledSeries{{Label: "l", Y: []float64{3, 4}}}}
	sout := ss.Format()
	if !strings.Contains(sout, "S\n") || !strings.Contains(sout, "3.000") {
		t.Fatalf("series format broken:\n%s", sout)
	}
	// Ragged series render placeholders rather than panicking.
	ragged := SeriesSet{Title: "R", X: []float64{1, 2}, Series: []LabeledSeries{{Label: "l", Y: []float64{3}}}}
	if !strings.Contains(ragged.Format(), "-") {
		t.Fatal("ragged series missing placeholder")
	}
}
