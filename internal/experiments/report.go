package experiments

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/metrics"
)

// Report assembles a markdown snapshot of the core reproduction claims
// from live runs at the given scale - a regenerable, reduced form of the
// paper-vs-measured comparison. It runs the static comparison plus the headline shape
// checks and renders pass/fail marks, so a reader can verify the
// reproduction on their own machine with one command.
func Report(scale Scale, seed int64) (string, error) {
	res, err := StaticComparisonRep(scale, seed, 1)
	if err != nil {
		return "", err
	}
	// One replication per algorithm: each cell's Stats[0] is its run.
	byAlgo := map[string]*metrics.RunStats{}
	for i := range res.Cells {
		byAlgo[res.Cells[i].Algo] = &res.Cells[i].Stats[0]
	}
	dsmf, smf := byAlgo["DSMF"], byAlgo["SMF"]

	decentralized := []string{"DHEFT", "max-min", "min-min", "DSDF", "sufferage"}
	bestOtherACT, bestOtherAE := "", ""
	for _, name := range decentralized {
		r := byAlgo[name]
		if bestOtherACT == "" || r.Final.ACT < byAlgo[bestOtherACT].Final.ACT {
			bestOtherACT = name
		}
		if bestOtherAE == "" || r.Final.AE > byAlgo[bestOtherAE].Final.AE {
			bestOtherAE = name
		}
	}

	mark := func(ok bool) string {
		if ok {
			return "PASS"
		}
		return "FAIL"
	}
	earlyIdx := len(dsmf.Throughput) / 4
	early := func(r *metrics.RunStats) float64 {
		if earlyIdx < len(r.Throughput) {
			return r.Throughput[earlyIdx]
		}
		return 0
	}

	var b strings.Builder
	fmt.Fprintf(&b, "# Reproduction report (scale %s, %d nodes, seed %d)\n\n",
		scale.Name, scale.Nodes, seed)
	b.WriteString("## Converged final state\n\n")
	b.WriteString("| algorithm | completed | ACT(s) | AE |\n|---|---|---|---|\n")
	ordered := append([]Cell(nil), res.Cells...)
	sort.SliceStable(ordered, func(i, j int) bool { return ordered[i].Stats[0].Final.ACT < ordered[j].Stats[0].Final.ACT })
	for _, c := range ordered {
		f := c.Stats[0].Final
		fmt.Fprintf(&b, "| %s | %d | %.0f | %.3f |\n", c.Algo, f.Completed, f.ACT, f.AE)
	}

	b.WriteString("\n## Shape checks (paper Section IV)\n\n")
	checks := []struct {
		claim string
		ok    bool
	}{
		{"SMF has the best (highest) average efficiency",
			smf.Final.AE >= dsmf.Final.AE && smf.Final.AE >= byAlgo[bestOtherAE].Final.AE},
		{"DSMF has the best ACT among decentralized algorithms",
			dsmf.Final.ACT <= byAlgo[bestOtherACT].Final.ACT},
		{"DSMF has the best AE among decentralized algorithms",
			dsmf.Final.AE >= byAlgo[bestOtherAE].Final.AE},
		{"DSMF's early throughput beats DHEFT's (Fig. 4 left edge)",
			early(dsmf) > early(byAlgo["DHEFT"])},
		{"SMF leads early throughput",
			early(smf) >= early(dsmf)},
	}
	for _, c := range checks {
		fmt.Fprintf(&b, "- [%s] %s\n", mark(c.ok), c.claim)
	}
	fmt.Fprintf(&b, "\nDSMF vs best decentralized competitor: ACT %.0f vs %.0f (%s), AE %.3f vs %.3f (%s)\n",
		dsmf.Final.ACT, byAlgo[bestOtherACT].Final.ACT, bestOtherACT,
		dsmf.Final.AE, byAlgo[bestOtherAE].Final.AE, bestOtherAE)
	return b.String(), nil
}
