package main

import (
	"testing"

	"repro/internal/experiments"
	"repro/internal/heuristics"
)

// TestTracedAssemblyMatchesRun checks that the benchmark's run assembly,
// untraced and with every layer wrapped, reproduces experiments.Run's
// outputs bit for bit for all eight paper algorithms.
func TestTracedAssemblyMatchesRun(t *testing.T) {
	scale := experiments.Scale{Name: "check", Nodes: 20, LoadFactor: 3, HorizonHours: 4, SnapshotHours: 1}
	for _, algo := range heuristics.Names() {
		spec := runSpec{scale: scale, algo: algo, seed: 7}
		want, err := referenceDigest(spec)
		if err != nil {
			t.Fatal(err)
		}
		plain, err := assemble(spec, nil, false)
		if err != nil {
			t.Fatal(err)
		}
		tr := newTracer(1, 1000)
		traced, err := assemble(spec, tr, false)
		if err != nil {
			t.Fatal(err)
		}
		if plain.digest != want || traced.digest != want {
			t.Errorf("%s: digests differ: experiments.Run %s, untraced %s, traced %s", algo, want, plain.digest, traced.digest)
		}
		if tr.layer(spanGossip).count == 0 || tr.layer(spanSimRun).count != 1 || tr.layer(spanPhase2).count == 0 {
			t.Errorf("%s: traced run recorded no gossip, run or phase-2 spans", algo)
		}
		if n := tr.layer(spanMetrics).count; n != 4 {
			t.Errorf("%s: %d metrics-collector events, want one per simulated hour (4)", algo, n)
		}
		if n := tr.layer(spanOther).count; n != 0 {
			t.Errorf("%s: %d events not assigned to a layer", algo, n)
		}
		if tr.layersWithPrefix(spanPhase1).count == 0 && tr.layer(spanPlan).count == 0 {
			t.Errorf("%s: traced run recorded neither phase-1 nor planner spans", algo)
		}
	}
}
