package main

import (
	"os"
	"path/filepath"
	"testing"
)

// TestExperimentOutputsPinned holds the stdout of every figure and
// ablation experiment at tiny scale byte-identical to the files under
// testdata/pinned. Each experiment's output is a pure function of its
// seed (independent of GOMAXPROCS), so a diff here means a change moved
// simulation results or their rendering. A deliberate change of either
// regenerates the pins with
//
//	p2pgridsim -experiment X -scale tiny > testdata/pinned/X.txt
func TestExperimentOutputsPinned(t *testing.T) {
	for _, name := range []string{
		"fig4-6", "fcfs", "fcfs-rep", "fig7-8", "fig9-10", "fig11", "fig12-14",
		"reschedule", "oracle", "planners", "churn-model", "report", "families",
	} {
		t.Run(name, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", "pinned", name+".txt"))
			if err != nil {
				t.Fatal(err)
			}
			code, stdout, stderr := runCLI("-experiment", name, "-scale", "tiny")
			if code != 0 {
				t.Fatalf("exit %d, stderr:\n%s", code, stderr)
			}
			if stdout != string(want) {
				t.Fatalf("stdout differs from testdata/pinned/%s.txt:\n--- got\n%s\n--- want\n%s", name, stdout, want)
			}
		})
	}
}
