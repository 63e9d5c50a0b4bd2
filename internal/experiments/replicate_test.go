package experiments

import (
	"fmt"
	"strings"
	"testing"
)

func TestReplicateAggregatesAcrossSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run simulation in -short mode")
	}
	table, err := ReplicatedFCFSAblation(TinyScale, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Rows) != 4 || !strings.Contains(table.Title, "over 3 seeds") {
		t.Fatalf("unexpected table:\n%s", table.Format())
	}
	for _, row := range table.Rows {
		for _, cell := range row[1:3] {
			var mean, std float64
			if _, err := fmt.Sscanf(cell, "%f ± %f", &mean, &std); err != nil {
				t.Fatalf("%s: cell %q is not mean ± std: %v", row[0], cell, err)
			}
			if mean <= 0 {
				t.Fatalf("%s: empty aggregate %q", row[0], cell)
			}
			// Independent seeds must actually vary.
			if std == 0 {
				t.Fatalf("%s: zero variance across seeds in %q", row[0], cell)
			}
		}
	}
}

func TestReplicateValidatesReps(t *testing.T) {
	if _, err := ReplicatedFCFSAblation(TinyScale, 1, 0); err == nil {
		t.Fatal("zero reps accepted")
	}
}

func TestExtensionExperimentsProduceTables(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run simulation in -short mode")
	}
	shoot, err := PlannerShootout(TinyScale, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(shoot.Rows) != 5 {
		t.Fatalf("shootout rows %d", len(shoot.Rows))
	}
	fam, err := FamilyComparison(TinyScale, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(fam.Rows) != 4 {
		t.Fatalf("family rows %d", len(fam.Rows))
	}
	churn, err := ChurnModelAblation(TinyScale, 5, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if len(churn.Rows) != 2 {
		t.Fatalf("churn model rows %d", len(churn.Rows))
	}
}

func TestReportRendersShapeChecks(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run simulation in -short mode")
	}
	out, err := Report(TinyScale, 21)
	if err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{"# Reproduction report", "Shape checks", "DSMF", "SMF", "| algorithm |"} {
		if !strings.Contains(out, frag) {
			t.Fatalf("report missing %q:\n%s", frag, out)
		}
	}
	if !strings.Contains(out, "PASS") {
		t.Fatal("report contains no passing checks")
	}
}
