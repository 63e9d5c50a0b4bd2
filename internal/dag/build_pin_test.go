package dag_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"reflect"
	"testing"

	"repro/internal/dag"
	"repro/internal/stats"
	"repro/internal/workload"
)

// dumpWorkflow writes a canonical, bit-exact rendering of w: every task
// (name, load and image bits, virtual flag), every successor and
// predecessor list in stored order, entry, exit and the topological order.
func dumpWorkflow(h hash.Hash, w *dag.Workflow) {
	fmt.Fprintf(h, "wf %q n=%d entry=%d exit=%d\n", w.Name, w.Len(), w.Entry(), w.Exit())
	for i := 0; i < w.Len(); i++ {
		id := dag.TaskID(i)
		t := w.Task(id)
		fmt.Fprintf(h, "t %d %q %x %x %v\n", t.ID, t.Name, math.Float64bits(t.Load), math.Float64bits(t.ImageMb), t.Virtual)
		for _, e := range w.Successors(id) {
			fmt.Fprintf(h, " s %d>%d %x\n", e.From, e.To, math.Float64bits(e.DataMb))
		}
		for _, e := range w.Predecessors(id) {
			fmt.Fprintf(h, " p %d>%d %x\n", e.From, e.To, math.Float64bits(e.DataMb))
		}
	}
	fmt.Fprintf(h, "topo %v\n", w.TopoOrder())
}

// TestGeneratedWorkloadDigest pins workflow construction end to end: the
// workload generator's output must stay byte-identical, down to the order
// of every adjacency list. The digests were recorded before the builder's
// allocation layout was rewritten.
func TestGeneratedWorkloadDigest(t *testing.T) {
	wide := dag.GenConfig{
		Tasks:   stats.Range{Min: 1, Max: 60},
		FanOut:  stats.Range{Min: 0, Max: 9},
		LoadMI:  stats.Range{Min: 10, Max: 50000},
		ImageMb: stats.Range{Min: 0, Max: 300},
		DataMb:  stats.Range{Min: 0, Max: 5000},
	}
	cases := []struct {
		name string
		gen  dag.GenConfig
		seed int64
		want string
	}{
		{"default/seed1", dag.DefaultGenConfig(), 1, "1a1fcc33ba74dccadbf0c76facd8452d888b00cf3d0485e46094420f6546219b"},
		{"default/seed2", dag.DefaultGenConfig(), 2, "9992a45c6e2fb4555f703b11ccdad701c6f658118e243f2d9670519e1f89c00d"},
		{"wide/seed1", wide, 1, "4a1f7295e2b13752ec1953bbfb2935dd37a3e7925f6040e1af5fdbab12f09146"},
		{"wide/seed2", wide, 2, "801af648d6b96602982d04463de8ab01b424923ffe1ff582fde11ec6e40dcdad"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			subs, err := workload.Generate(workload.Config{Nodes: 12, LoadFactor: 8, Gen: tc.gen, Seed: tc.seed})
			if err != nil {
				t.Fatal(err)
			}
			h := sha256.New()
			for _, s := range subs {
				fmt.Fprintf(h, "sub home=%d at=%x\n", s.Home, math.Float64bits(s.SubmitAt))
				dumpWorkflow(h, s.Workflow)
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != tc.want {
				t.Errorf("digest %s, want %s", got, tc.want)
			}
		})
	}
}

type edgeSpec struct {
	from, to dag.TaskID
	data     float64
}

type taskSpec struct {
	name        string
	load, image float64
}

func buildSpec(name string, tasks []taskSpec, edges []edgeSpec) (*dag.Workflow, error) {
	b := dag.NewBuilder(name)
	for _, t := range tasks {
		b.AddTask(t.name, t.load, t.image)
	}
	for _, e := range edges {
		b.AddEdge(e.from, e.to, e.data)
	}
	return b.Build()
}

// TestBuildErrors pins every Build error message and, on edge lists with
// several faults, which fault is reported: task faults before edge
// faults, tasks and edges in declaration order, and within one edge the
// range, self-loop, data-size and duplicate checks in that order.
func TestBuildErrors(t *testing.T) {
	ok := taskSpec{"ok", 1, 1}
	three := []taskSpec{{"a", 1, 1}, {"b", 1, 1}, {"c", 1, 1}}
	four := append(append([]taskSpec(nil), three...), taskSpec{"d", 1, 1})
	cases := []struct {
		name  string
		tasks []taskSpec
		edges []edgeSpec
		want  string
	}{
		{"no tasks", nil, nil, `dag: workflow "w" has no tasks`},
		{"negative load", []taskSpec{ok, {"neg", -1, 1}}, nil, `dag: task "neg" has negative load -1`},
		{"negative image", []taskSpec{{"img", 2, -0.5}}, nil, `dag: task "img" has negative image size -0.5`},
		{"range high", three, []edgeSpec{{0, 3, 1}}, `dag: edge 0->3 out of range in "w"`},
		{"range negative", three, []edgeSpec{{-1, 0, 1}}, `dag: edge -1->0 out of range in "w"`},
		{"self-loop", three, []edgeSpec{{1, 1, 1}}, `dag: self-loop on task 1 in "w"`},
		{"negative data", three, []edgeSpec{{0, 1, -3}}, `dag: negative data size on edge 0->1`},
		{"duplicate", three, []edgeSpec{{0, 1, 1}, {0, 1, 2}}, `dag: duplicate edge 0->1 in "w"`},
		{"no entry", three, []edgeSpec{{0, 1, 1}, {1, 2, 1}, {2, 0, 1}}, `dag: workflow "w" has no entry task (cycle)`},
		{"no exit", three, []edgeSpec{{0, 1, 1}, {1, 2, 1}, {2, 1, 1}}, `dag: workflow "w" has no exit task (cycle)`},
		{"inner cycle", four, []edgeSpec{{0, 1, 1}, {1, 2, 1}, {2, 1, 1}, {2, 3, 1}}, `dag: workflow "w" contains a cycle`},

		// First-error precedence.
		{"image before later load", []taskSpec{{"x", 1, -1}, {"y", -1, 1}}, nil, `dag: task "x" has negative image size -1`},
		{"load before image in one task", []taskSpec{{"x", -2, -1}}, nil, `dag: task "x" has negative load -2`},
		{"task before edge", []taskSpec{ok, {"neg", -1, 1}}, []edgeSpec{{0, 0, 1}}, `dag: task "neg" has negative load -1`},
		{"range before self-loop", three, []edgeSpec{{5, 5, 1}}, `dag: edge 5->5 out of range in "w"`},
		{"self-loop before negative data", three, []edgeSpec{{2, 2, -1}}, `dag: self-loop on task 2 in "w"`},
		{"negative data before duplicate", three, []edgeSpec{{0, 1, 1}, {0, 1, -1}}, `dag: negative data size on edge 0->1`},
		{"duplicate before later self-loop", three, []edgeSpec{{0, 1, 1}, {0, 2, 1}, {0, 1, 1}, {2, 2, 1}}, `dag: duplicate edge 0->1 in "w"`},
		{"self-loop before later duplicate", three, []edgeSpec{{0, 1, 1}, {2, 2, 1}, {0, 1, 1}}, `dag: self-loop on task 2 in "w"`},
		{"earlier of two duplicates", four, []edgeSpec{{0, 1, 1}, {0, 2, 1}, {0, 2, 1}, {0, 1, 1}}, `dag: duplicate edge 0->2 in "w"`},
		{"duplicate order across sources", four, []edgeSpec{{1, 2, 1}, {1, 2, 1}, {0, 1, 1}, {0, 1, 1}}, `dag: duplicate edge 1->2 in "w"`},
		{"duplicate before range", three, []edgeSpec{{0, 1, 1}, {0, 1, 1}, {0, 7, 1}}, `dag: duplicate edge 0->1 in "w"`},
		{"duplicate before cycle", three, []edgeSpec{{0, 1, 1}, {1, 0, 1}, {1, 0, 1}}, `dag: duplicate edge 1->0 in "w"`},
		{"reversed pair is not a duplicate", three, []edgeSpec{{0, 1, 1}, {1, 0, 1}}, `dag: workflow "w" contains a cycle`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w, err := buildSpec("w", tc.tasks, tc.edges)
			if err == nil {
				t.Fatalf("built %d tasks, want error %q", w.Len(), tc.want)
			}
			if err.Error() != tc.want {
				t.Fatalf("error %q, want %q", err, tc.want)
			}
		})
	}
}

// TestAdjacencyAppendIsolated checks that appending to a slice returned by
// Successors or Predecessors never writes into another task's list, for a
// plain DAG and for one whose normalization adds virtual entry and exit
// edges.
func TestAdjacencyAppendIsolated(t *testing.T) {
	graphs := map[string][]edgeSpec{
		"diamond":    {{0, 1, 1}, {0, 2, 2}, {1, 3, 3}, {2, 3, 4}},
		"normalized": {{0, 2, 1}, {1, 2, 2}, {2, 3, 3}, {2, 4, 4}},
	}
	tasks := []taskSpec{{"a", 1, 1}, {"b", 2, 1}, {"c", 3, 1}, {"d", 4, 1}, {"e", 5, 1}}
	for name, edges := range graphs {
		n := 1 + int(edges[len(edges)-1].to)
		for _, side := range []string{"succ", "pred"} {
			for victim := 0; ; victim++ {
				w, err := buildSpec(name, tasks[:n], edges)
				if err != nil {
					t.Fatal(err)
				}
				if victim == w.Len() {
					break
				}
				lists := func() [][]dag.Edge {
					var out [][]dag.Edge
					for i := 0; i < w.Len(); i++ {
						out = append(out, append([]dag.Edge(nil), w.Successors(dag.TaskID(i))...))
						out = append(out, append([]dag.Edge(nil), w.Predecessors(dag.TaskID(i))...))
					}
					return out
				}
				before := lists()
				get := w.Successors
				if side == "pred" {
					get = w.Predecessors
				}
				junk := dag.Edge{From: 99, To: 98, DataMb: -7}
				_ = append(get(dag.TaskID(victim)), junk, junk, junk)
				if after := lists(); !reflect.DeepEqual(before, after) {
					t.Fatalf("%s: appending to %s(%d) changed the adjacency lists", name, side, victim)
				}
			}
		}
	}
}
