package dag

import (
	"fmt"
	"testing"
)

// decodeBuilder turns fuzz bytes into a builder: the first byte is the task
// count (0-15), then one byte per task gives its load (an int8, so it may
// be negative) and image size, and every following byte triple is an edge.
// Endpoints range over [-1, n+1] so out-of-range ids occur; the third
// byte's low six bits give the data size minus 2 (so negative sizes
// occur) and its top bit orients the edge from the lower id to the higher,
// which makes acyclic inputs common.
func decodeBuilder(data []byte) (*Builder, int) {
	b := NewBuilder("fuzz")
	if len(data) == 0 {
		return b, 0
	}
	n := int(data[0] % 16)
	data = data[1:]
	for i := 0; i < n; i++ {
		load, image := 1.0, 1.0
		if i < len(data) {
			load, image = float64(int8(data[i])), float64(data[i]%5)
		}
		b.AddTask(fmt.Sprint("t", i), load, image)
	}
	data = data[min(n, len(data)):]
	for ; len(data) >= 3; data = data[3:] {
		from := TaskID(int(data[0])%(n+3) - 1)
		to := TaskID(int(data[1])%(n+3) - 1)
		if data[2]&0x80 != 0 && from > to {
			from, to = to, from
		}
		b.AddEdge(from, to, float64(data[2]&0x3f)-2)
	}
	return b, n
}

// FuzzBuild checks Build's contract on arbitrary task and edge lists: it
// never panics, and it either reports an error or returns a workflow with
// the real tasks first, every declared edge present, a unique entry and
// exit, a topological order that is a permutation respecting every edge,
// and successor and predecessor lists that mirror each other.
func FuzzBuild(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 5})
	f.Add([]byte{4, 1, 2, 3, 4, 1, 2, 0x85, 1, 3, 0x85, 2, 4, 0x85, 3, 4, 0x85})
	f.Add([]byte{3, 1, 1, 1, 1, 2, 0x81, 1, 2, 0x82})
	f.Add([]byte{3, 1, 1, 1, 1, 2, 5, 2, 1, 5})
	f.Add([]byte{5, 9, 9, 9, 9, 9, 1, 3, 0x90, 2, 3, 0x90, 3, 4, 0x90, 3, 5, 0x90})
	f.Add([]byte{2, 0xff, 1, 1, 2, 0x85})
	f.Fuzz(func(t *testing.T, data []byte) {
		b, n := decodeBuilder(data)
		w, err := b.Build()
		if err != nil {
			if w != nil {
				t.Fatalf("error %v with a non-nil workflow", err)
			}
			return
		}
		m := w.Len()
		if m < n || m > n+2 {
			t.Fatalf("%d tasks from %d real ones", m, n)
		}
		for i := 0; i < m; i++ {
			task := w.Task(TaskID(i))
			if task.ID != TaskID(i) || task.Virtual != (i >= n) {
				t.Fatalf("task %d: %+v", i, task)
			}
			if i < n && (task.Name != b.tasks[i].Name || task.Load != b.tasks[i].Load) {
				t.Fatalf("real task %d changed: %+v", i, task)
			}
		}

		// Successor and predecessor lists mirror each other.
		inPred := map[Edge]int{}
		for v := 0; v < m; v++ {
			for _, e := range w.Predecessors(TaskID(v)) {
				if e.To != TaskID(v) {
					t.Fatalf("pred list of %d holds %+v", v, e)
				}
				inPred[e]++
			}
		}
		edges := 0
		for u := 0; u < m; u++ {
			for _, e := range w.Successors(TaskID(u)) {
				if e.From != TaskID(u) {
					t.Fatalf("succ list of %d holds %+v", u, e)
				}
				if inPred[e] == 0 {
					t.Fatalf("edge %+v missing from the pred lists", e)
				}
				inPred[e]--
				edges++
			}
		}
		if edges != w.Edges() || len(b.edges) > edges {
			t.Fatalf("%d edges listed, Edges() = %d, %d declared", edges, w.Edges(), len(b.edges))
		}
		for _, e := range b.edges {
			found := false
			for _, s := range w.Successors(e.From) {
				found = found || s == e
			}
			if !found {
				t.Fatalf("declared edge %+v missing", e)
			}
		}

		// A unique entry and exit.
		for v := 0; v < m; v++ {
			id := TaskID(v)
			if (len(w.Predecessors(id)) == 0) != (id == w.Entry()) {
				t.Fatalf("task %d: %d predecessors, entry %d", v, len(w.Predecessors(id)), w.Entry())
			}
			if (len(w.Successors(id)) == 0) != (id == w.Exit()) {
				t.Fatalf("task %d: %d successors, exit %d", v, len(w.Successors(id)), w.Exit())
			}
		}

		// The topological order is a permutation respecting every edge.
		topo := w.TopoOrder()
		if len(topo) != m {
			t.Fatalf("topo order has %d of %d tasks", len(topo), m)
		}
		pos := make([]int, m)
		for i := range pos {
			pos[i] = -1
		}
		for i, id := range topo {
			if id < 0 || int(id) >= m || pos[id] >= 0 {
				t.Fatalf("topo order %v is not a permutation", topo)
			}
			pos[id] = i
		}
		for u := 0; u < m; u++ {
			for _, e := range w.Successors(TaskID(u)) {
				if pos[e.From] >= pos[e.To] {
					t.Fatalf("topo order %v violates %d->%d", topo, e.From, e.To)
				}
			}
		}
	})
}
