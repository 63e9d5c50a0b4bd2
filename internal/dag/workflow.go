// Package dag models scientific workflows as directed acyclic graphs, the
// paper's Section II. Vertices are tasks weighted by computational load
// (million instructions); edges carry the dependent data (Mb) a successor
// must collect before it can run. The package provides construction and
// validation, the paper's normalization to a unique zero-cost entry and exit
// task, topological analysis, the rest-path-makespan (RPM) recursion of
// Eq. 7, the critical-path expected finish time of Eq. 1, and a random
// workflow generator following Table I.
package dag

import (
	"fmt"
	"math"
	"slices"
)

// TaskID indexes a task inside one workflow.
type TaskID int

// Task is a workflow vertex.
type Task struct {
	ID      TaskID
	Name    string
	Load    float64 // computational amount in MI (million instructions)
	ImageMb float64 // task image shipped from home node to the resource node
	Virtual bool    // zero-cost entry/exit added by normalization
}

// Edge is a data dependency: To cannot start before From's output
// (DataMb megabits) has been transmitted to To's execution node.
type Edge struct {
	From, To TaskID
	DataMb   float64
}

// Workflow is an immutable DAG with a unique entry and exit task. Build one
// with a Builder (or the generator); the constructor validates acyclicity
// and normalizes multiple entries/exits with virtual zero-cost tasks exactly
// as Section II.A prescribes.
type Workflow struct {
	Name  string
	tasks []Task
	succ  [][]Edge // indexed by From
	pred  [][]Edge // indexed by To
	entry TaskID
	exit  TaskID
	topo  []TaskID // cached topological order
}

// Len returns the number of tasks (including virtual ones).
func (w *Workflow) Len() int { return len(w.tasks) }

// Task returns the task with the given id.
func (w *Workflow) Task(id TaskID) Task { return w.tasks[id] }

// Entry returns the unique entry task id.
func (w *Workflow) Entry() TaskID { return w.entry }

// Exit returns the unique exit task id.
func (w *Workflow) Exit() TaskID { return w.exit }

// Successors returns the outgoing edges of t. The slice must not be mutated.
func (w *Workflow) Successors(t TaskID) []Edge { return w.succ[t] }

// Predecessors returns the incoming edges of t. The slice must not be
// mutated.
func (w *Workflow) Predecessors(t TaskID) []Edge { return w.pred[t] }

// TopoOrder returns a topological order (entry first, exit last).
func (w *Workflow) TopoOrder() []TaskID { return w.topo }

// Edges returns the total number of edges, the theta(f) of the paper's
// complexity analysis.
func (w *Workflow) Edges() int {
	n := 0
	for _, es := range w.succ {
		n += len(es)
	}
	return n
}

// TotalLoad returns the sum of task loads in MI.
func (w *Workflow) TotalLoad() float64 {
	var sum float64
	for _, t := range w.tasks {
		sum += t.Load
	}
	return sum
}

// ScaleLoads returns a copy of w with every real task's computational load
// multiplied by factor (virtual normalization tasks stay zero-cost and the
// edge data volumes are untouched). It is the trace-replay shaping rule's
// workhorse: a generated Table I DAG is rescaled so its total load matches
// a trace job's recorded work. Virtual tasks are re-derived by Build, which
// appends them after the real tasks exactly as the original construction
// did, so real task IDs are preserved.
func (w *Workflow) ScaleLoads(factor float64) (*Workflow, error) {
	if factor <= 0 || math.IsNaN(factor) || math.IsInf(factor, 0) {
		return nil, fmt.Errorf("dag: load scale factor %v out of range", factor)
	}
	b := NewBuilder(w.Name)
	b.Grow(len(w.tasks), w.Edges())
	for _, t := range w.tasks {
		if t.Virtual {
			continue
		}
		b.AddTask(t.Name, t.Load*factor, t.ImageMb)
	}
	for _, es := range w.succ {
		for _, e := range es {
			if w.tasks[e.From].Virtual || w.tasks[e.To].Virtual {
				continue
			}
			b.AddEdge(e.From, e.To, e.DataMb)
		}
	}
	return b.Build()
}

// Builder accumulates tasks and edges and validates them into a Workflow.
type Builder struct {
	name  string
	tasks []Task
	edges []Edge
}

// NewBuilder starts a workflow definition.
func NewBuilder(name string) *Builder { return &Builder{name: name} }

// Grow reserves room for tasks more tasks and edges more edges, so a caller
// that knows the workflow's size builds it without regrowing.
func (b *Builder) Grow(tasks, edges int) {
	b.tasks = slices.Grow(b.tasks, tasks)
	b.edges = slices.Grow(b.edges, edges)
}

// AddTask appends a task and returns its id. Negative loads are rejected at
// Build time.
func (b *Builder) AddTask(name string, loadMI, imageMb float64) TaskID {
	id := TaskID(len(b.tasks))
	b.tasks = append(b.tasks, Task{ID: id, Name: name, Load: loadMI, ImageMb: imageMb})
	return id
}

// AddEdge declares that to depends on from with the given data volume.
func (b *Builder) AddEdge(from, to TaskID, dataMb float64) {
	b.edges = append(b.edges, Edge{From: from, To: to, DataMb: dataMb})
}

// Build validates the graph and returns the normalized workflow. Faults
// are reported first-found: tasks in order, then edges in order (range,
// self-loop, data size, duplicate of an earlier edge), then a missing
// entry or exit, then a cycle.
//
// Every adjacency list is carved, at exact capacity, from one backing
// array sized after a degree count that also reserves the slots of the
// virtual entry and exit edges, so a workflow costs a fixed number of
// allocations whatever its size.
func (b *Builder) Build() (*Workflow, error) {
	n := len(b.tasks)
	if n == 0 {
		return nil, fmt.Errorf("dag: workflow %q has no tasks", b.name)
	}
	for _, t := range b.tasks {
		if t.Load < 0 {
			return nil, fmt.Errorf("dag: task %q has negative load %v", t.Name, t.Load)
		}
		if t.ImageMb < 0 {
			return nil, fmt.Errorf("dag: task %q has negative image size %v", t.Name, t.ImageMb)
		}
	}
	// deg holds out-degrees in [0,n) and in-degrees in [n,2n); its first
	// n+2 ints are reused as duplicate marks and as Kahn in-degrees.
	deg := make([]int, 2*n+2)
	out, in := deg[:n], deg[n:2*n]
	edges, edgeErr := b.edges, error(nil)
	for k, e := range b.edges {
		if edgeErr = b.checkEdge(e, n); edgeErr != nil {
			edges = b.edges[:k]
			break
		}
		out[e.From]++
		in[e.To]++
	}
	entries, exits := 0, 0
	for i := 0; i < n; i++ {
		if in[i] == 0 {
			entries++
		}
		if out[i] == 0 {
			exits++
		}
	}
	virtEntry, virtExit := entries > 1, exits > 1
	m := n
	if virtEntry {
		m++
	}
	if virtExit {
		m++
	}

	w := &Workflow{Name: b.name, tasks: make([]Task, n, m)}
	copy(w.tasks, b.tasks)
	slots := len(edges)
	if virtEntry {
		slots += entries
	}
	if virtExit {
		slots += exits
	}
	heads := make([][]Edge, 2*m)
	w.succ, w.pred = heads[:m:m], heads[m:]
	back := make([]Edge, 2*slots)
	carve := func(size int) []Edge {
		s := back[:0:size]
		back = back[size:]
		return s
	}
	for i := 0; i < n; i++ {
		size := out[i]
		if virtExit && size == 0 {
			size = 1
		}
		w.succ[i] = carve(size)
		if size = in[i]; virtEntry && size == 0 {
			size = 1
		}
		w.pred[i] = carve(size)
	}
	for _, e := range edges {
		w.succ[e.From] = append(w.succ[e.From], e)
		w.pred[e.To] = append(w.pred[e.To], e)
	}
	// A duplicate within the valid prefix comes before the faulty edge.
	clear(out)
	if k := firstDuplicate(edges, w.succ[:n], out); k >= 0 {
		e := edges[k]
		return nil, fmt.Errorf("dag: duplicate edge %d->%d in %q", e.From, e.To, b.name)
	}
	if edgeErr != nil {
		return nil, edgeErr
	}
	if entries == 0 {
		return nil, fmt.Errorf("dag: workflow %q has no entry task (cycle)", w.Name)
	}
	if exits == 0 {
		return nil, fmt.Errorf("dag: workflow %q has no exit task (cycle)", w.Name)
	}
	var entrySucc, exitPred []Edge
	if virtEntry {
		entrySucc = carve(entries)
	}
	if virtExit {
		exitPred = carve(exits)
	}
	w.normalize(virtEntry, virtExit, entrySucc, exitPred)
	topo, err := w.topoSort(deg[:m])
	if err != nil {
		return nil, err
	}
	w.topo = topo
	return w, nil
}

// checkEdge reports the first fault of one edge of a workflow of n tasks.
func (b *Builder) checkEdge(e Edge, n int) error {
	if e.From < 0 || int(e.From) >= n || e.To < 0 || int(e.To) >= n {
		return fmt.Errorf("dag: edge %d->%d out of range in %q", e.From, e.To, b.name)
	}
	if e.From == e.To {
		return fmt.Errorf("dag: self-loop on task %d in %q", e.From, b.name)
	}
	if e.DataMb < 0 {
		return fmt.Errorf("dag: negative data size on edge %d->%d", e.From, e.To)
	}
	return nil
}

// firstDuplicate returns the index in edges of the first edge that repeats
// an earlier edge's (From, To) pair, or -1. succ holds the same edges
// bucketed by From in declaration order and mark is zeroed scratch with
// one int per task. It runs in O(E + n) without a map: mark[v] = u+1
// flags v as already seen in bucket u, and only when some bucket repeats
// does a second pass map each bucket's first repeat back to its index.
func firstDuplicate(edges []Edge, succ [][]Edge, mark []int) int {
	var repeat []int // repeat[u]: 1 + position of bucket u's first repeat, 0 if none
	for u, es := range succ {
		for j, e := range es {
			if mark[e.To] == u+1 {
				if repeat == nil {
					repeat = make([]int, len(succ))
				}
				repeat[u] = j + 1
				break
			}
			mark[e.To] = u + 1
		}
	}
	if repeat == nil {
		return -1
	}
	for k, e := range edges {
		switch repeat[e.From] {
		case 0:
		case 1:
			return k
		default:
			repeat[e.From]--
		}
	}
	return -1
}

// normalize guarantees a unique entry and exit by adding zero-cost virtual
// tasks when several exist ("another newly added zero-cost task which
// connects all the original entry tasks can serve as the unique entry").
// The caller has established that at least one entry and one exit exist
// and passes the empty, exactly sized lists of the virtual tasks' edges;
// the real tasks' lists already have a free slot for their virtual edge.
func (w *Workflow) normalize(virtEntry, virtExit bool, entrySucc, exitPred []Edge) {
	n := len(w.tasks)
	if virtEntry {
		w.entry = w.addVirtual("entry*")
	}
	if virtExit {
		w.exit = w.addVirtual("exit*")
	}
	for i := 0; i < n; i++ {
		id := TaskID(i)
		if len(w.pred[i]) == 0 {
			if !virtEntry {
				w.entry = id
			} else {
				edge := Edge{From: w.entry, To: id}
				entrySucc = append(entrySucc, edge)
				w.pred[i] = append(w.pred[i], edge)
			}
		}
		if len(w.succ[i]) == 0 {
			if !virtExit {
				w.exit = id
			} else {
				edge := Edge{From: id, To: w.exit}
				w.succ[i] = append(w.succ[i], edge)
				exitPred = append(exitPred, edge)
			}
		}
	}
	if virtEntry {
		w.succ[w.entry] = entrySucc
	}
	if virtExit {
		w.pred[w.exit] = exitPred
	}
}

func (w *Workflow) addVirtual(name string) TaskID {
	id := TaskID(len(w.tasks))
	w.tasks = append(w.tasks, Task{ID: id, Name: name, Virtual: true})
	return id
}

// topoSort returns a Kahn topological order or an error naming a cycle.
// indeg is scratch with one int per task. The order slice doubles as the
// FIFO queue: every task is appended once when its in-degree reaches zero
// and consumed in append order.
func (w *Workflow) topoSort(indeg []int) ([]TaskID, error) {
	n := len(w.tasks)
	order := make([]TaskID, 0, n)
	for i := 0; i < n; i++ {
		if indeg[i] = len(w.pred[i]); indeg[i] == 0 {
			order = append(order, TaskID(i))
		}
	}
	for head := 0; head < len(order); head++ {
		for _, e := range w.succ[order[head]] {
			indeg[e.To]--
			if indeg[e.To] == 0 {
				order = append(order, e.To)
			}
		}
	}
	if len(order) != n {
		return nil, fmt.Errorf("dag: workflow %q contains a cycle", w.Name)
	}
	return order, nil
}
