// Package nanos implements the task-graph core of a Nanos6-like runtime:
// tasks with region-based data accesses (in/out/inout over address
// ranges), dependency computation in program order, readiness
// notification, and taskwait quiescence.
//
// The package is deliberately independent of time, cores, and nodes: it is
// the per-apprank dependency engine. The distributed runtime in
// internal/core drives it and reacts to its callbacks.
//
// Dependency semantics follow OmpSs-2: task accesses are declared as byte
// ranges; a task reading a range depends on the last writer of any
// overlapping range; a task writing a range depends on the last writer and
// all readers since that write. Task order is inherited from submission
// (sequential program) order.
package nanos

import (
	"fmt"

	"ompsscluster/internal/obs"
	"ompsscluster/internal/simtime"
)

// AccessMode describes how a task uses a region.
type AccessMode int

// Access modes.
const (
	In AccessMode = iota
	Out
	InOut
	// Concurrent is OmpSs-2's concurrent clause: tasks accessing the
	// region concurrently may run in parallel with each other (typically
	// reductions into a shared buffer) but are ordered against readers
	// and writers on both sides.
	Concurrent
)

func (m AccessMode) String() string {
	switch m {
	case In:
		return "in"
	case Out:
		return "out"
	case InOut:
		return "inout"
	case Concurrent:
		return "concurrent"
	}
	return fmt.Sprintf("AccessMode(%d)", int(m))
}

// Region is a half-open byte range [Start, End) in the apprank's virtual
// address space.
type Region struct {
	Start, End uint64
}

// Size returns the region length in bytes.
func (r Region) Size() int64 { return int64(r.End - r.Start) }

// Overlaps reports whether two regions intersect.
func (r Region) Overlaps(o Region) bool { return r.Start < o.End && o.Start < r.End }

func (r Region) String() string { return fmt.Sprintf("[%#x,%#x)", r.Start, r.End) }

// Access is one declared task data access.
type Access struct {
	Region Region
	Mode   AccessMode
}

// TaskState is the lifecycle state of a task.
type TaskState int

// Task lifecycle states.
const (
	// Created: submitted, waiting for dependencies.
	Created TaskState = iota
	// Ready: all dependencies satisfied, not yet running.
	Ready
	// Running: executing on some worker.
	Running
	// Completed: finished; successors may run.
	Completed
)

func (s TaskState) String() string {
	switch s {
	case Created:
		return "created"
	case Ready:
		return "ready"
	case Running:
		return "running"
	case Completed:
		return "completed"
	}
	return fmt.Sprintf("TaskState(%d)", int(s))
}

// Task is a unit of work with declared data accesses.
type Task struct {
	// ID is unique within the TaskGraph, in submission order.
	ID int64
	// Label names the task kind for traces and debugging.
	Label string
	// Work is the nominal compute work (execution time at speed 1.0).
	Work simtime.Duration
	// Accesses declares the data regions the task reads and writes.
	Accesses []Access
	// Offloadable marks the task as eligible for execution on another
	// node (the paper's offloadable clause).
	Offloadable bool

	// announced sits next to Offloadable so the two bools share a word:
	// the record is 128 bytes, two cache lines.
	announced bool // readiness callback delivered
	state     TaskState
	ndeps     int     // unsatisfied dependencies
	succs     []*Task // tasks depending on this one
	depMark   int64   // dedup marker: last task that added an edge to us
	queryMark int64   // dedup marker: last writers() query that saw us

	// ExecNode records where the task ran; set by the runtime at start.
	// It feeds the data-location registry for locality decisions.
	ExecNode int
}

// State returns the task's lifecycle state.
func (t *Task) State() TaskState { return t.state }

// NumDeps returns the number of unsatisfied dependencies (for tests).
func (t *Task) NumDeps() int { return t.ndeps }

// TaskGraph tracks submitted tasks, computes dependencies, and reports
// readiness and quiescence for one apprank.
type TaskGraph struct {
	nextID      int64
	onReady     func(*Task)
	outstanding int
	waiters     []func() // quiescence callbacks
	reg         registry
	submitted   int64
	completed   int64
	totalWork   simtime.Duration // declared Work summed over submissions
	obs         *obs.Recorder
	obsApprank  int
}

// SetObs attaches the structured event recorder, attributing this
// graph's task-lifecycle events to the given apprank. A nil recorder
// (the default) keeps Submit and announce allocation-free.
func (g *TaskGraph) SetObs(rec *obs.Recorder, apprank int) {
	g.obs = rec
	g.obsApprank = apprank
}

// NewTaskGraph creates an empty graph. onReady is invoked for every task
// whose dependencies are satisfied — possibly during Submit (for tasks
// with no predecessors) or during Complete.
func NewTaskGraph(onReady func(*Task)) *TaskGraph {
	// IDs start at 1 so the zero depMark never matches a real task.
	return &TaskGraph{onReady: onReady, nextID: 1}
}

// Stats returns (submitted, completed, outstanding) counters.
func (g *TaskGraph) Stats() (submitted, completed int64, outstanding int) {
	return g.submitted, g.completed, g.outstanding
}

// TotalWork returns the declared Work summed over every submitted task:
// the apprank's nominal compute demand at speed 1.0, before overhead and
// node-speed scaling. The POP report compares it with measured useful
// time.
func (g *TaskGraph) TotalWork() simtime.Duration { return g.totalWork }

// Submit registers a task, computes its dependencies against previously
// submitted tasks, and announces it ready if it has none.
func (g *TaskGraph) Submit(t *Task) {
	if t.state != Created || t.announced {
		panic(fmt.Sprintf("nanos: task %q resubmitted", t.Label))
	}
	t.ID = g.nextID
	g.nextID++
	t.ExecNode = -1
	g.submitted++
	g.outstanding++
	g.totalWork += t.Work
	for _, a := range t.Accesses {
		if a.Region.End < a.Region.Start {
			panic(fmt.Sprintf("nanos: task %q has inverted region %v", t.Label, a.Region))
		}
		g.reg.addAccess(t, a)
	}
	if g.obs != nil {
		bytes := int64(0)
		for _, a := range t.Accesses {
			bytes += a.Region.Size()
		}
		g.obs.TaskCreated(g.obsApprank, t.ID, t.Label, bytes)
	}
	if t.ndeps == 0 {
		g.announce(t)
	}
}

func (g *TaskGraph) announce(t *Task) {
	t.state = Ready
	t.announced = true
	g.obs.TaskReady(g.obsApprank, t.ID)
	g.onReady(t)
}

// MarkRunning transitions a ready task to running on the given node.
func (g *TaskGraph) MarkRunning(t *Task, node int) {
	if t.state != Ready {
		panic(fmt.Sprintf("nanos: MarkRunning on %v task %q", t.state, t.Label))
	}
	t.state = Running
	t.ExecNode = node
}

// Reschedule returns a running task to the ready state without
// releasing successors, for re-execution after its node died mid-task.
// The execution node is cleared; the task is NOT re-announced through
// onReady — the caller re-places it explicitly (recovery placement is a
// policy decision, not a readiness event).
func (g *TaskGraph) Reschedule(t *Task) {
	if t.state != Running {
		panic(fmt.Sprintf("nanos: Reschedule on %v task %q", t.state, t.Label))
	}
	t.state = Ready
	t.ExecNode = -1
}

// Complete transitions a task to completed, releases its successors, and
// fires quiescence callbacks if the graph drained.
func (g *TaskGraph) Complete(t *Task) {
	if t.state != Running && t.state != Ready {
		panic(fmt.Sprintf("nanos: Complete on %v task %q", t.state, t.Label))
	}
	t.state = Completed
	g.completed++
	g.outstanding--
	for _, s := range t.succs {
		s.ndeps--
		if s.ndeps == 0 && s.state == Created {
			g.announce(s)
		}
	}
	t.succs = nil
	if g.outstanding == 0 {
		ws := g.waiters
		g.waiters = nil
		for _, w := range ws {
			w()
		}
	}
}

// OnQuiescent registers fn to run when every submitted task has completed.
// If the graph is already quiescent, fn runs immediately. This is the
// taskwait primitive.
func (g *TaskGraph) OnQuiescent(fn func()) {
	if g.outstanding == 0 {
		fn()
		return
	}
	g.waiters = append(g.waiters, fn)
}

// addEdge records that succ depends on pred, unless pred already completed
// or the edge exists. Edges are only ever added while succ is being
// submitted, so marking pred with succ's unique ID dedups repeated pairs
// produced by scanning many overlapping intervals.
func addEdge(pred, succ *Task) {
	if pred == succ || pred.state == Completed || pred.depMark == succ.ID {
		return
	}
	pred.depMark = succ.ID
	pred.succs = append(pred.succs, succ)
	succ.ndeps++
}

// Writers returns the distinct live last-writer tasks overlapping the
// region.
func (g *TaskGraph) Writers(r Region) []*Task {
	return g.reg.writers(r)
}

// LocVec is a data-location vector: the bytes of unknown location
// (never written, or whose writer has not started) plus the bytes
// resident on each node. The per-node counts sit in dense slots indexed
// by node id, and the vector also lists the nodes whose slot is nonzero,
// in first-touch order. A task's inputs were written by tasks of the
// same apprank, so they sit on the few nodes that apprank runs on
// however large the machine is; Reset and any walk over the resident
// nodes cost O(nodes touched), not O(machine size). One vector per
// apprank is allocated once and reused for every locality query — the
// scheduler's hot path allocates nothing.
type LocVec struct {
	unknown int64
	bytes   []int64 // bytes[n]: bytes resident on node n
	nodes   []int32 // nodes with bytes[n] != 0, each once, first-touch order
}

// NewLocVec returns a zeroed vector with room for numNodes nodes.
func NewLocVec(numNodes int) *LocVec {
	return &LocVec{bytes: make([]int64, numNodes), nodes: make([]int32, 0, numNodes)}
}

// Reset zeroes the vector for reuse, clearing only the slots touched
// since the last Reset.
func (v *LocVec) Reset() {
	for _, n := range v.nodes {
		v.bytes[n] = 0
	}
	v.nodes = v.nodes[:0]
	v.unknown = 0
}

// Unknown returns the bytes whose location is unknown.
func (v *LocVec) Unknown() int64 { return v.unknown }

// On returns the bytes resident on the given node.
func (v *LocVec) On(node int) int64 { return v.bytes[node] }

// Nodes returns the nodes holding a nonzero byte count, each once, in
// the order they were first added. The slice aliases the vector and is
// valid until the next Reset.
func (v *LocVec) Nodes() []int32 { return v.nodes }

// add credits b > 0 bytes to node (-1 is unknown). A zero b would list
// the node twice.
func (v *LocVec) add(node int, b int64) {
	if node < 0 {
		v.unknown += b
		return
	}
	if v.bytes[node] == 0 {
		v.nodes = append(v.nodes, int32(node))
	}
	v.bytes[node] += b
}

// FoldUnknown moves the bytes of unknown location onto node, the way the
// runtime treats data nobody has produced yet as resident at the
// apprank's home.
func (v *LocVec) FoldUnknown(node int) {
	if v.unknown != 0 {
		v.add(node, v.unknown)
		v.unknown = 0
	}
}

// DataLocationInto accumulates, for the read portions (In and InOut) of
// the given accesses, the number of bytes currently residing on each node
// into dst, which is reset first. This is the allocation-free form of
// DataLocation the runtime uses for the locality-first scheduling
// decision of §5.5 and for data-transfer cost estimation.
func (g *TaskGraph) DataLocationInto(accesses []Access, dst *LocVec) {
	dst.Reset()
	for _, a := range accesses {
		if a.Mode == Out {
			continue
		}
		g.reg.locationVec(a.Region, dst)
	}
}

// DataLocation returns, for the read portions (In and InOut) of the given
// accesses, the number of bytes currently residing on each node, keyed by
// node id. Bytes whose location is unknown are keyed under -1. It is the
// map-shaped convenience form of DataLocationInto (which the scheduler's
// hot path uses instead, as this one allocates its result).
func (g *TaskGraph) DataLocation(accesses []Access) map[int]int64 {
	loc := make(map[int]int64)
	for _, a := range accesses {
		if a.Mode == Out {
			continue
		}
		g.reg.location(a.Region, loc)
	}
	return loc
}

// RegistryHighWater reports the maximum interval count the dependency
// registry ever held — the figure of merit for interval coalescing, since
// every locality query and access walk is linear in the live interval
// count.
func (g *TaskGraph) RegistryHighWater() int { return g.reg.highWater() }
