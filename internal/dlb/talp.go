package dlb

import (
	"fmt"
	"sort"

	"ompsscluster/internal/simtime"
)

// TALP (Tracking Application Live Performance) measures parallel
// efficiency per apprank: the fraction of the compute time owned by the
// apprank's workers that was spent executing useful work (tasks), the
// remainder being idle or runtime overhead time. The paper's TALP module
// intercepts MPI calls; here the same accounting is fed by the runtime at
// task boundaries and MPI-operation boundaries.
//
// Accounting is cellular: every apprank keeps one accumulator cell per
// node, and the runtime reports each task execution into the (apprank,
// executing-node) cell. Snapshot and the POP builder merge cells in
// fixed (apprank, node) order, so every derived report is a
// deterministic function of the run, with no map iteration order
// leaking into it.
type TALP struct {
	apps     map[int]*talpApp
	numNodes int
	// window is the POP series window width in virtual nanoseconds;
	// 0 (the default) disables the windowed series and keeps AddExec
	// allocation-free.
	window float64
}

// talpCell accumulates one (apprank, node) slot. All values are
// core-nanoseconds except tasks.
type talpCell struct {
	useful    float64 // task compute time (work at node speed)
	overhead  float64 // runtime overhead folded into executions
	borrowed  float64 // portion of useful+overhead run on borrowed cores
	tasks     int64
	winUseful []float64 // per-window useful core-ns (window > 0 only)
}

type talpApp struct {
	started simtime.Time
	mpi     float64 // nanoseconds the main process spent inside MPI calls
	cells   []talpCell
}

// NewTALP creates an empty TALP accounting module with a single
// accounting cell per apprank (node breakdown disabled until
// Preallocate sizes the topology).
func NewTALP() *TALP {
	return &TALP{apps: make(map[int]*talpApp), numNodes: 1}
}

// SetWindow enables the time-windowed POP series with the given window
// width. Must be called before the run starts; zero disables windows.
func (t *TALP) SetWindow(w simtime.Duration) {
	if w < 0 {
		panic(fmt.Sprintf("dlb: negative TALP window %v", w))
	}
	t.window = float64(w)
}

// Window returns the configured window width in virtual nanoseconds
// (0 when the windowed series is disabled).
func (t *TALP) Window() float64 { return t.window }

func (t *TALP) app(apprank int) *talpApp {
	a, ok := t.apps[apprank]
	if !ok {
		a = &talpApp{cells: make([]talpCell, t.numNodes)}
		t.apps[apprank] = a
	}
	return a
}

// Preallocate creates the accounting entries for the given appranks up
// front, each with one cell per node of the topology.
func (t *TALP) Preallocate(ids []int, numNodes int) {
	if numNodes > t.numNodes {
		t.numNodes = numNodes
	}
	for _, id := range ids {
		t.app(id)
	}
}

// StartApp records the start time of an apprank's main function.
func (t *TALP) StartApp(apprank int, now simtime.Time) {
	t.app(apprank).started = now
}

// CellRef is a handle on one (apprank, node) accumulator cell, resolved
// once by Ref so that the per-task AddExec does no lookup.
type CellRef struct {
	c *talpCell
}

// Ref returns the handle of the (apprank, node) cell. The node must lie
// in the topology the apprank's cells were sized for (Preallocate): the
// cells never move after that, so the handle stays valid for the run.
func (t *TALP) Ref(apprank, node int) CellRef {
	a := t.app(apprank)
	if node < 0 || node >= len(a.cells) {
		panic(fmt.Sprintf("dlb: TALP cell (%d, %d) outside the %d-node topology", apprank, node, len(a.cells)))
	}
	return CellRef{&a.cells[node]}
}

// AddExec accounts one task execution into the cell ref names (the
// task's apprank and executing node) over the virtual span [start,
// end): useful core-nanoseconds of compute plus overhead core-nanoseconds
// of runtime cost, flagged if the execution ran on a borrowed (LeWI)
// core. With a window configured the useful time is also spread across
// the overlapping windows in proportion to the overlap.
func (t *TALP) AddExec(ref CellRef, start, end simtime.Time, useful, overhead float64, borrowed bool) {
	c := ref.c
	c.useful += useful
	c.overhead += overhead
	if borrowed {
		c.borrowed += useful + overhead
	}
	c.tasks++
	if t.window > 0 {
		c.winUseful = addWindowed(c.winUseful, t.window, float64(start), float64(end), useful)
	}
}

// addWindowed spreads amount over the windows covering [start, end),
// proportionally to each window's overlap with the span.
func addWindowed(wins []float64, window, start, end, amount float64) []float64 {
	if end <= start {
		// Zero-length span: attribute everything to its window.
		i := int(start / window)
		wins = growWins(wins, i)
		wins[i] += amount
		return wins
	}
	last := int(end / window)
	if float64(last)*window == end && last > 0 {
		last-- // [start, end) is half-open: a span ending exactly on a boundary stays below it
	}
	wins = growWins(wins, last)
	span := end - start
	for i := int(start / window); i <= last; i++ {
		lo := float64(i) * window
		hi := lo + window
		if lo < start {
			lo = start
		}
		if hi > end {
			hi = end
		}
		wins[i] += amount * (hi - lo) / span
	}
	return wins
}

func growWins(wins []float64, i int) []float64 {
	for len(wins) <= i {
		wins = append(wins, 0)
	}
	return wins
}

// AddMPISpan accounts one blocking MPI operation of apprank's main
// process over [t0, t1).
func (t *TALP) AddMPISpan(apprank int, t0, t1 simtime.Time) {
	t.app(apprank).mpi += float64(t1 - t0)
}

// Appranks returns the accounted apprank ids in ascending order.
func (t *TALP) Appranks() []int {
	ids := make([]int, 0, len(t.apps))
	for id := range t.apps {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}

// CellTotals is the read-only view of one (apprank, node) cell.
type CellTotals struct {
	Useful   float64 // core-ns of task compute
	Overhead float64 // core-ns of runtime overhead
	Borrowed float64 // core-ns executed on borrowed cores
	Tasks    int64
}

// Cell returns the totals of the (apprank, node) cell (zero if never
// written).
func (t *TALP) Cell(apprank, node int) CellTotals {
	a, ok := t.apps[apprank]
	if !ok || node >= len(a.cells) {
		return CellTotals{}
	}
	c := &a.cells[node]
	return CellTotals{Useful: c.useful, Overhead: c.overhead, Borrowed: c.borrowed, Tasks: c.tasks}
}

// WindowUseful returns the per-window useful core-ns of the (apprank,
// node) cell. The slice is the live accumulator; callers must not
// mutate it. It is ragged: windows after the cell's last activity are
// absent.
func (t *TALP) WindowUseful(apprank, node int) []float64 {
	a, ok := t.apps[apprank]
	if !ok || node >= len(a.cells) {
		return nil
	}
	return a.cells[node].winUseful
}

// MPITime returns apprank's accumulated MPI nanoseconds.
func (t *TALP) MPITime(apprank int) float64 {
	if a, ok := t.apps[apprank]; ok {
		return a.mpi
	}
	return 0
}

// Report summarises efficiency: one line per apprank, mirroring DLB's
// end-of-run TALP report.
type Report struct {
	Appranks []AppReport
}

// AppReport is the TALP summary for one apprank.
type AppReport struct {
	Apprank    int
	Elapsed    simtime.Duration
	UsefulTime simtime.Duration // core-time executing tasks
	MPITime    simtime.Duration // main-process time inside MPI
	Efficiency float64          // useful / (elapsed * avgCores)
}

// Snapshot builds the report at time now. avgCores maps apprank to its
// average owned cores over the run (the caller knows this from the
// arbiters); missing entries default to 1. Cells merge in ascending
// (apprank, node) order, so the report is independent of the engine's
// execution interleaving.
func (t *TALP) Snapshot(now simtime.Time, avgCores map[int]float64) Report {
	var r Report
	for _, id := range t.Appranks() {
		a := t.apps[id]
		useful := 0.0
		for n := range a.cells {
			c := &a.cells[n]
			useful += c.useful + c.overhead
		}
		elapsed := now - a.started
		cores := avgCores[id]
		if cores <= 0 {
			cores = 1
		}
		eff := 0.0
		if elapsed > 0 {
			eff = useful / (float64(elapsed) * cores)
		}
		r.Appranks = append(r.Appranks, AppReport{
			Apprank:    id,
			Elapsed:    simtime.Duration(elapsed),
			UsefulTime: simtime.Duration(useful),
			MPITime:    simtime.Duration(a.mpi),
			Efficiency: eff,
		})
	}
	return r
}

// String renders the report as a table.
func (r Report) String() string {
	s := "TALP report\napprank  elapsed      useful(core-s)  mpi(s)     efficiency\n"
	for _, a := range r.Appranks {
		s += fmt.Sprintf("%7d  %-11v  %-14.3f  %-9.3f  %5.1f%%\n",
			a.Apprank, a.Elapsed, a.UsefulTime.Seconds(), a.MPITime.Seconds(), a.Efficiency*100)
	}
	return s
}
