package core

import (
	"ompsscluster/internal/dlb"
	"ompsscluster/internal/nanos"
	"ompsscluster/internal/simtime"
)

// simtimeDuration converts an int64 nanosecond count (used for arithmetic
// convenience) back to a Duration.
func simtimeDuration(ns int64) simtime.Duration { return simtime.Duration(ns) }

// Worker is one apprank's executor on one node: the home worker or a
// helper. It holds tasks assigned to it (runnable or with data still in
// flight) and executes them on cores granted by the node's DLB arbiter.
type Worker struct {
	app        *Apprank
	ns         *nodeState
	wid        dlb.WorkerID
	queued     taskFIFO // runnable, waiting for a core
	inflight   int      // assigned, input data still in transit
	running    int
	busySmooth float64     // exponentially smoothed busy-core average
	talp       dlb.CellRef // TALP (apprank, node) cell, set once TALP is sized

	// Fault-plan state (zero on fault-free runs): a dead worker's node
	// runtime died (drain/crash); epoch stamps in-flight completion
	// closures so a death invalidates them.
	dead  bool
	epoch uint64
}

// isHome reports whether this is the apprank's main worker.
func (w *Worker) isHome() bool { return w.ns.id == w.app.home }

// owned returns the worker's DROM core ownership.
func (w *Worker) owned() int { return w.ns.arb.Owned(w.wid) }

// capacity is the §5.5 assignment threshold: TasksPerCore per owned core.
// Owned counts DROM ownership only — never LeWI-borrowed cores — unless
// the CountBorrowed ablation is enabled.
func (w *Worker) capacity() int {
	o := w.owned()
	if w.app.rt.cfg.CountBorrowed {
		if b := w.running - o; b > 0 {
			o += b
		}
	}
	return w.app.rt.cfg.TasksPerCore * o
}

// load counts tasks bound to this worker in any pre-completion stage.
func (w *Worker) load() int { return w.queued.Len() + w.inflight + w.running }

// underThreshold reports whether the scheduler may assign another task.
func (w *Worker) underThreshold() bool { return w.load() < w.capacity() }

// enqueue makes a task runnable at this worker and pokes the dispatcher.
func (w *Worker) enqueue(t *nanos.Task) {
	w.queued.Push(t)
	w.ns.scheduleDispatch()
}

// after schedules fn on the node's environment d after the current time.
func (ns *nodeState) after(d simtime.Duration, fn func()) {
	ns.env.At(ns.env.Now()+simtime.Time(d), fn)
}

// start executes the head task on a core the dispatcher secured.
func (w *Worker) start() {
	rt := w.app.rt
	now := w.ns.env.Now()
	t := w.queued.Pop()
	w.ns.arb.Start(w.wid, now)
	w.running++
	w.app.graph.MarkRunning(t, w.ns.id)
	if !w.isHome() {
		w.app.offloaded++
	}
	borrowed := w.running > w.owned()
	rt.cfg.Obs.ExecStart(w.ns.id, w.app.id, t.ID, int(w.wid), borrowed, t.Label)
	// Occupied time: compute plus runtime overhead, both scaled by node
	// speed, plus a fixed overhead.
	work := t.Work + simtime.Duration(rt.cfg.OverheadFrac*float64(t.Work))
	exec := rt.cfg.Machine.ExecTime(w.ns.id, work) + rt.cfg.OverheadFixed
	// TALP splits the occupied interval into useful compute (the task's
	// work at this node's speed) and runtime overhead (the fixed and
	// fractional model terms), attributed to the (apprank, node) cell.
	useful := float64(rt.cfg.Machine.ExecTime(w.ns.id, t.Work))
	rt.talp.AddExec(w.talp, now, now+simtime.Time(exec),
		useful, float64(exec)-useful, borrowed)
	// A pooled continuation record instead of a per-task closure (see
	// continuations.go).
	w.ns.env.Schedule(exec, w.ns.getExec(w, t).fn)
}

// complete handles a task finishing on this worker.
func (w *Worker) complete(t *nanos.Task) {
	rt := w.app.rt
	now := w.ns.env.Now()
	w.ns.arb.Finish(w.wid, now)
	w.running--
	rt.cfg.Obs.ExecEnd(w.ns.id, w.app.id, t.ID, int(w.wid), t.Label)
	a := w.app
	if w.isHome() {
		a.finishTask(t)
	} else {
		// The completion notification travels back to the apprank's home
		// node before successors are released there.
		if rt.flt != nil {
			a.markCompletedRemote(t)
		}
		rt.sendCtl(w.ns.id, a.home, rt.cfg.CtlMsgBytes, w.ns.getFinish(a, t).fn)
	}
	// Steal centrally held tasks now that this worker has room ("will be
	// stolen as tasks complete", §5.5).
	a.refill(w)
	w.ns.scheduleDispatch()
}

// scheduleDispatch arranges a dispatch pass for the node at the current
// time (deduplicated, so event storms cost one pass). The callback is
// allocated once per node at construction, not per pass.
func (ns *nodeState) scheduleDispatch() {
	if ns.queued {
		return
	}
	ns.queued = true
	ns.env.At(ns.env.Now(), ns.dispatchFn)
}

// dispatch greedily starts runnable tasks on the node: owners use their
// own cores first (including DROM reclaims at task boundaries); with LeWI
// enabled, remaining idle cores are lent to any worker with runnable
// tasks. Round-robin rotation keeps the borrow pass fair.
func (ns *nodeState) dispatch() {
	n := len(ns.workers)
	if n == 0 {
		return
	}
	// Both passes visit workers[rr:] and then workers[:rr]: the rotated
	// order without a modulo per visit.
	rot := [2][]*Worker{ns.workers[ns.rr:], ns.workers[:ns.rr]}
	for changed := true; changed; {
		changed = false
		for _, ws := range rot {
			for _, w := range ws {
				if w.dead || w.app.stalled {
					continue
				}
				for w.queued.Len() > 0 && ns.arb.CanStartOwned(w.wid) {
					w.start()
					changed = true
				}
			}
		}
		for _, ws := range rot {
			for _, w := range ws {
				if w.dead || w.app.stalled {
					continue
				}
				// An idle lent core polls the apprank's central queue
				// directly: this is how LeWI-borrowed cores keep
				// receiving work beyond the owned-core threshold.
				w.app.borrowRefill(w)
				if w.queued.Len() > 0 && ns.arb.CanBorrow(w.wid) {
					w.start()
					changed = true
				}
			}
		}
	}
	ns.rr = (ns.rr + 1) % n
}
