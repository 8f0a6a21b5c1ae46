package core

import (
	"math"

	"ompsscluster/internal/balance"
	"ompsscluster/internal/expander"
	"ompsscluster/internal/nanos"
	"ompsscluster/internal/obs"
	"ompsscluster/internal/simtime"
)

// Apprank is one application rank: a home worker plus helper workers on
// the nodes adjacent in its application's expander graph, a task
// dependency graph, and a central ready queue for tasks that no worker
// can accept yet.
type Apprank struct {
	rt        *ClusterRuntime
	id        int // global id across all co-scheduled applications
	localRank int // rank within the owning application
	appIdx    int // owning application index
	home      int
	// env is the runtime's event environment, which the apprank's rank
	// process, graph callbacks and chunk pump schedule on.
	env          *simtime.Env
	finishedAt   simtime.Time // when this rank's main (or abort) completed
	workers      []*Worker    // workers[0] is the home worker
	graph        *nanos.TaskGraph
	queue        taskFIFO      // centrally held ready tasks (§5.5)
	allocNext    uint64        // bump allocator for the apprank's address space
	offloaded    int64         // tasks started away from home
	pendingWaits []pendingWait // taskwait-on sentinels
	locBuf       *nanos.LocVec // reusable location vector for the hot scheduling path
	taskChunk    []nanos.Task  // unused tail of the current task chunk (newTask)

	// Fault-plan state (nil/zero on fault-free runs).
	proc         *simtime.Proc // the rank's main process, for crash kill
	aborted      bool          // application aborted by a node crash
	finishedMain bool          // main returned (its implicit taskwait passed)
	stalled      bool          // dispatch frozen by a stall fault
	offRecs      []*offloadRec // offload records in placement order
	offByTask    map[*nanos.Task]*offloadRec

	// Self-scheduling state (nil/zero unless Config.SelfSched is set).
	chunks     *balance.ChunkServer
	pumpQueued bool   // a pump pass is already scheduled at the current time
	pumpFn     func() // deduplicated pump callback, allocated once
}

func newApprank(rt *ClusterRuntime, id, localRank, appIdx int, g *expander.Graph) *Apprank {
	a := &Apprank{
		rt:        rt,
		id:        id,
		localRank: localRank,
		appIdx:    appIdx,
		home:      g.Home(localRank),
		env:       rt.env,
		allocNext: 1 << 12,
		locBuf:    nanos.NewLocVec(rt.cfg.Machine.NumNodes()),
	}
	for _, n := range g.Neighbors(localRank) {
		ns := rt.nodes[n]
		w := &Worker{app: a, ns: ns, wid: ns.arb.AddWorker()}
		ns.workers = append(ns.workers, w)
		a.workers = append(a.workers, w)
		rt.cfg.Obs.RegisterWorker(ns.id, int(w.wid), a.id)
	}
	a.graph = nanos.NewTaskGraph(a.onReady)
	a.graph.SetObs(rt.cfg.Obs, a.id)
	return a
}

// taskChunkSize is the number of task records carved from one
// allocation (8 records of 128 bytes, 1 KiB). One referenced task keeps
// its whole chunk alive, so chunks retain memory: on the Figure 8 sweep
// the median peak live heap grew by about 1 MiB over one allocation per
// task with chunks of 8, and by 1.5-1.8 MiB with chunks of 16 or 32.
// Peak RSS follows the live heap times five under GOGC=400.
const taskChunkSize = 8

// newTask returns a zeroed task record from the apprank's current chunk,
// starting a new chunk when it is used up. Tasks submitted together sit
// next to each other in memory and one allocation serves taskChunkSize
// of them. A chunk stays allocated while any task in it is still
// referenced (by the registry, a successor list or a queue).
func (a *Apprank) newTask() *nanos.Task {
	if len(a.taskChunk) == 0 {
		a.taskChunk = make([]nanos.Task, taskChunkSize)
	}
	t := &a.taskChunk[0]
	a.taskChunk = a.taskChunk[1:]
	return t
}

// workerOn returns the apprank's worker on the given node, or nil.
func (a *Apprank) workerOn(node int) *Worker {
	for _, w := range a.workers {
		if w.ns.id == node {
			return w
		}
	}
	return nil
}

// onReady implements the tentative scheduling decision of §5.5: schedule
// to the locality-best worker if it holds fewer than TasksPerCore tasks
// per owned core; otherwise to the emptiest alternative under the
// threshold; otherwise hold centrally (tasks are then stolen as others
// complete).
func (a *Apprank) onReady(t *nanos.Task) {
	if a.aborted {
		return
	}
	if len(a.pendingWaits) > 0 && a.resolveWait(t) {
		return
	}
	if !t.Offloadable {
		// Non-offloadable tasks bind to the home worker immediately;
		// they must never sit in the central queue, which any worker
		// (including helpers) may steal from.
		a.assign(a.workers[0], t, a.dataLocation(t))
		return
	}
	if a.chunks != nil {
		// Self-scheduling: offloadable tasks park centrally and the
		// chunk pump grants them in policy-sized chunks.
		a.schedDecision(t, nil, nil, obs.SchedQueued)
		a.queue.Push(t)
		a.schedulePump()
		return
	}
	// One registry walk serves the whole decision: the locality choice
	// below and the transfer estimate inside assign both read loc.
	loc := a.dataLocation(t)
	best := a.localityBest(loc)
	if best.underThreshold() {
		a.schedDecision(t, best, loc, obs.SchedBest)
		a.assign(best, t, loc)
		return
	}
	var alt *Worker
	bestRatio := math.Inf(1)
	for _, w := range a.workers {
		if w == best || w.dead || !w.underThreshold() {
			continue
		}
		cap := w.capacity()
		if cap == 0 {
			continue
		}
		if r := float64(w.load()) / float64(cap); r < bestRatio {
			bestRatio, alt = r, w
		}
	}
	if alt != nil {
		a.schedDecision(t, alt, loc, obs.SchedAlt)
		a.assign(alt, t, loc)
		return
	}
	a.schedDecision(t, nil, loc, obs.SchedQueued)
	a.queue.Push(t)
}

// schedDecision reports one scheduler choice to the structured recorder:
// the candidate-set size (workers currently under the threshold), the
// winning worker's node, and the task input bytes already resident there.
// Gated on the recorder so the candidate count is never computed when
// tracing is off.
func (a *Apprank) schedDecision(t *nanos.Task, w *Worker, loc *nanos.LocVec, outcome int) {
	o := a.rt.cfg.Obs
	if o == nil {
		return
	}
	candidates := 0
	for _, cw := range a.workers {
		if cw.underThreshold() {
			candidates++
		}
	}
	node, bytes := -1, int64(0)
	if w != nil {
		node = w.ns.id
		bytes = loc.On(node)
	}
	o.SchedDecision(a.id, t.ID, node, candidates, bytes, outcome)
}

// dataLocation fills the apprank's reusable location vector for the
// task's input accesses, folding bytes of unknown location into the home
// node. The returned vector aliases a.locBuf: it is valid only until the
// next dataLocation call and must not be retained across events.
func (a *Apprank) dataLocation(t *nanos.Task) *nanos.LocVec {
	a.graph.DataLocationInto(t.Accesses, a.locBuf)
	a.locBuf.FoldUnknown(a.home)
	return a.locBuf
}

// localityBest picks the adjacent worker holding the most input bytes of
// the task per the location vector (unknown bytes already folded home).
func (a *Apprank) localityBest(loc *nanos.LocVec) *Worker {
	best := a.workers[0]
	bestBytes := loc.On(a.home)
	for _, w := range a.workers[1:] {
		if w.dead {
			continue
		}
		if b := loc.On(w.ns.id); b > bestBytes {
			best, bestBytes = w, b
		}
	}
	return best
}

// transferDelay estimates the time to stage the task's input data on the
// target node: parallel transfers from each holding node, so the maximum
// single-source transfer time. It walks only the nodes holding bytes
// (max and sum do not depend on their order). It is a pure estimator —
// speculative callers are safe; the moved bytes are accounted by assign,
// the commit point.
func (a *Apprank) transferDelay(loc *nanos.LocVec, target int) (delay, moved int64) {
	for _, n := range loc.Nodes() {
		node := int(n)
		if node == target {
			continue
		}
		bytes := loc.On(node)
		moved += bytes
		if d := int64(a.rt.cfg.Machine.Net.TransferTime(node, target, bytes)); d > delay {
			delay = d
		}
	}
	return delay, moved
}

// assign hands a ready task to a worker. Offloading (and pulling remote
// input data) costs a control message plus the data transfer; the task
// becomes runnable at the worker when everything has arrived. Offload is
// final: the task will execute on that worker's node (§5.5). loc is the
// task's current location vector (from dataLocation); the transfer stats
// are accounted here, when the placement is committed.
func (a *Apprank) assign(w *Worker, t *nanos.Task, loc *nanos.LocVec) {
	rt := a.rt
	dataDelay, moved := a.transferDelay(loc, w.ns.id)
	rt.cfg.Obs.TaskScheduled(a.id, t.ID, w.ns.id, moved, simtimeDuration(dataDelay))
	if moved > 0 {
		rt.stats.BytesTransferred += moved
		rt.stats.Transfers++
	}
	if w.ns.id == a.home && dataDelay == 0 {
		if rt.flt != nil {
			// A task pulled back home (recovery's local fallback, or a
			// plain home assignment) no longer needs tracking.
			a.retireOffload(t)
		}
		w.enqueue(t)
		return
	}
	ctl := int64(rt.cfg.Machine.Net.TransferTime(a.home, w.ns.id, rt.cfg.CtlMsgBytes))
	w.inflight++
	if rt.flt != nil {
		a.dispatchOffload(w, t, simtimeDuration(ctl+dataDelay))
		return
	}
	w.ns.after(simtimeDuration(ctl+dataDelay), w.ns.getStage(w, t).fn)
}

// refillAll pulls centrally queued tasks into any worker below the
// threshold (after a DROM ownership change raises capacities).
func (a *Apprank) refillAll() {
	for _, w := range a.workers {
		a.refill(w)
	}
}

// refill lets worker w steal centrally queued tasks while it is under the
// scheduling threshold ("will be stolen as tasks complete", §5.5).
func (a *Apprank) refill(w *Worker) {
	if w.dead || a.aborted {
		return
	}
	if a.chunks != nil {
		// The chunk server owns the central queue: a completion raises
		// demand through the pump instead of direct stealing.
		a.schedulePump()
		return
	}
	for a.queue.Len() > 0 && w.underThreshold() {
		t := a.queue.Pop()
		a.assign(w, t, a.dataLocation(t))
	}
}

// borrowRefill lets a worker pull centrally queued tasks beyond the
// owned-core threshold when LeWI could run them on borrowed (currently
// idle) cores. The pull target counts the cores the worker is already
// using plus the node's idle cores, so it is aggressive enough to keep a
// stream of work on lent cores but bounded by what could start now —
// mirroring the paper's observation that borrowed-core usage stays under
// 100% because borrowed cores must not be taken for granted (§5.5).
func (a *Apprank) borrowRefill(w *Worker) {
	if a.chunks != nil {
		// Under self-scheduling only the chunk server hands out central
		// tasks; LeWI still lends idle cores to already-granted chunks
		// through the dispatcher's borrow pass.
		return
	}
	if a.queue.Len() == 0 || !w.ns.arb.LeWIEnabled() {
		return
	}
	target := w.running + w.ns.arb.IdleCores()
	if c := w.capacity(); c > target {
		target = c
	}
	for a.queue.Len() > 0 && w.load() < target {
		t := a.queue.Pop()
		a.assign(w, t, a.dataLocation(t))
	}
}

// finishTask runs at the apprank's home when a task completion becomes
// visible there, releasing successors in the dependency graph.
func (a *Apprank) finishTask(t *nanos.Task) {
	if a.rt.flt != nil {
		if a.aborted {
			return
		}
		a.retireOffload(t)
	}
	a.graph.Complete(t)
}

// waitOn submits a zero-work sentinel task whose readiness means every
// earlier task overlapping its accesses has completed; fn runs then. The
// sentinel never occupies a core: it completes the moment it becomes
// ready.
func (a *Apprank) waitOn(sentinel *nanos.Task, fn func()) {
	a.pendingWaits = append(a.pendingWaits, pendingWait{sentinel, fn})
	a.graph.Submit(sentinel)
}

// pendingWait pairs a sentinel task with its continuation.
type pendingWait struct {
	task *nanos.Task
	fn   func()
}

// resolveWait completes a ready sentinel immediately and runs its
// continuation; it reports whether t was a sentinel.
func (a *Apprank) resolveWait(t *nanos.Task) bool {
	for i, pw := range a.pendingWaits {
		if pw.task == t {
			a.pendingWaits = append(a.pendingWaits[:i], a.pendingWaits[i+1:]...)
			a.graph.MarkRunning(t, a.home)
			a.graph.Complete(t)
			pw.fn()
			return true
		}
	}
	return false
}
