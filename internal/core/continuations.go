package core

import "ompsscluster/internal/nanos"

// The runtime's hottest per-task callbacks — task completion on a worker,
// the arrival of an offload's staged input data, and the completion
// notification releasing successors at the apprank's home — are explicit
// continuation records drawn from per-node free lists instead of fresh
// closures, which would cost one or two heap allocations per task
// execution. Each record is armed with its (worker, task) state, handed
// to the event engine as a pre-bound func, fired exactly once, and then
// recycled. The engine sees one event per record, at the same call site,
// delay and (time, seq) key a closure would have.
//
// Recycling is safe because a record is returned to its free list only
// from inside its own fire method: an armed record is referenced by
// exactly one pending event and can never be aliased. A record whose
// event never fires (a ctl message abandoned by a link-fault plan) is
// simply never recycled and falls to the garbage collector with the rest
// of the run.

// execRec is one in-flight task execution on a worker: the continuation
// that completes the task after its modelled execution time. The worker
// epoch is stamped at arming, as in the closure it replaced: if the
// worker died mid-task (crash or drain), recovery has already
// force-finished and re-placed the task and the record must no-op.
type execRec struct {
	w     *Worker
	t     *nanos.Task
	epoch uint64
	fn    func() // pre-bound fire, allocated once per record
}

func (ns *nodeState) getExec(w *Worker, t *nanos.Task) *execRec {
	var r *execRec
	if n := len(ns.freeExec); n > 0 {
		r, ns.freeExec = ns.freeExec[n-1], ns.freeExec[:n-1]
	} else {
		r = &execRec{}
		r.fn = r.fire
	}
	r.w, r.t, r.epoch = w, t, w.epoch
	return r
}

func (r *execRec) fire() {
	w, t := r.w, r.t
	stale := w.epoch != r.epoch
	r.w, r.t = nil, nil
	w.ns.freeExec = append(w.ns.freeExec, r)
	if stale {
		return
	}
	w.complete(t)
}

// stageRec is one offload staging in flight: the continuation that makes
// the task runnable at the target worker once the control message and
// input data have arrived. Used on fault-free runs only; fault plans
// route offloads through dispatchOffload's tracked records instead.
type stageRec struct {
	w  *Worker
	t  *nanos.Task
	fn func()
}

func (ns *nodeState) getStage(w *Worker, t *nanos.Task) *stageRec {
	var r *stageRec
	if n := len(ns.freeStage); n > 0 {
		r, ns.freeStage = ns.freeStage[n-1], ns.freeStage[:n-1]
	} else {
		r = &stageRec{}
		r.fn = r.fire
	}
	r.w, r.t = w, t
	return r
}

func (r *stageRec) fire() {
	w, t := r.w, r.t
	r.w, r.t = nil, nil
	w.ns.freeStage = append(w.ns.freeStage, r)
	w.inflight--
	w.enqueue(t)
}

// finishRec is one completion notification travelling home: the
// continuation that releases the task's successors in the dependency
// graph when the ctl message arrives at the apprank's home node. Under a
// link-fault plan the message may be dropped, in which case the record
// is abandoned unfired (the deadline machinery re-places the work).
type finishRec struct {
	a  *Apprank
	t  *nanos.Task
	fn func()
}

func (ns *nodeState) getFinish(a *Apprank, t *nanos.Task) *finishRec {
	var r *finishRec
	if n := len(ns.freeFinish); n > 0 {
		r, ns.freeFinish = ns.freeFinish[n-1], ns.freeFinish[:n-1]
	} else {
		r = &finishRec{}
		r.fn = r.fire
	}
	r.a, r.t = a, t
	return r
}

func (r *finishRec) fire() {
	a, t := r.a, r.t
	r.a, r.t = nil, nil
	a.rt.nodes[a.home].freeFinish = append(a.rt.nodes[a.home].freeFinish, r)
	a.finishTask(t)
}
