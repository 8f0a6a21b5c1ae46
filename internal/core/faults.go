package core

import (
	"fmt"

	"ompsscluster/internal/faults"
	"ompsscluster/internal/nanos"
	"ompsscluster/internal/simtime"
)

// Runtime resilience under an injected fault plan. Everything in this
// file is reached only when Config.Faults is non-nil: a fault-free run
// schedules exactly the same events as a build without this file, so
// its figure outputs stay byte-identical.
//
// The recovery model follows the offloading design of §5.5: offload is
// normally final, but under a fault plan every offloaded task carries a
// completion deadline at its home apprank. When the deadline expires
// with the target dead, drained, or severely degraded — or when the
// target dies outright — the home apprank re-places the task on the
// next-best healthy helper from its locality vector, up to
// FaultRetryBudget times, and then falls back to executing locally.
// Work lost on a dying core re-enters the dependency graph via
// nanos.Reschedule, so a run never hangs and never loses tasks; a
// whole-node crash aborts the applications homed there with a typed
// AbortError while co-scheduled applications keep running.

// faultState is the per-runtime fault-plan context.
type faultState struct {
	plan     *faults.Plan
	links    *faults.Links
	ctlSeq   uint64 // per-runtime sequence for conditioning control traffic
	abortErr error
}

// AbortError reports that a node crash killed one or more applications
// (the MPI job abort of a real machine). Co-scheduled applications on
// surviving nodes run to completion; the runtime then surfaces this
// error instead of their result.
type AbortError struct {
	// Node is the crashed node.
	Node int
	// App names the first application aborted by the crash.
	App string
	// Time is the virtual time of the crash.
	Time simtime.Time
}

func (e *AbortError) Error() string {
	return fmt.Sprintf("core: node %d crashed at %v, application %q aborted", e.Node, e.Time, e.App)
}

// offloadRec tracks one offloaded task at its home apprank: where it
// went, which placement generation is current, and how many recovery
// attempts it has consumed. Records live in both a map (lookup by task)
// and an append-ordered slice (deterministic iteration — map order must
// never influence the schedule).
type offloadRec struct {
	t *nanos.Task
	w *Worker
	// gen is bumped on every (re)placement; in-flight arrival closures
	// and pending deadline checks capture it and no-op when stale.
	gen uint64
	// attempt counts recovery re-placements (0 = original placement).
	attempt int
	// arrived: control message and input data reached w, so the task
	// sits in w's runnable queue (or runs there).
	arrived bool
	// completedAt: the task finished executing at a remote worker and
	// the completion notification is travelling home. The work is done;
	// a subsequent worker death must not re-execute it.
	completedAt bool
	// done: the record is retired (task completed at home, or the task
	// was pulled back into the home-direct path).
	done bool
}

// armFaults validates and binds the configured plan and schedules its
// event edges. Called from finishConstruction once all appranks exist.
func (rt *ClusterRuntime) armFaults() error {
	p := rt.cfg.Faults.Bind(rt.cfg.Seed)
	if err := p.Validate(rt.cfg.Machine.NumNodes(), len(rt.appranks)); err != nil {
		return fmt.Errorf("core: fault plan: %w", err)
	}
	rt.flt = &faultState{plan: p, links: faults.NewLinks(p)}
	if rt.flt.links != nil {
		for _, st := range rt.apps {
			st.world.SetLinkFaults(rt.flt.links)
		}
	}
	for _, a := range rt.appranks {
		a.offByTask = make(map[*nanos.Task]*offloadRec)
	}
	faults.Arm(rt.env, p, rt.applyFault)
	return nil
}

// applyFault dispatches one fault-plan edge.
func (rt *ClusterRuntime) applyFault(idx int, ev faults.Event, phase faults.Phase) {
	if phase == faults.Inject {
		rt.injectFault(idx, ev)
	} else {
		rt.recoverFault(idx, ev)
	}
	rt.stats.FaultEvents++
	if rt.cfg.OnFault != nil {
		rt.cfg.OnFault(ev, phase)
	}
}

func (rt *ClusterRuntime) injectFault(idx int, ev faults.Event) {
	node, apprank := -1, -1
	switch ev.Kind {
	case faults.Slow:
		node = ev.Node
		m := rt.cfg.Machine
		// Multiplicative, so overlapping episodes compose and recovery
		// divides back out without stored state.
		m.SetSpeed(ev.Node, m.Node(ev.Node).Speed*ev.Speed)
	case faults.CoreLoss:
		node = ev.Node
		rt.loseCores(ev.Node, ev.Cores)
	case faults.Link:
		node = ev.Node // Links itself gates on the episode window
	case faults.Stall:
		apprank = ev.Apprank
		rt.appranks[ev.Apprank].stalled = true
	case faults.Crash:
		node = ev.Node
		rt.crashNode(ev.Node)
	case faults.Drain:
		node = ev.Node
		rt.drainNode(ev.Node)
	}
	rt.cfg.Obs.FaultInject(idx, string(ev.Kind), node, apprank, simtime.Time(ev.Until), int64(ev.Cores), 0)
}

func (rt *ClusterRuntime) recoverFault(idx int, ev faults.Event) {
	node, apprank := -1, -1
	switch ev.Kind {
	case faults.Slow:
		node = ev.Node
		m := rt.cfg.Machine
		m.SetSpeed(ev.Node, m.Node(ev.Node).Speed/ev.Speed)
	case faults.Link:
		node = ev.Node
	case faults.Stall:
		apprank = ev.Apprank
		a := rt.appranks[ev.Apprank]
		a.stalled = false
		if !a.aborted {
			a.refillAll()
			for _, w := range a.workers {
				if !w.dead {
					w.ns.scheduleDispatch()
				}
			}
		}
	}
	rt.cfg.Obs.FaultRecover(idx, string(ev.Kind), node, apprank)
}

// loseCores permanently removes k cores from a node (hardware fault,
// thermal offlining). Ownership is revoked from the workers with the
// most idle owned cores first — lent cores go before busy ones — while
// keeping every worker's one-core floor. Tasks already running are
// unaffected (the failed cores are the idle ones); the node simply
// dispatches less from now on.
func (rt *ClusterRuntime) loseCores(node, k int) {
	ns := rt.nodes[node]
	if ns.dead {
		return
	}
	cores := ns.arb.Cores()
	floor := len(ns.workers)
	if floor < 1 {
		floor = 1
	}
	if cores-k < floor {
		k = cores - floor
	}
	if k <= 0 {
		return
	}
	owned := ns.arb.OwnedAll()
	for i := 0; i < k; i++ {
		best, bestIdle := -1, 0
		for wi := range owned {
			if owned[wi] <= 1 {
				continue // keep the floor (dead workers own 0 and are skipped)
			}
			idle := owned[wi] - ns.arb.Running(ns.workers[wi].wid)
			if best == -1 || idle > bestIdle {
				best, bestIdle = wi, idle
			}
		}
		if best == -1 {
			return // nothing left above the floor
		}
		owned[best]--
	}
	rt.cfg.Machine.RemoveCores(node, k)
	ns.arb.SetCores(cores - k)
	ns.arb.SetOwned(owned)
}

// drainNode kills the helper workers on a node (the runtime daemon
// died; the node itself and the appranks homed on it keep running).
// Their queued, in-flight, and running offloaded tasks are re-placed by
// their home appranks.
func (rt *ClusterRuntime) drainNode(node int) {
	ns := rt.nodes[node]
	if ns.dead {
		return
	}
	for _, w := range ns.workers {
		if !w.isHome() && !w.dead {
			rt.killWorker(w)
		}
	}
}

// crashNode models a whole node dying: every application with an
// apprank homed on it aborts (MPI semantics: losing a rank kills the
// job), surviving applications lose their helper workers there, and the
// node's arbiter shuts down.
func (rt *ClusterRuntime) crashNode(node int) {
	ns := rt.nodes[node]
	if ns.dead {
		return
	}
	for _, st := range rt.apps {
		for _, a := range st.ranks {
			if a.home == node && !a.aborted {
				rt.abortApp(st, node)
				break
			}
		}
	}
	for _, w := range ns.workers {
		if !w.dead {
			rt.killWorker(w)
		}
	}
	ns.dead = true
	ns.arb.Shutdown()
}

// abortApp tears one application down after a crash killed one of its
// home nodes: every rank process is killed, every worker (on every
// node) is retired with its running tasks force-finished, and the
// typed AbortError is recorded for finishRun.
func (rt *ClusterRuntime) abortApp(st *appState, node int) {
	now := rt.env.Now()
	if rt.flt.abortErr == nil {
		rt.flt.abortErr = &AbortError{Node: node, App: st.spec.Name, Time: now}
	}
	for _, a := range st.ranks {
		if a.aborted {
			continue
		}
		a.aborted = true
		a.stalled = false
		if !a.finishedMain && a.proc != nil {
			a.proc.Kill()
			a.finishedAt = now
			rt.activeApps--
		}
		a.queue.Clear()
		for _, w := range a.workers {
			if w.dead {
				continue
			}
			w.dead = true
			w.epoch++
			for w.running > 0 {
				w.ns.arb.Finish(w.wid, now)
				w.running--
			}
			w.queued.Clear()
			retireWorkerOwnership(w.ns, w)
		}
	}
}

// killWorker retires one worker whose node-side runtime died. Running
// tasks are force-finished at the arbiter (the core died under them)
// and re-enter the dependency graph; queued and in-flight offloads are
// re-placed immediately. Tasks that had already completed — with the
// completion notification still travelling home — stay completed.
func (rt *ClusterRuntime) killWorker(w *Worker) {
	now := rt.env.Now()
	w.dead = true
	w.epoch++ // pending completion closures become stale
	a := w.app
	for _, rec := range a.offRecs {
		if rec.done || rec.w != w || rec.completedAt {
			continue
		}
		t := rec.t
		if t.State() == nanos.Running {
			w.ns.arb.Finish(w.wid, now)
			w.running--
			rt.cfg.Obs.ExecEnd(w.ns.id, a.id, t.ID, int(w.wid), t.Label)
			a.graph.Reschedule(t)
		}
		a.reoffload(rec)
	}
	w.queued.Clear()
	retireWorkerOwnership(w.ns, w)
}

// retireWorkerOwnership hands a dead worker's owned cores to the live
// worker on the node owning the fewest, so the arbiter's per-node
// conservation (sum owned == cores) holds without counting the dead.
// With no live worker left the stale ownership stays: the node idles
// and the policies skip it.
func retireWorkerOwnership(ns *nodeState, w *Worker) {
	owned := ns.arb.OwnedAll()
	freed := owned[int(w.wid)]
	if freed == 0 {
		return
	}
	target := -1
	for _, ww := range ns.workers {
		if ww.dead || ww == w {
			continue
		}
		if target == -1 || owned[int(ww.wid)] < owned[target] {
			target = int(ww.wid)
		}
	}
	if target == -1 {
		return
	}
	owned[int(w.wid)] = 0
	owned[target] += freed
	ns.arb.SetOwned(owned)
}

// liveWorkers counts non-dead workers on the node.
func (ns *nodeState) liveWorkers() int {
	n := 0
	for _, w := range ns.workers {
		if !w.dead {
			n++
		}
	}
	return n
}

// degraded reports whether a target node is so much slower than the
// apprank's home that waiting out the deadline there is worse than
// re-placing (the paper's slow-node scenario taken to the extreme).
func (rt *ClusterRuntime) degraded(node, home int) bool {
	m := rt.cfg.Machine
	return m.Node(node).Speed < 0.5*m.Node(home).Speed
}

// nextCtlSeq returns a fresh sequence number for link-conditioning one
// control transfer.
func (f *faultState) nextCtlSeq() uint64 {
	s := f.ctlSeq
	f.ctlSeq++
	return s
}

// scheduleLinked schedules fn after the base delay d from node a to
// node b, applying link-fault conditioning: episode delay and jitter
// stretch the transfer; a drop consumes one attempt and resends with
// exponential backoff. Transfers abandoned after the attempt budget
// leave the receiver to the deadline/deadlock machinery.
func (rt *ClusterRuntime) scheduleLinked(from, to int, d simtime.Duration, fn func()) {
	links := rt.flt.links
	if links == nil || from == to {
		rt.env.Schedule(d, fn)
		return
	}
	rt.linkedAttempt(from, to, d, rt.flt.nextCtlSeq(), 0, fn)
}

func (rt *ClusterRuntime) linkedAttempt(from, to int, d simtime.Duration, seq uint64, attempt int, fn func()) {
	links := rt.flt.links
	extra, drop := links.Condition(rt.env.Now(), from, to, seq, attempt)
	if drop {
		rt.cfg.Obs.MsgDrop(-1, from, to, attempt)
		if attempt+1 >= links.MaxAttempts() {
			return
		}
		rt.env.Schedule(d+extra+links.BackoffDelay(attempt+1), func() {
			rt.linkedAttempt(from, to, d, seq, attempt+1, fn)
		})
		return
	}
	rt.env.Schedule(d+extra, fn)
}

// --- Offload tracking at the home apprank ---------------------------

// dispatchOffload (fault-plan runs only) records or re-records the
// placement of an offloaded task, schedules the link-conditioned
// transfer, and arms the completion deadline. Mirrors the untracked
// Schedule in assign.
func (a *Apprank) dispatchOffload(w *Worker, t *nanos.Task, d simtime.Duration) {
	rec := a.offByTask[t]
	if rec == nil {
		rec = &offloadRec{t: t}
		a.offByTask[t] = rec
		a.offRecs = append(a.offRecs, rec)
	}
	rec.gen++
	rec.w = w
	rec.arrived = false
	gen := rec.gen
	rt := a.rt
	rt.scheduleLinked(a.home, w.ns.id, d, func() {
		w.inflight--
		if rec.done || rec.gen != gen || a.aborted {
			return // superseded by a re-placement or an abort
		}
		rec.arrived = true
		w.enqueue(t)
	})
	a.armDeadline(rec)
}

// retireOffload drops the tracking record of a task that completed (or
// was pulled back into the home-direct path). The slice entry is
// compacted lazily.
func (a *Apprank) retireOffload(t *nanos.Task) {
	rec := a.offByTask[t]
	if rec == nil {
		return
	}
	rec.done = true
	delete(a.offByTask, t)
	if len(a.offRecs) >= 64 && len(a.offByTask) < len(a.offRecs)/2 {
		live := a.offRecs[:0]
		for _, r := range a.offRecs {
			if !r.done {
				live = append(live, r)
			}
		}
		clear(a.offRecs[len(live):])
		a.offRecs = live
	}
}

// deadlineFor derives the completion deadline of one offloaded task:
// generous enough that a healthy run never trips it, tight enough that
// a lost task is recovered well before the deadlock horizon.
func (a *Apprank) deadlineFor(t *nanos.Task) simtime.Duration {
	if d := a.rt.cfg.OffloadDeadline; d > 0 {
		return d
	}
	return 50*simtime.Millisecond + 8*(t.Work+a.rt.cfg.OverheadFixed)
}

func (a *Apprank) armDeadline(rec *offloadRec) {
	gen := rec.gen
	a.rt.env.Schedule(a.deadlineFor(rec.t), func() { a.checkDeadline(rec, gen) })
}

// checkDeadline is the health check behind the deadline: it never
// preempts — a task observed running on a live worker just gets more
// time — but a task stuck queued or in flight at a dead, drained, or
// severely degraded target is re-placed.
func (a *Apprank) checkDeadline(rec *offloadRec, gen uint64) {
	if rec.done || rec.gen != gen || a.aborted {
		return
	}
	w := rec.w
	switch {
	case rec.completedAt:
		// Finished remotely; the completion notification is in flight.
	case rec.t.State() == nanos.Running:
		if !w.dead {
			a.armDeadline(rec)
		}
	case w.dead || w.ns.dead || a.rt.degraded(w.ns.id, a.home):
		a.reoffload(rec)
	default:
		a.armDeadline(rec)
	}
}

// reoffload re-places one offloaded task after its target died or timed
// out, consuming one attempt of the retry budget.
func (a *Apprank) reoffload(rec *offloadRec) {
	t := rec.t
	old := rec.w
	if rec.arrived {
		old.queued.Remove(t)
	}
	rec.attempt++
	loc := a.dataLocation(t)
	nw := a.pickHealthy(loc, rec.attempt)
	a.rt.stats.Reoffloads++
	a.rt.cfg.Obs.Reoffload(a.id, t.ID, old.ns.id, nw.ns.id, rec.attempt, nw == a.workers[0])
	a.assign(nw, t, loc)
}

// pickHealthy chooses the recovery target: the locality-best healthy
// helper under the scheduling threshold, then any healthy helper, and —
// once the retry budget is spent or no helper survives — the home
// worker, which can always execute the task locally.
func (a *Apprank) pickHealthy(loc *nanos.LocVec, attempt int) *Worker {
	home := a.workers[0]
	if attempt > a.rt.cfg.FaultRetryBudget {
		return home
	}
	var best *Worker
	bestBytes := int64(-1)
	for _, w := range a.workers[1:] {
		if w.dead || w.ns.dead || a.rt.degraded(w.ns.id, a.home) || !w.underThreshold() {
			continue
		}
		if b := loc.On(w.ns.id); b > bestBytes {
			best, bestBytes = w, b
		}
	}
	if best != nil {
		return best
	}
	for _, w := range a.workers[1:] {
		if !w.dead && !w.ns.dead {
			return w
		}
	}
	return home
}

// markCompletedRemote flags the task's record when it finishes
// executing at a helper, before the completion notification travels
// home: from here on the work must not be re-executed.
func (a *Apprank) markCompletedRemote(t *nanos.Task) {
	if rec := a.offByTask[t]; rec != nil {
		rec.completedAt = true
	}
}
