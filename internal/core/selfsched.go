package core

import (
	"ompsscluster/internal/balance"
)

// Self-scheduling integration: when Config.SelfSched names a policy,
// each apprank owns a balance.ChunkServer and its central queue switches
// roles — instead of a spill-over buffer the reactive scheduler steals
// from, it becomes the loop the chunk server grants from. Ready
// offloadable tasks park there, and a deduplicated "pump" (mirroring the
// node dispatcher's scheduleDispatch pattern) grants policy-sized chunks
// to workers with demand. Because task submission is instantaneous in
// virtual time, all of an iteration's submits land at one timestamp and
// the pump sees the whole loop at once; completions raise demand again
// through refill. Under the two-level policy the runtime keeps LeWI
// below: a granted chunk beyond the worker's owned cores runs on idle
// cores the node lends through the dispatcher's borrow pass.

// installSelfSched builds one chunk server per apprank. It runs after
// installInitialOwnership so ownership-derived weights see the §5.4
// initial split. Weights are per-worker relative capacities:
//
//   - two-level: the worker's even share of its node's cores x speed
//     (optimistic — LeWI below makes idle node capacity reachable);
//   - every other policy: the worker's owned cores x node speed, so
//     weighted static chunking and WF respect both heterogeneity and
//     the one-core helper floor.
//
// Weights are a construction-time snapshot: mid-run speed faults or
// DROM changes do not re-weight the server (the demand side — who asks
// when — still reacts to them).
func (rt *ClusterRuntime) installSelfSched() {
	kind := rt.cfg.SelfSched
	for _, a := range rt.appranks {
		a := a
		weights := make([]float64, len(a.workers))
		for i, w := range a.workers {
			n := rt.cfg.Machine.Node(w.ns.id)
			if kind == balance.SelfSchedTwoLevel {
				weights[i] = n.Speed * float64(n.Cores) / float64(len(w.ns.workers))
			} else {
				weights[i] = n.Speed * float64(w.owned())
			}
		}
		a.chunks = balance.NewChunkServer(kind, weights)
		a.pumpFn = func() {
			a.pumpQueued = false
			a.pump()
		}
	}
}

// schedulePump arranges a chunk-grant pass for the apprank at the
// current time (deduplicated, so a submit burst or completion storm
// costs one pass).
func (a *Apprank) schedulePump() {
	if a.pumpQueued || a.aborted {
		return
	}
	a.pumpQueued = true
	a.env.At(a.env.Now(), a.pumpFn)
}

// chunkDemand reports whether a worker should receive another chunk: it
// holds fewer tasks than owned cores (some owned core would otherwise
// idle). The two-level policy also counts the node's currently idle
// cores — capacity LeWI can lend the chunk underneath.
func (a *Apprank) chunkDemand(w *Worker) bool {
	d := w.owned()
	if a.chunks.Kind() == balance.SelfSchedTwoLevel {
		d += w.ns.arb.IdleCores()
	}
	return w.load() < d
}

// pump is the chunk-server grant cycle: begin a new loop if tasks
// arrived since the last one drained, then grant chunks to workers with
// demand (home worker first, then helpers in graph order) until demand
// or tasks run out. Each granted task goes through the normal assign
// path, so offload control messages, data staging, and fault tracking
// are identical to the reactive scheduler's.
func (a *Apprank) pump() {
	if a.aborted || a.queue.Len() == 0 {
		return
	}
	cs := a.chunks
	if a.queue.Len() > cs.Remaining() {
		// New ready tasks beyond the current loop's remainder (a fresh
		// iteration, or recovery re-parks): restart the loop over
		// everything currently held. Grants keep queue length and the
		// server's remainder in lockstep, so this fires exactly at loop
		// boundaries on the steady path.
		cs.BeginLoop(a.queue.Len())
	}
	for granted := true; granted && a.queue.Len() > 0; {
		granted = false
		for i, w := range a.workers {
			if a.queue.Len() == 0 {
				break
			}
			if w.dead || !a.chunkDemand(w) {
				continue
			}
			k := cs.Grant(i)
			if k > a.queue.Len() {
				k = a.queue.Len()
			}
			if k == 0 {
				continue
			}
			for j := 0; j < k; j++ {
				t := a.queue.Pop()
				a.assign(w, t, a.dataLocation(t))
			}
			a.rt.stats.ChunkGrants++
			a.rt.cfg.Obs.ChunkGrant(a.id, w.ns.id, int(w.wid), k, cs.Remaining(), int(cs.Kind()))
			granted = true
		}
	}
}
