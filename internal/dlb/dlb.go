// Package dlb models the Dynamic Load Balancing library: per-node
// arbitration of CPU cores among the worker processes running on that
// node.
//
// Every core on a node is owned by exactly one worker (an apprank's main
// worker or a helper worker of a remote apprank). The arbiter enforces the
// paper's two mechanisms:
//
//   - LeWI (Lend When Idle, §5.3): a worker whose owned cores would
//     otherwise sit idle implicitly lends them; another worker with
//     runnable tasks may borrow any idle core. The owner reclaims at the
//     next task boundary — tasks are non-preemptive, so a reclaim takes
//     effect when the borrower's task finishes.
//
//   - DROM (Dynamic Resource Ownership Management, §5.4): ownership of
//     cores is reassigned at runtime via SetOwned; the running set adapts
//     at task boundaries.
//
// The arbiter also integrates per-worker busy-core time, which is the load
// measurement both allocation policies consume, and offers a TALP-style
// efficiency report.
//
// The arbiter holds no clock and schedules nothing; the distributed
// runtime (internal/core) calls it at task boundaries with the current
// virtual time.
package dlb

import (
	"fmt"

	"ompsscluster/internal/obs"
	"ompsscluster/internal/simtime"
)

// WorkerID identifies a worker registered with a NodeArbiter.
type WorkerID int

// workerState is the arbiter's view of one worker process.
type workerState struct {
	owned   int
	running int
	// busyIntegral accumulates running x elapsed in core-nanoseconds.
	busyIntegral float64
	lastUpdate   simtime.Time
	// markIntegral / markTime snapshot the integral for windowed
	// averages taken by the allocation policies.
	markIntegral float64
	markTime     simtime.Time
	// POP accounting integrals (core-nanoseconds), maintained only when
	// a clock is installed via SetClock. They use their own fold point
	// (popLast) so enabling POP cannot perturb busyIntegral's float
	// accumulation sequence, which feeds the allocation policies.
	ownedIntegral    float64 // owned x elapsed
	borrowedIntegral float64 // max(0, running-owned) x elapsed
	popLast          simtime.Time
}

// NodeArbiter arbitrates the cores of one node among its workers.
type NodeArbiter struct {
	node         int
	cores        int
	lewi         bool
	workers      []workerState
	totalRunning int
	// overbooked counts tasks still running on cores revoked by SetCores
	// (tasks are non-preemptive, so a core loss takes full effect only
	// as the running tasks drain at their boundaries).
	overbooked int
	obs        *obs.Recorder
	// clock timestamps ownership/capacity changes for the POP
	// integrals. Ownership changes arrive through SetOwned/SetCores/
	// Shutdown, which carry no time argument; a nil clock (the default)
	// disables the integrals entirely.
	clock       func() simtime.Time
	capIntegral float64 // cores x elapsed, core-nanoseconds
	capLast     simtime.Time
}

// SetObs attaches the structured event recorder. Ownership changes and
// LeWI borrow/return transitions are emitted through it; a nil recorder
// (the default) costs nothing.
func (a *NodeArbiter) SetObs(rec *obs.Recorder) { a.obs = rec }

// SetClock installs a virtual-time source and enables the POP
// accounting integrals (owned, borrowed, and capacity core-time). The
// arbiter itself holds no clock; ownership mutations (SetOwned,
// SetCores, Shutdown) carry no time argument because the legacy API
// treats them as instantaneous, so the POP integrals read the runtime's
// clock at those boundaries instead.
func (a *NodeArbiter) SetClock(fn func() simtime.Time) { a.clock = fn }

// NewNodeArbiter creates an arbiter for a node with the given core count.
// lewi enables borrowing of idle cores.
func NewNodeArbiter(node, cores int, lewi bool) *NodeArbiter {
	if cores <= 0 {
		panic(fmt.Sprintf("dlb: node %d with %d cores", node, cores))
	}
	return &NodeArbiter{node: node, cores: cores, lewi: lewi}
}

// Node returns the node id.
func (a *NodeArbiter) Node() int { return a.node }

// Cores returns the number of physical cores on the node.
func (a *NodeArbiter) Cores() int { return a.cores }

// LeWIEnabled reports whether borrowing is enabled.
func (a *NodeArbiter) LeWIEnabled() bool { return a.lewi }

// NumWorkers returns the number of registered workers.
func (a *NodeArbiter) NumWorkers() int { return len(a.workers) }

// AddWorker registers a worker with zero initial ownership; call SetOwned
// once all workers are registered.
func (a *NodeArbiter) AddWorker() WorkerID {
	a.workers = append(a.workers, workerState{})
	return WorkerID(len(a.workers) - 1)
}

// SetOwned installs a DROM ownership assignment. The values must be
// non-negative and sum to the node's core count; every worker should own
// at least one core under the paper's policies, but the arbiter does not
// enforce that (the policies do).
func (a *NodeArbiter) SetOwned(owned []int) {
	if len(owned) != len(a.workers) {
		panic(fmt.Sprintf("dlb: SetOwned with %d entries for %d workers", len(owned), len(a.workers)))
	}
	sum := 0
	for _, o := range owned {
		if o < 0 {
			panic(fmt.Sprintf("dlb: negative ownership %d", o))
		}
		sum += o
	}
	if sum != a.cores {
		panic(fmt.Sprintf("dlb: ownership sums to %d, node has %d cores", sum, a.cores))
	}
	if a.clock != nil {
		a.popSyncAll(a.clock())
	}
	for i := range a.workers {
		old := a.workers[i].owned
		a.workers[i].owned = owned[i]
		a.obs.OwnershipSet(a.node, i, old, owned[i])
	}
}

// SetCores shrinks the node's physical core count after a fault removes
// cores (growth is not modelled). Tasks already running on revoked
// cores are not preempted; they are accounted as overbooked and the
// excess drains at task boundaries (Finish). The caller must follow up
// with SetOwned so ownership sums to the new core count.
func (a *NodeArbiter) SetCores(cores int) {
	if cores < 0 || cores > a.cores {
		panic(fmt.Sprintf("dlb: SetCores %d on node %d with %d cores (shrink only)", cores, a.node, a.cores))
	}
	if a.clock != nil {
		a.capSync(a.clock())
	}
	a.cores = cores
	if over := a.totalRunning - a.cores; over > a.overbooked {
		a.overbooked = over
	}
}

// Shutdown retires the node entirely: zero cores, zero ownership. The
// caller must have drained all running tasks first. A dead node's
// invariants hold trivially (sums of zero), so fleet-wide checks need
// no special case.
func (a *NodeArbiter) Shutdown() {
	if a.totalRunning != 0 {
		panic(fmt.Sprintf("dlb: shutdown of node %d with %d tasks running", a.node, a.totalRunning))
	}
	if a.clock != nil {
		now := a.clock()
		a.popSyncAll(now)
		a.capSync(now)
	}
	a.cores = 0
	a.overbooked = 0
	for i := range a.workers {
		old := a.workers[i].owned
		a.workers[i].owned = 0
		a.obs.OwnershipSet(a.node, i, old, 0)
	}
}

// EmitOwnership re-emits the current ownership of every worker as OwnSet
// events (old == new). The runtime calls it when the worker set changes
// without a reassignment — e.g. a dynamically grown helper joining with
// zero cores — so ownership timelines gain a sample for the new worker.
func (a *NodeArbiter) EmitOwnership() {
	if a.obs == nil {
		return
	}
	for i := range a.workers {
		a.obs.OwnershipSet(a.node, i, a.workers[i].owned, a.workers[i].owned)
	}
}

// Owned returns the cores currently owned by w.
func (a *NodeArbiter) Owned(w WorkerID) int { return a.workers[w].owned }

// OwnedAll returns a copy of the ownership vector.
func (a *NodeArbiter) OwnedAll() []int {
	out := make([]int, len(a.workers))
	for i := range a.workers {
		out[i] = a.workers[i].owned
	}
	return out
}

// Running returns the cores currently executing tasks of w.
func (a *NodeArbiter) Running(w WorkerID) int { return a.workers[w].running }

// TotalRunning returns the number of busy cores on the node.
func (a *NodeArbiter) TotalRunning() int { return a.totalRunning }

// IdleCores returns the number of idle cores on the node (zero while
// revoked cores are still draining their last tasks).
func (a *NodeArbiter) IdleCores() int {
	if idle := a.cores - a.totalRunning; idle > 0 {
		return idle
	}
	return 0
}

// CanStartOwned reports whether w may start a task on a core it owns: it
// is below its ownership and a physical core is free. (If it is below its
// ownership but all cores are busy, some other worker is over-borrowing;
// the reclaim happens at that worker's next task boundary.)
func (a *NodeArbiter) CanStartOwned(w WorkerID) bool {
	return a.workers[w].running < a.workers[w].owned && a.totalRunning < a.cores
}

// CanBorrow reports whether w may start a task on a borrowed core under
// LeWI: borrowing is enabled and a physical core is idle. An idle core's
// owner by definition has nothing to run, which is exactly the LeWI
// lending condition.
func (a *NodeArbiter) CanBorrow(w WorkerID) bool {
	return a.lewi && a.totalRunning < a.cores
}

// Start accounts a task start for w at virtual time now. The caller must
// have checked CanStartOwned or CanBorrow.
func (a *NodeArbiter) Start(w WorkerID, now simtime.Time) {
	if a.totalRunning >= a.cores {
		panic(fmt.Sprintf("dlb: node %d oversubscribed", a.node))
	}
	a.accumulate(w, now)
	if a.clock != nil {
		a.popSync(w, now)
	}
	a.workers[w].running++
	a.totalRunning++
	if ws := &a.workers[w]; ws.running > ws.owned {
		a.obs.CoreBorrow(a.node, int(w), ws.running)
	}
}

// Finish accounts a task completion for w at virtual time now.
func (a *NodeArbiter) Finish(w WorkerID, now simtime.Time) {
	if a.workers[w].running <= 0 {
		panic(fmt.Sprintf("dlb: node %d worker %d finish with nothing running", a.node, w))
	}
	a.accumulate(w, now)
	if a.clock != nil {
		a.popSync(w, now)
	}
	borrowed := a.workers[w].running > a.workers[w].owned
	a.workers[w].running--
	a.totalRunning--
	if a.overbooked > 0 {
		// A revoked core just freed up; the overbooking debt shrinks
		// toward whatever excess remains.
		if over := a.totalRunning - a.cores; over < 0 {
			a.overbooked = 0
		} else if over < a.overbooked {
			a.overbooked = over
		}
	}
	if borrowed {
		a.obs.CoreReturn(a.node, int(w), a.workers[w].running)
	}
}

// accumulate folds the busy integral forward to now.
func (a *NodeArbiter) accumulate(w WorkerID, now simtime.Time) {
	ws := &a.workers[w]
	if now > ws.lastUpdate {
		ws.busyIntegral += float64(ws.running) * float64(now-ws.lastUpdate)
		ws.lastUpdate = now
	}
}

// popSync folds w's POP integrals forward to now. Every fold point is a
// worker-local task boundary or a globally-timed ownership change, so
// the (dt, owned, running) sequence — and therefore the float sums —
// are identical across simulation engines.
func (a *NodeArbiter) popSync(w WorkerID, now simtime.Time) {
	ws := &a.workers[w]
	if now > ws.popLast {
		dt := float64(now - ws.popLast)
		ws.ownedIntegral += float64(ws.owned) * dt
		if b := ws.running - ws.owned; b > 0 {
			ws.borrowedIntegral += float64(b) * dt
		}
		ws.popLast = now
	}
}

// popSyncAll folds every worker's POP integrals to now (ownership is
// about to change for all of them).
func (a *NodeArbiter) popSyncAll(now simtime.Time) {
	for i := range a.workers {
		a.popSync(WorkerID(i), now)
	}
}

// capSync folds the node capacity integral to now.
func (a *NodeArbiter) capSync(now simtime.Time) {
	if now > a.capLast {
		a.capIntegral += float64(a.cores) * float64(now-a.capLast)
		a.capLast = now
	}
}

// WorkerPOP is the per-worker core-time breakdown (core-nanoseconds up
// to the fold time) used by the POP report builder.
type WorkerPOP struct {
	Busy     float64 // running cores x time
	Owned    float64 // owned cores x time
	Borrowed float64 // cores running above ownership x time
}

// WorkerPOPTotals folds w's integrals to now and returns them. Requires
// SetClock to have been active for the whole run; otherwise the owned
// and borrowed integrals are zero.
func (a *NodeArbiter) WorkerPOPTotals(w WorkerID, now simtime.Time) WorkerPOP {
	a.accumulate(w, now)
	a.popSync(w, now)
	ws := &a.workers[w]
	return WorkerPOP{Busy: ws.busyIntegral, Owned: ws.ownedIntegral, Borrowed: ws.borrowedIntegral}
}

// CapacityIntegral folds the node capacity integral to now and returns
// it (core-nanoseconds of physical core time, shrinking with SetCores
// and Shutdown).
func (a *NodeArbiter) CapacityIntegral(now simtime.Time) float64 {
	a.capSync(now)
	return a.capIntegral
}

// POPHorizon returns the latest fold point any of the node's integrals
// has reached. Trailing policy ticks can fold past the last apprank's
// finish time; the POP builder extends its horizon to the maximum so
// capacity and busy integrals cover identical spans.
func (a *NodeArbiter) POPHorizon() simtime.Time {
	h := a.capLast
	for i := range a.workers {
		if a.workers[i].popLast > h {
			h = a.workers[i].popLast
		}
		if a.workers[i].lastUpdate > h {
			h = a.workers[i].lastUpdate
		}
	}
	return h
}

// BusyIntegral returns w's accumulated busy time in core-nanoseconds up
// to now.
func (a *NodeArbiter) BusyIntegral(w WorkerID, now simtime.Time) float64 {
	a.accumulate(w, now)
	return a.workers[w].busyIntegral
}

// TakeBusyAverage returns the average number of busy cores of w since the
// previous call (or since the start), and restarts the window. This is
// the "average number of busy cores" measurement of §5.4.
func (a *NodeArbiter) TakeBusyAverage(w WorkerID, now simtime.Time) float64 {
	a.accumulate(w, now)
	ws := &a.workers[w]
	dt := now - ws.markTime
	if dt <= 0 {
		return float64(ws.running)
	}
	avg := (ws.busyIntegral - ws.markIntegral) / float64(dt)
	ws.markIntegral = ws.busyIntegral
	ws.markTime = now
	return avg
}

// PeekBusyAverage returns the average busy cores of w since the last
// TakeBusyAverage without restarting the window.
func (a *NodeArbiter) PeekBusyAverage(w WorkerID, now simtime.Time) float64 {
	a.accumulate(w, now)
	ws := &a.workers[w]
	dt := now - ws.markTime
	if dt <= 0 {
		return float64(ws.running)
	}
	return (ws.busyIntegral - ws.markIntegral) / float64(dt)
}

// CheckInvariants validates internal consistency; tests call it after
// event storms.
func (a *NodeArbiter) CheckInvariants() error {
	sumOwned, sumRunning := 0, 0
	for i, ws := range a.workers {
		if ws.running < 0 {
			return fmt.Errorf("dlb: worker %d negative running", i)
		}
		sumOwned += ws.owned
		sumRunning += ws.running
	}
	if sumRunning != a.totalRunning {
		return fmt.Errorf("dlb: running sum %d != total %d", sumRunning, a.totalRunning)
	}
	if a.totalRunning > a.cores+a.overbooked {
		return fmt.Errorf("dlb: node %d oversubscribed: %d running on %d cores (+%d overbooked)",
			a.node, a.totalRunning, a.cores, a.overbooked)
	}
	if sumOwned != a.cores && sumOwned != 0 {
		return fmt.Errorf("dlb: ownership sum %d != %d cores", sumOwned, a.cores)
	}
	return nil
}
