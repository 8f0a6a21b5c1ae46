package core

import (
	"fmt"

	"ompsscluster/internal/simtime"
)

// Dynamic work spreading (§5.2, "Dynamic work spreading"): instead of a
// static expander graph fixed at start-up, helper workers are spawned at
// runtime where the load requires them. The paper describes this as the
// natural extension of its design — it removes the offloading-degree
// parameter and avoids reserving helper cores that may never be used —
// but leaves it unimplemented, expecting the benefit "would likely not be
// sufficient to compensate for the extra implementation and evaluation
// complexity". This implementation lets the ablation test that claim.
//
// The growth policy is deliberately simple and local, in the spirit of
// §5.4.1: every GrowPeriod, an apprank whose central ready queue has
// stayed non-empty (smoothed pressure above GrowPressure) while all of
// its current workers' capacity is saturated gains one helper on the
// node with the most idle capacity that it does not use yet. Shrinking
// never happens: as in the static design, offload targets are stable and
// an unused helper costs one core (its DROM floor), which LeWI lends
// back while idle.

// DynamicConfig tunes dynamic work spreading.
type DynamicConfig struct {
	// Enabled turns the feature on. The static Degree (usually 1) seeds
	// the initial graph.
	Enabled bool
	// MaxDegree caps the number of nodes an apprank may spread over
	// (0 = number of nodes).
	MaxDegree int
	// GrowPeriod is how often growth decisions are made (default: the
	// policy period of the configured DROM mode, or 100ms).
	GrowPeriod simtime.Duration
	// GrowPressure is the smoothed queue-pressure threshold (tasks per
	// owned core held in the central queue) above which an apprank asks
	// for a new helper. Default 1.0.
	GrowPressure float64
}

// dynamicState tracks per-apprank queue pressure.
type dynamicState struct {
	pressure []float64 // smoothed central-queue tasks per owned core
	grown    int
}

// installDynamicSpreading arms the periodic grower.
func (rt *ClusterRuntime) installDynamicSpreading() {
	cfg := rt.cfg.Dynamic
	period := cfg.GrowPeriod
	if period == 0 {
		switch rt.cfg.DROM {
		case DROMGlobal:
			period = rt.cfg.GlobalPeriod
		default:
			period = rt.cfg.LocalPeriod
		}
	}
	rt.dyn = &dynamicState{pressure: make([]float64, len(rt.appranks))}
	rt.env.Periodic(period, period, func() bool {
		rt.growStep()
		return rt.activeApps > 0 || !rt.started
	})
}

// growStep updates pressures and spawns at most one helper per apprank.
func (rt *ClusterRuntime) growStep() {
	cfg := rt.cfg.Dynamic
	maxDeg := cfg.MaxDegree
	if maxDeg <= 0 || maxDeg > len(rt.nodes) {
		maxDeg = len(rt.nodes)
	}
	threshold := cfg.GrowPressure
	if threshold == 0 {
		threshold = 1.0
	}
	for _, a := range rt.appranks {
		if a.aborted || a.stalled {
			continue
		}
		owned := 0
		totalLoad := a.queue.Len()
		totalCap := 0
		for _, w := range a.workers {
			owned += w.owned()
			totalLoad += w.load()
			totalCap += w.capacity()
		}
		if owned == 0 {
			owned = 1
		}
		// Backlog beyond what the current workers may be assigned: the
		// demand signal that a static graph cannot absorb.
		p := float64(totalLoad-totalCap) / float64(owned)
		if p < 0 {
			p = 0
		}
		st := rt.dyn
		st.pressure[a.id] = 0.5*p + 0.5*st.pressure[a.id]
		if st.pressure[a.id] < threshold || len(a.workers) >= maxDeg {
			continue
		}
		// Saturation check: a queue can be non-empty transiently; only
		// grow when every current worker is at its threshold.
		saturated := true
		for _, w := range a.workers {
			if w.underThreshold() {
				saturated = false
				break
			}
		}
		if !saturated {
			continue
		}
		if node := rt.bestGrowthNode(a); node >= 0 {
			rt.addHelper(a, node)
			st.grown++
			st.pressure[a.id] = 0
		}
	}
}

// bestGrowthNode picks the node with the most idle cores among nodes the
// apprank does not use yet and that can still host another worker.
func (rt *ClusterRuntime) bestGrowthNode(a *Apprank) int {
	best, bestIdle := -1, -1
	for _, ns := range rt.nodes {
		if ns.dead || a.workerOn(ns.id) != nil {
			continue
		}
		if len(ns.workers) >= ns.arb.Cores() {
			continue // every worker needs a one-core floor
		}
		if idle := ns.arb.IdleCores(); idle > bestIdle {
			best, bestIdle = ns.id, idle
		}
	}
	return best
}

// addHelper spawns a helper worker for apprank a on the given node at
// runtime. The worker starts with zero owned cores (the node's ownership
// is unchanged, so the arbiter's conservation invariant holds); the next
// DROM tick grants its floor, and with LeWI it can borrow idle cores
// immediately.
func (rt *ClusterRuntime) addHelper(a *Apprank, node int) *Worker {
	if a.workerOn(node) != nil {
		panic(fmt.Sprintf("core: apprank %d already has a worker on node %d", a.id, node))
	}
	ns := rt.nodes[node]
	w := &Worker{app: a, ns: ns, wid: ns.arb.AddWorker(), talp: rt.talp.Ref(a.id, node)}
	ns.workers = append(ns.workers, w)
	a.workers = append(a.workers, w)
	rt.cfg.Obs.RegisterWorker(node, int(w.wid), a.id)
	ns.arb.EmitOwnership()
	// Let it pull queued work right away (via LeWI borrow if any core
	// on the node is idle).
	a.refill(w)
	ns.scheduleDispatch()
	return w
}

// HelpersGrown reports how many helpers dynamic spreading has added.
func (rt *ClusterRuntime) HelpersGrown() int {
	if rt.dyn == nil {
		return 0
	}
	return rt.dyn.grown
}

// DegreeOf returns the current number of nodes apprank a can execute on.
func (rt *ClusterRuntime) DegreeOf(apprank int) int {
	return len(rt.appranks[apprank].workers)
}
