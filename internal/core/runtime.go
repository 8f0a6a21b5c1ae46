package core

import (
	"fmt"
	"time"

	"ompsscluster/internal/balance"
	"ompsscluster/internal/dlb"
	"ompsscluster/internal/expander"
	"ompsscluster/internal/metrics"
	"ompsscluster/internal/simmpi"
	"ompsscluster/internal/simtime"
)

// ClusterRuntime is one simulated execution of one or more
// MPI+OmpSs-2@Cluster applications with DLB load balancing.
type ClusterRuntime struct {
	cfg      Config
	env      *simtime.Env
	apps     []*appState
	appranks []*Apprank // all applications' ranks, by global id
	nodes    []*nodeState
	talp     *dlb.TALP

	// activeApps counts rank mains still running; policy ticks stop
	// rescheduling once it reaches zero.
	activeApps int
	started    bool
	finishedAt simtime.Time
	dyn        *dynamicState
	flt        *faultState // nil unless Config.Faults is set
	stats      RunStats
}

// RunStats aggregates runtime activity counters over a run.
type RunStats struct {
	// CtlMessages counts runtime control messages (offload commands and
	// completion notifications).
	CtlMessages int64
	// BytesTransferred counts task input bytes staged across nodes.
	BytesTransferred int64
	// Transfers counts cross-node data stagings.
	Transfers int64
	// PolicyRuns counts DROM policy invocations (per solver group).
	PolicyRuns int64
	// OwnershipChanges counts workers whose core ownership changed in a
	// policy application.
	OwnershipChanges int64
	// FaultEvents counts applied fault-plan edges (inject + recover).
	FaultEvents int64
	// Reoffloads counts recovery re-placements of offloaded tasks.
	Reoffloads int64
	// ChunkGrants counts self-scheduling chunk-server grants (one per
	// worker chunk, not per task).
	ChunkGrants int64
}

// nodeState groups the per-node runtime structures.
type nodeState struct {
	rt  *ClusterRuntime
	id  int
	arb *dlb.NodeArbiter
	// env is the runtime's event environment, which the node's hot
	// paths schedule on.
	env     *simtime.Env
	workers []*Worker
	rr      int  // round-robin start index for fairness in dispatch
	dead    bool // crashed by a fault plan
	queued  bool
	// dispatchFn is the deduplicated dispatch-pass callback, allocated
	// once here instead of per scheduleDispatch call.
	dispatchFn func()

	// Free lists for the hot-path continuation records (continuations.go).
	freeExec   []*execRec
	freeStage  []*stageRec
	freeFinish []*finishRec
}

// New builds a single-application runtime from the configuration. The
// expander graph, worker layout, arbiters, and initial core ownership are
// all established here, as in the paper all Nanos6 instances are
// initialized at start-up.
func New(cfg Config) (*ClusterRuntime, error) {
	rt, err := newRuntime(cfg)
	if err != nil {
		return nil, err
	}
	if err := rt.addApp(AppSpec{
		Name:         "app0",
		RanksPerNode: rt.cfg.AppranksPerNode,
		Degree:       rt.cfg.Degree,
	}); err != nil {
		return nil, err
	}
	if err := rt.finishConstruction(); err != nil {
		return nil, err
	}
	return rt, nil
}

// newRuntime builds the shared substrate: environment, nodes, arbiters.
func newRuntime(cfg Config) (*ClusterRuntime, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	rt := &ClusterRuntime{
		cfg:  cfg,
		env:  simtime.NewEnv(),
		talp: dlb.NewTALP(),
	}
	// A nil recorder ignores the clock, and every emit site is then a
	// free nil check.
	rt.cfg.Obs.BindClock(rt.env.Now)
	for n := 0; n < cfg.Machine.NumNodes(); n++ {
		ns := &nodeState{
			rt:  rt,
			id:  n,
			env: rt.env,
			arb: dlb.NewNodeArbiter(n, cfg.Machine.Node(n).Cores, cfg.LeWI),
		}
		ns.arb.SetObs(rt.cfg.Obs)
		ns.dispatchFn = func() {
			ns.queued = false
			ns.dispatch()
		}
		rt.nodes = append(rt.nodes, ns)
	}
	return rt, nil
}

// finishConstruction installs ownership, policies, (when enabled)
// dynamic spreading, and the fault plan, once every application's
// workers are registered.
func (rt *ClusterRuntime) finishConstruction() error {
	// One TALP cell per node for every apprank, so the reports cover the
	// whole topology.
	ids := make([]int, len(rt.appranks))
	for i := range ids {
		ids[i] = i
	}
	rt.talp.Preallocate(ids, len(rt.nodes))
	for _, a := range rt.appranks {
		for _, w := range a.workers {
			w.talp = rt.talp.Ref(a.id, w.ns.id)
		}
	}
	if rt.cfg.POP {
		if rt.cfg.POPWindow > 0 {
			rt.talp.SetWindow(rt.cfg.POPWindow)
		}
		// Give every arbiter a clock for the POP ownership/capacity
		// integrals.
		for _, ns := range rt.nodes {
			ns.arb.SetClock(rt.env.Now)
		}
	}
	rt.installInitialOwnership()
	rt.installPolicies()
	if rt.cfg.SelfSched != balance.SelfSchedOff {
		// After installInitialOwnership: the chunk-server weights
		// snapshot the §5.4 initial core split.
		rt.installSelfSched()
	}
	if rt.cfg.Dynamic.Enabled {
		rt.installDynamicSpreading()
	}
	if rt.cfg.Faults != nil {
		return rt.armFaults()
	}
	return nil
}

// MustNew is New, panicking on error.
func MustNew(cfg Config) *ClusterRuntime {
	rt, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return rt
}

// Env returns the simulation environment.
func (rt *ClusterRuntime) Env() *simtime.Env { return rt.env }

// Graph returns the first application's expander graph.
func (rt *ClusterRuntime) Graph() *expander.Graph { return rt.apps[0].graph }

// TALP returns the efficiency accounting module.
func (rt *ClusterRuntime) TALP() *dlb.TALP { return rt.talp }

// NumAppranks returns the number of application ranks.
func (rt *ClusterRuntime) NumAppranks() int { return len(rt.appranks) }

// installInitialOwnership assigns each helper one core and splits the
// remaining cores of each node evenly among the appranks homed on it
// (§5.4: "each helper rank owns one core ... ownership of the remaining
// cores is divided equally among the appranks on the node").
func (rt *ClusterRuntime) installInitialOwnership() {
	for _, ns := range rt.nodes {
		owned := make([]int, len(ns.workers))
		var homes []int
		for i, w := range ns.workers {
			if w.isHome() {
				homes = append(homes, i)
			} else {
				owned[i] = 1
			}
		}
		rest := ns.arb.Cores() - (len(ns.workers) - len(homes))
		for k, i := range homes {
			share := rest / len(homes)
			if k < rest%len(homes) {
				share++
			}
			owned[i] = share
		}
		ns.arb.SetOwned(owned)
	}
}

// installPolicies arms the periodic DROM policy and, for a traced run,
// the imbalance sampler. The built-in policies keep their solver buffers
// across ticks.
func (rt *ClusterRuntime) installPolicies() {
	cfg := rt.cfg
	switch {
	case cfg.CustomPolicy != nil:
		rt.env.Periodic(cfg.LocalPeriod, cfg.LocalPeriod, func() bool {
			rt.runPolicy(cfg.CustomPolicy)
			return rt.activeApps > 0 || !rt.started
		})
	case cfg.DROM == DROMLocal:
		pol := balance.NewLocalPolicy()
		rt.env.Periodic(cfg.LocalPeriod, cfg.LocalPeriod, func() bool {
			rt.runPolicy(pol)
			return rt.activeApps > 0 || !rt.started
		})
	case cfg.DROM == DROMGlobal:
		pol := balance.NewGlobalPolicy(cfg.Incentive)
		rt.env.Periodic(cfg.GlobalPeriod, cfg.GlobalPeriod, func() bool {
			rt.runGlobalPartitioned(pol)
			return rt.activeApps > 0 || !rt.started
		})
	}
	if cfg.Obs != nil {
		rt.env.Periodic(ImbalanceSamplePeriod, ImbalanceSamplePeriod, func() bool {
			rt.sampleImbalance()
			return rt.activeApps > 0 || !rt.started
		})
	}
}

// measure gathers busy averages (exponentially smoothed, standing in for
// the paper's long measurement horizon) of the live workers on grp's
// live nodes into a policy problem.
func (rt *ClusterRuntime) measure(grp []*nodeState) *balance.Problem {
	now := rt.env.Now()
	alpha := rt.cfg.BusyEMA
	prob := &balance.Problem{}
	for _, ns := range grp {
		if ns.dead || ns.liveWorkers() == 0 {
			continue // crashed or fully drained: nothing to allocate
		}
		prob.Nodes = append(prob.Nodes, balance.NodeInfo{ID: ns.id, Cores: ns.arb.Cores()})
		for _, w := range ns.workers {
			if w.dead {
				continue
			}
			sample := ns.arb.TakeBusyAverage(w.wid, now)
			w.busySmooth = alpha*sample + (1-alpha)*w.busySmooth
			prob.Workers = append(prob.Workers, balance.WorkerLoad{
				Key:  balance.WorkerKey{Apprank: w.app.id, Node: ns.id},
				Busy: w.busySmooth,
				Home: w.isHome(),
			})
		}
	}
	return prob
}

// applyOwnership installs an allocation on grp's live nodes via DROM
// (dead workers, and workers the allocation does not name, get none).
// With reconcile, each node's share is first adjusted to its core count
// as of now. Then queued work is pulled and grp dispatched, as capacity
// changed.
func (rt *ClusterRuntime) applyOwnership(grp []*nodeState, alloc balance.Allocation, reconcile bool) {
	for _, ns := range grp {
		if ns.dead || ns.liveWorkers() == 0 {
			continue
		}
		owned := make([]int, len(ns.workers))
		for i, w := range ns.workers {
			if !w.dead {
				owned[i] = alloc[balance.WorkerKey{Apprank: w.app.id, Node: ns.id}]
			}
		}
		if reconcile {
			reconcileOwned(owned, ns.workers, ns.arb.Cores())
		}
		for i, w := range ns.workers {
			if !w.dead && owned[i] != ns.arb.Owned(w.wid) {
				rt.stats.OwnershipChanges++
			}
		}
		ns.arb.SetOwned(owned)
	}
	for _, a := range rt.appranks {
		a.refillAll()
	}
	for _, ns := range grp {
		ns.scheduleDispatch()
	}
}

// runPolicy measures every node, solves the allocation, and applies it
// on every node.
func (rt *ClusterRuntime) runPolicy(pol Allocator) {
	prob := rt.measure(rt.nodes)
	rt.stats.PolicyRuns++
	alloc, err := pol.Allocate(prob)
	if err != nil {
		panic(fmt.Sprintf("core: policy failed at %v: %v", rt.env.Now(), err))
	}
	rt.applyOwnership(rt.nodes, alloc, false)
}

// solverGroups partitions the nodes into contiguous groups of at most
// GlobalPartition nodes (§5.4.2: graphs beyond ~32 nodes are solved in
// parts). With GlobalPartition 0 there is a single group.
func (rt *ClusterRuntime) solverGroups() [][]*nodeState {
	size := rt.cfg.GlobalPartition
	if size <= 0 || size >= len(rt.nodes) {
		return [][]*nodeState{rt.nodes}
	}
	var groups [][]*nodeState
	for i := 0; i < len(rt.nodes); i += size {
		end := i + size
		if end > len(rt.nodes) {
			end = len(rt.nodes)
		}
		groups = append(groups, rt.nodes[i:end])
	}
	return groups
}

// solveCost models the external solver's run time for a group of n
// nodes: ~57ms at 32 nodes, growing quadratically (§5.4.2).
func (rt *ClusterRuntime) solveCost(n int) simtime.Duration {
	if rt.cfg.GlobalSolveCost < 0 {
		return 0
	}
	if rt.cfg.GlobalSolveCost > 0 {
		return rt.cfg.GlobalSolveCost
	}
	f := float64(n) / 32.0
	return simtime.Duration(57 * float64(simtime.Millisecond) * f * f)
}

// runGlobalPartitioned measures each solver group now and applies its
// allocation after the modelled solve delay. Groups solve independently
// (in parallel, on separate nodes, as the paper suggests), so each pays
// only its own group's solve time. The problem was measured before the
// delay; a core-loss or drain fault may have changed a node in the
// meantime, so the allocation is reconciled to the node's core count as
// of the apply (a no-op on fault-free runs).
func (rt *ClusterRuntime) runGlobalPartitioned(pol balance.GlobalPolicy) {
	for _, grp := range rt.solverGroups() {
		grp := grp
		prob := rt.measure(grp)
		if len(prob.Nodes) == 0 {
			continue
		}
		apply := func() {
			rt.stats.PolicyRuns++
			alloc, err := pol.Allocate(prob)
			if err != nil {
				panic(fmt.Sprintf("core: global policy failed at %v: %v", rt.env.Now(), err))
			}
			rt.applyOwnership(grp, alloc, true)
		}
		if cost := rt.solveCost(len(grp)); cost > 0 {
			rt.env.Schedule(cost, apply)
		} else {
			apply()
		}
	}
}

// reconcileOwned adjusts a solver allocation to the node's core count at
// apply time. A fault landing during the modelled solve delay can leave
// the allocation stale: a core loss shrinks the node below the measured
// total, a drain zeroes a dead worker's share. Excess is revoked from
// the largest owners (keeping the one-core floor while possible, as
// loseCores does); shortfall goes to the emptiest live worker. On
// fault-free runs the allocation already sums to the core count and
// both loops are never entered.
func reconcileOwned(owned []int, workers []*Worker, cores int) {
	sum := 0
	for _, o := range owned {
		sum += o
	}
	for floor := 1; sum > cores; {
		best := -1
		for i, o := range owned {
			if o > floor && (best == -1 || o > owned[best]) {
				best = i
			}
		}
		if best == -1 {
			floor = 0 // everyone at the floor: give up the floor
			continue
		}
		owned[best]--
		sum--
	}
	for sum < cores {
		best := -1
		for i, w := range workers {
			if w.dead {
				continue
			}
			if best == -1 || owned[i] < owned[best] {
				best = i
			}
		}
		if best == -1 {
			return // no live workers; the caller skips such nodes
		}
		owned[best]++
		sum++
	}
}

// sampleImbalance records the node-level imbalance (Figure 11's metric):
// max over nodes of windowed busy load divided by the average.
func (rt *ClusterRuntime) sampleImbalance() {
	now := rt.env.Now()
	t0 := now - simtime.Time(ImbalanceSamplePeriod)
	if t0 < 0 {
		t0 = 0
	}
	loads := make([]float64, len(rt.nodes))
	for i, ns := range rt.nodes {
		total := 0.0
		for _, a := range rt.appranks {
			total += rt.cfg.Obs.Busy(ns.id, a.id).Average(t0, now)
		}
		loads[i] = total
	}
	rt.cfg.Obs.Imbalance(metrics.Imbalance(loads))
}

// sendCtl models a runtime control message from one node to another,
// invoking fn on arrival.
func (rt *ClusterRuntime) sendCtl(from, to int, bytes int64, fn func()) {
	rt.stats.CtlMessages++
	rt.cfg.Obs.CtlMsg(from, to, bytes)
	d := rt.cfg.Machine.Net.TransferTime(from, to, bytes)
	if rt.flt != nil {
		rt.scheduleLinked(from, to, d, fn)
		return
	}
	rt.env.Schedule(d, fn)
}

// Stats returns the run's activity counters.
func (rt *ClusterRuntime) Stats() RunStats { return rt.stats }

// Run spawns the SPMD main on every apprank of the (single) application
// and executes the simulation to completion. It returns an error if a
// rank program panicked, blocked forever, or left tasks unfinished.
// Multi-application runtimes built with NewMulti use RunAll instead.
func (rt *ClusterRuntime) Run(main func(app *App)) error {
	if rt.started {
		return fmt.Errorf("core: runtime already ran")
	}
	if len(rt.apps) != 1 {
		return fmt.Errorf("core: Run on a %d-application runtime; use RunAll", len(rt.apps))
	}
	rt.started = true
	st := rt.apps[0]
	rt.activeApps = len(st.ranks)
	for _, a := range st.ranks {
		a := a
		a.proc = st.world.Spawn(a.localRank, func(c *simmpi.Comm) {
			app := &App{rt: rt, apprank: a, comm: c}
			rt.talp.StartApp(a.id, a.env.Now())
			main(app)
			// Implicit taskwait at the end of main, as in OmpSs-2.
			app.TaskWait()
			a.finishedMain = true
			a.finishedAt = a.env.Now()
			rt.activeApps--
		})
	}
	return rt.finishRun()
}

// finishRun executes the simulation and checks the end-of-run invariants.
func (rt *ClusterRuntime) finishRun() error {
	start := time.Now()
	err := rt.env.Run()
	rt.cfg.EngineStats.Record(rt.env.EngineStats(), time.Since(start))
	// The run finished when the last rank did.
	for _, a := range rt.appranks {
		if a.finishedAt > rt.finishedAt {
			rt.finishedAt = a.finishedAt
		}
	}
	hiwater := 0
	for _, a := range rt.appranks {
		if hw := a.graph.RegistryHighWater(); hw > hiwater {
			hiwater = hw
		}
	}
	rt.cfg.EngineStats.RecordRegistryHiWater(uint64(hiwater))
	if err != nil {
		return err
	}
	if rt.flt != nil && rt.flt.abortErr != nil {
		return rt.flt.abortErr
	}
	if dl := rt.env.Deadlock(); dl != nil {
		return dl
	}
	for _, a := range rt.appranks {
		if a.aborted {
			continue
		}
		if _, _, out := a.graph.Stats(); out != 0 {
			return fmt.Errorf("core: apprank %d finished with %d tasks outstanding", a.id, out)
		}
	}
	for _, ns := range rt.nodes {
		if err := ns.arb.CheckInvariants(); err != nil {
			return err
		}
	}
	rt.emitPOPWindows()
	return nil
}

// Elapsed returns the virtual time at which the last apprank's main
// function completed (excluding any trailing policy ticks).
func (rt *ClusterRuntime) Elapsed() simtime.Duration {
	return simtime.Duration(rt.finishedAt)
}

// TotalOffloadedTasks counts tasks that executed away from their
// apprank's home node.
func (rt *ClusterRuntime) TotalOffloadedTasks() int64 {
	n := int64(0)
	for _, a := range rt.appranks {
		n += a.offloaded
	}
	return n
}

// TotalTasks counts completed tasks across all appranks.
func (rt *ClusterRuntime) TotalTasks() int64 {
	n := int64(0)
	for _, a := range rt.appranks {
		_, c, _ := a.graph.Stats()
		n += c
	}
	return n
}
