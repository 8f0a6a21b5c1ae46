// Package core implements the paper's contribution: transparent load
// balancing of MPI + OmpSs-2 programs by combining OmpSs-2@Cluster task
// offloading with DLB core arbitration.
//
// A ClusterRuntime lays appranks out on a simulated machine, gives each
// apprank helper workers on the nodes adjacent to it in a bipartite
// expander graph (§5.2), schedules ready tasks with the two-tasks-per-
// owned-core rule (§5.5), reacts to fine-grained imbalance with LeWI
// (§5.3), and reassigns core ownership with the local or global DROM
// policy (§5.4). Applications use the App type: an SPMD main per apprank,
// an MPI communicator (nanos6_app_communicator), task submission with
// region accesses, and taskwait.
package core

import (
	"fmt"

	"ompsscluster/internal/balance"
	"ompsscluster/internal/cluster"
	"ompsscluster/internal/expander"
	"ompsscluster/internal/faults"
	"ompsscluster/internal/obs"
	"ompsscluster/internal/simtime"
)

// ImbalanceSamplePeriod is the period at which a traced run samples the
// node imbalance (Figure 11's metric) into Config.Obs, and the grid on
// which Figure 11 reads the sampled series back.
const ImbalanceSamplePeriod = 50 * simtime.Millisecond

// DROMMode selects the coarse-grained (ownership) policy.
type DROMMode int

// DROM policy modes.
const (
	// DROMOff keeps the initial static ownership.
	DROMOff DROMMode = iota
	// DROMLocal runs the local convergence policy (§5.4.1).
	DROMLocal
	// DROMGlobal runs the global solver policy (§5.4.2).
	DROMGlobal
)

func (m DROMMode) String() string {
	switch m {
	case DROMOff:
		return "off"
	case DROMLocal:
		return "local"
	case DROMGlobal:
		return "global"
	}
	return fmt.Sprintf("DROMMode(%d)", int(m))
}

// Config describes a runtime instance.
type Config struct {
	// Machine is the hardware model. Required.
	Machine *cluster.Machine
	// AppranksPerNode is the number of application ranks homed on each
	// node (1 or 2 in the paper). Default 1.
	AppranksPerNode int
	// Degree is the offloading degree: the number of nodes (including
	// the home node) each apprank may execute tasks on. Degree 1
	// disables offloading. Default 1.
	Degree int
	// Shape selects the helper graph family (expander by default).
	Shape expander.Shape
	// Graphs, when non-nil, caches generated helper graphs so repeated
	// runs of the same layout (a sweep) share one generation. The store
	// is safe for concurrent use; the cached graphs are never mutated.
	Graphs *expander.Store
	// LeWI enables fine-grained lending/borrowing of idle cores.
	LeWI bool
	// DROM selects the ownership policy.
	DROM DROMMode
	// Seed drives graph generation and any randomized choices.
	Seed int64

	// TasksPerCore is the scheduler's assignment threshold: a worker
	// accepts immediate scheduling while it holds fewer than
	// TasksPerCore tasks per owned core (§5.5). Default 2.
	TasksPerCore int
	// CountBorrowed makes the scheduler count borrowed cores in the
	// threshold (an ablation; the paper deliberately does not, §5.5).
	CountBorrowed bool
	// Incentive is the own-node work weighting of the global policy.
	// Zero means the paper's default of 1e-6; a negative value disables
	// the incentive entirely (for the ablation).
	Incentive float64
	// GlobalPeriod is the global solver invocation period. Default 2s.
	GlobalPeriod simtime.Duration
	// GlobalPartition caps the number of nodes per solver group. The
	// paper: the solve time grows roughly quadratically with the graph,
	// so "larger graphs than 32 nodes should be partitioned and solved
	// in parts". 0 solves the whole machine at once.
	GlobalPartition int
	// GlobalSolveCost is the delay between measuring the load and
	// applying the allocation, modelling the external solver's solve
	// time (the paper reports ~57ms for 32 nodes, growing roughly
	// quadratically). Zero uses that model scaled to the group size; a
	// negative value disables the delay entirely.
	GlobalSolveCost simtime.Duration
	// LocalPeriod is the local policy adjustment period. Default 100ms.
	LocalPeriod simtime.Duration
	// BusyEMA is the exponential smoothing weight applied to each new
	// busy-core window measurement before it reaches the allocation
	// policies (1 = use the raw window). Smoothing plays the role of
	// the paper's long (2-second) measurement horizon when the policy
	// period is scaled down, preventing ownership thrash when the
	// window aliases with iteration phases. Default 0.4.
	BusyEMA float64

	// OverheadFixed and OverheadFrac model non-idle runtime time per
	// task: execution occupies the core for
	// work/speed + OverheadFixed + OverheadFrac*work.
	// Defaults 20us and 0.5%.
	OverheadFixed simtime.Duration
	OverheadFrac  float64
	// CtlMsgBytes is the size of offload control messages. Default 256.
	CtlMsgBytes int64

	// Obs, when non-nil, receives the structured runtime event stream
	// (task lifecycle, messages, DLB ownership, scheduler decisions) and
	// keeps the busy/owned timelines it implies, and the runtime samples
	// the node imbalance into it every ImbalanceSamplePeriod. When nil
	// the hot paths stay allocation-free.
	Obs *obs.Recorder

	// EngineStats, when non-nil, receives the run's event-engine
	// counters and host execution time once the simulation completes.
	// Sweeps share one collector across runs (it is safe for concurrent
	// use) to track aggregate engine throughput.
	EngineStats *simtime.StatsCollector

	// POP enables full TALP accounting and the POP efficiency report:
	// per-apprank and per-node useful/overhead/MPI/idle/borrowed time
	// with ownership and capacity core-time integrals, queried after the
	// run with Runtime.POP. Accounting uses dedicated fold points so the
	// measurements feeding the allocation policies — and therefore the
	// schedule, every figure CSV, trace and metric — are byte-identical
	// with POP on or off. Default off: the hot paths skip the extra
	// integrals entirely.
	POP bool
	// POPWindow, when positive with POP set, additionally buckets useful
	// core-time into fixed windows of this width, producing the
	// time-resolved PE/LB/CommE series in the POP report (and, when Obs
	// is attached, per-node Perfetto counter tracks). Zero disables the
	// windowed series; POP totals are unaffected.
	POPWindow simtime.Duration

	// Dynamic enables dynamic work spreading: the helper graph grows at
	// runtime under queue pressure instead of being fixed by Degree
	// (§5.2's sketched extension). Typically used with Degree 1.
	Dynamic DynamicConfig

	// Faults, when non-nil, arms a deterministic fault plan on the run:
	// node slowdowns, core loss, flaky links, apprank stalls, node
	// crashes and helper drains, all at fixed virtual times (the plan is
	// bound to Seed, so probabilistic link decisions are reproducible).
	// When nil — the default — every resilience code path is bypassed
	// and the schedule is byte-identical to a build without this
	// subsystem.
	Faults *faults.Plan
	// FaultRetryBudget is how many times an offloaded task is re-placed
	// on another helper after a deadline expiry or target death before
	// falling back to local execution at home. Default 3.
	FaultRetryBudget int
	// OffloadDeadline is the completion deadline carried by offloaded
	// tasks under a fault plan. Zero derives a per-task deadline from
	// the task's work. Deadlines are health-checked, not preemptive: a
	// task observed running on a live node has its deadline extended.
	OffloadDeadline simtime.Duration
	// OnFault, when non-nil, is invoked synchronously after every fault
	// event application (both edges). Tests use it to check invariants
	// at each transition.
	OnFault func(ev faults.Event, phase faults.Phase)

	// SelfSched, when not balance.SelfSchedOff, replaces the reactive
	// §5.5 scheduler for offloadable tasks with a per-apprank dynamic
	// loop self-scheduling chunk server: ready offloadable tasks are
	// held centrally and granted to workers in chunks sized by the
	// selected policy (static chunking, guided, factoring, weighted
	// factoring, or the two-level scheme pairing a weighted inter-node
	// chunk server with LeWI below). Worker weights are snapshot at
	// construction from per-node speed factors and initial core
	// ownership. Non-offloadable tasks still bind to the home worker,
	// and DROM/LeWI keep arbitrating cores underneath the granted
	// chunks. Incompatible with Dynamic spreading (the worker set must
	// be fixed).
	SelfSched balance.SelfSched

	// CustomPolicy, when non-nil, replaces the built-in DROM policies
	// with a user-provided core allocator, invoked every LocalPeriod
	// with the smoothed busy measurements (DROM is ignored). This is the
	// extension point for researching new allocation policies on top of
	// the runtime.
	CustomPolicy Allocator
}

// Allocator is the pluggable core-allocation policy interface: it
// receives the measured per-worker busy loads and returns the new
// per-worker core ownership (>= 1 core per worker, per-node sums equal
// to the node's cores). balance.LocalPolicy and balance.GlobalPolicy
// implement it.
type Allocator interface {
	Allocate(p *balance.Problem) (balance.Allocation, error)
}

// withDefaults fills zero values and validates the configuration.
func (c Config) withDefaults() (Config, error) {
	if c.Machine == nil {
		return c, fmt.Errorf("core: Config.Machine is required")
	}
	if c.AppranksPerNode == 0 {
		c.AppranksPerNode = 1
	}
	if c.AppranksPerNode < 0 {
		return c, fmt.Errorf("core: negative AppranksPerNode")
	}
	if c.Degree == 0 {
		c.Degree = 1
	}
	if c.Degree < 1 || c.Degree > c.Machine.NumNodes() {
		return c, fmt.Errorf("core: degree %d out of range [1, %d]", c.Degree, c.Machine.NumNodes())
	}
	if c.TasksPerCore == 0 {
		c.TasksPerCore = 2
	}
	if c.Incentive == 0 {
		c.Incentive = 1e-6
	} else if c.Incentive < 0 {
		c.Incentive = 0
	}
	if c.GlobalPeriod == 0 {
		c.GlobalPeriod = 2 * simtime.Second
	}
	if c.LocalPeriod == 0 {
		c.LocalPeriod = 100 * simtime.Millisecond
	}
	if c.BusyEMA == 0 {
		c.BusyEMA = 0.4
	}
	if c.BusyEMA < 0 || c.BusyEMA > 1 {
		return c, fmt.Errorf("core: BusyEMA %v outside (0, 1]", c.BusyEMA)
	}
	if c.OverheadFixed == 0 {
		c.OverheadFixed = 20 * simtime.Microsecond
	}
	if c.OverheadFrac == 0 {
		c.OverheadFrac = 0.005
	}
	if c.CtlMsgBytes == 0 {
		c.CtlMsgBytes = 256
	}
	if c.FaultRetryBudget == 0 {
		c.FaultRetryBudget = 3
	}
	if c.FaultRetryBudget < 0 {
		return c, fmt.Errorf("core: negative FaultRetryBudget")
	}
	if c.OffloadDeadline < 0 {
		return c, fmt.Errorf("core: negative OffloadDeadline")
	}
	if c.POPWindow < 0 {
		return c, fmt.Errorf("core: negative POPWindow")
	}
	if c.POPWindow > 0 && !c.POP {
		return c, fmt.Errorf("core: POPWindow requires POP")
	}
	if !c.SelfSched.Valid() {
		return c, fmt.Errorf("core: invalid SelfSched %v", c.SelfSched)
	}
	if c.SelfSched != balance.SelfSchedOff && c.Dynamic.Enabled {
		return c, fmt.Errorf("core: SelfSched %v cannot be combined with dynamic spreading (the chunk server needs a fixed worker set)", c.SelfSched)
	}
	// Every worker must be able to own one core: workers per node =
	// AppranksPerNode * Degree.
	workersPerNode := c.AppranksPerNode * c.Degree
	for _, n := range c.Machine.Nodes {
		if workersPerNode > n.Cores {
			return c, fmt.Errorf("core: node %d has %d cores but %d workers (appranks/node %d x degree %d)",
				n.ID, n.Cores, workersPerNode, c.AppranksPerNode, c.Degree)
		}
	}
	return c, nil
}
