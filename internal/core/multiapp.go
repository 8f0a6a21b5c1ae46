package core

import (
	"fmt"

	"ompsscluster/internal/expander"
	"ompsscluster/internal/simmpi"
)

// Multi-application support: DLB's defining capability (§3.3) is
// balancing cores "among multiple processes on the same node, from either
// the same or different applications". NewMulti co-schedules several
// independent MPI+OmpSs-2@Cluster applications on one machine: each
// application has its own appranks, expander graph, and MPI world (they
// cannot message each other), while all workers share the per-node DLB
// arbiters — so LeWI lends cores between applications at fine grain and
// the DROM policies move ownership between applications at coarse grain.

// AppSpec describes one co-scheduled application.
type AppSpec struct {
	// Name labels the application (defaults to "appN").
	Name string
	// RanksPerNode is the application's appranks per node (>= 1).
	RanksPerNode int
	// Degree overrides Config.Degree for this application (0 = inherit).
	Degree int
	// Main is the application's SPMD main function.
	Main func(app *App)
}

// appState groups one application's per-app structures.
type appState struct {
	spec  AppSpec
	graph *expander.Graph
	world *simmpi.World
	ranks []*Apprank
}

// NewMulti builds a runtime hosting several applications. Config's
// AppranksPerNode and Degree act as defaults; every worker (across all
// applications) still needs a one-core DROM floor, so the summed
// ranks-per-node x degree must fit each node.
func NewMulti(cfg Config, specs []AppSpec) (*ClusterRuntime, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("core: NewMulti with no applications")
	}
	// Validate against a synthetic workers-per-node count.
	workersPerNode := 0
	for i := range specs {
		if specs[i].RanksPerNode <= 0 {
			return nil, fmt.Errorf("core: app %d has RanksPerNode %d", i, specs[i].RanksPerNode)
		}
		if specs[i].Main == nil {
			return nil, fmt.Errorf("core: app %d has no Main", i)
		}
		if specs[i].Name == "" {
			specs[i].Name = fmt.Sprintf("app%d", i)
		}
		deg := specs[i].Degree
		if deg == 0 {
			deg = cfg.Degree
		}
		if deg == 0 {
			deg = 1
		}
		specs[i].Degree = deg
		workersPerNode += specs[i].RanksPerNode * deg
	}
	// withDefaults validates per-app constraints only for the implicit
	// single app; check the combined floor here.
	base := cfg
	base.AppranksPerNode = 1
	base.Degree = 1
	rt, err := newRuntime(base)
	if err != nil {
		return nil, err
	}
	for _, n := range cfg.Machine.Nodes {
		if workersPerNode > n.Cores {
			return nil, fmt.Errorf("core: node %d has %d cores but the %d applications need %d workers",
				n.ID, n.Cores, len(specs), workersPerNode)
		}
	}
	for i := range specs {
		if err := rt.addApp(specs[i]); err != nil {
			return nil, err
		}
	}
	if err := rt.finishConstruction(); err != nil {
		return nil, err
	}
	return rt, nil
}

// addApp instantiates one application's graph, world, and appranks.
func (rt *ClusterRuntime) addApp(spec AppSpec) error {
	cfg := rt.cfg
	nNodes := cfg.Machine.NumNodes()
	nApp := nNodes * spec.RanksPerNode
	p := expander.Params{
		Appranks: nApp,
		Nodes:    nNodes,
		Degree:   spec.Degree,
		Seed:     cfg.Seed + int64(len(rt.apps))*7919,
		Shape:    cfg.Shape,
	}
	var g *expander.Graph
	var err error
	if cfg.Graphs != nil {
		g, err = cfg.Graphs.Get(p)
	} else {
		g, err = expander.Generate(p)
	}
	if err != nil {
		return err
	}
	placement := make([]int, nApp)
	for a := 0; a < nApp; a++ {
		placement[a] = g.Home(a)
	}
	st := &appState{
		spec:  spec,
		graph: g,
		world: simmpi.NewWorld(rt.env, cfg.Machine, placement),
	}
	// World ranks are application-local; the event stream identifies
	// ranks by global apprank id, so offset by the ids already assigned.
	st.world.SetObs(cfg.Obs, len(rt.appranks))
	for local := 0; local < nApp; local++ {
		a := newApprank(rt, len(rt.appranks), local, len(rt.apps), g)
		rt.appranks = append(rt.appranks, a)
		st.ranks = append(st.ranks, a)
	}
	rt.apps = append(rt.apps, st)
	return nil
}

// RunAll spawns every application's mains and executes the simulation to
// completion (the multi-application analogue of Run).
func (rt *ClusterRuntime) RunAll() error {
	if rt.started {
		return fmt.Errorf("core: runtime already ran")
	}
	rt.started = true
	total := 0
	for _, st := range rt.apps {
		total += len(st.ranks)
	}
	rt.activeApps = total
	for _, st := range rt.apps {
		st := st
		for _, a := range st.ranks {
			a := a
			a.proc = st.world.Spawn(a.localRank, func(c *simmpi.Comm) {
				app := &App{rt: rt, apprank: a, comm: c}
				rt.talp.StartApp(a.id, a.env.Now())
				st.spec.Main(app)
				app.TaskWait()
				a.finishedMain = true
				a.finishedAt = a.env.Now()
				rt.activeApps--
			})
		}
	}
	return rt.finishRun()
}

// AppElapsed would require per-app completion times; the shared Elapsed
// covers the co-scheduled workload end. Per-application statistics are
// available through TALP (keyed by global apprank id; see AppOf) and the
// trace recorder.

// AppOf returns the application index and local rank of a global apprank
// id.
func (rt *ClusterRuntime) AppOf(global int) (appIdx, localRank int) {
	a := rt.appranks[global]
	return a.appIdx, a.localRank
}

// NumApps returns the number of co-scheduled applications.
func (rt *ClusterRuntime) NumApps() int { return len(rt.apps) }
