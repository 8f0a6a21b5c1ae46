package experiments

import (
	"fmt"

	"ompsscluster/internal/cluster"
	"ompsscluster/internal/core"
	"ompsscluster/internal/expander"
	"ompsscluster/internal/simtime"
	"ompsscluster/internal/workloads/synthetic"
)

// ablationRun executes the synthetic benchmark at imbalance 2.0 under a
// caller-tweaked runtime configuration and returns the steady iteration
// time.
func ablationRun(sc Scale, nodes int, tweak func(*core.Config)) simtime.Duration {
	m := cluster.New(nodes, sc.CoresPerNode, cluster.DefaultNet())
	b := synthetic.New(synConfig(sc, 2.0), nodes, sc.CoresPerNode)
	rc := sc.config(m)
	rc.Degree = 4
	rc.LeWI = true
	rc.DROM = core.DROMGlobal
	tweak(&rc)
	rt := core.MustNew(rc)
	if err := rt.Run(b.Main()); err != nil {
		panic(fmt.Sprintf("experiments: ablation run failed: %v", err))
	}
	return b.SteadyIterTime(1)
}

// AblationTasksPerCore sweeps the §5.5 scheduling threshold (the paper
// fixes it at 2: one task executing, one prefetching).
func AblationTasksPerCore(sc Scale) *Result {
	res := &Result{
		ID:     "ablation-taskspc",
		Title:  "Ablation: tasks-per-owned-core scheduling threshold",
		XLabel: "threshold",
		YLabel: "time per iteration (s)",
	}
	s := &Series{Label: "8n imbalance 2.0 degree 4"}
	var specs []runSpec
	for _, k := range []int{1, 2, 3, 4, 8} {
		specs = append(specs, runSpec{s, float64(k), func() float64 {
			return ablationRun(sc, min8(sc), func(c *core.Config) { c.TasksPerCore = k }).Seconds()
		}})
	}
	runAll(sc, specs)
	res.Series = append(res.Series, *s)
	res.Notes = append(res.Notes, "the paper uses 2: one task executing plus one with data staged")
	return res
}

// AblationCountBorrowed compares the paper's owned-cores-only threshold
// against also counting LeWI-borrowed cores (§5.5 argues borrowed cores
// may vanish at any boundary, so counting them over-commits offloads).
func AblationCountBorrowed(sc Scale) *Result {
	res := &Result{
		ID:     "ablation-borrowed",
		Title:  "Ablation: counting borrowed cores in the scheduling threshold",
		XLabel: "0=owned-only (paper), 1=count borrowed",
		YLabel: "time per iteration (s)",
	}
	s := &Series{Label: "8n imbalance 2.0 degree 4"}
	runAll(sc, []runSpec{
		{s, 0, func() float64 {
			return ablationRun(sc, min8(sc), func(c *core.Config) { c.CountBorrowed = false }).Seconds()
		}},
		{s, 1, func() float64 {
			return ablationRun(sc, min8(sc), func(c *core.Config) { c.CountBorrowed = true }).Seconds()
		}},
	})
	res.Series = append(res.Series, *s)
	return res
}

// AblationGraphShape compares the expander against a ring and the full
// bipartite graph at equal degree (full ignores the degree), on 16 nodes.
func AblationGraphShape(sc Scale) *Result {
	res := &Result{
		ID:     "ablation-graphshape",
		Title:  "Ablation: helper-graph shape at degree 4",
		XLabel: "0=expander 1=ring 2=full",
		YLabel: "time per iteration (s)",
	}
	nodes := 16
	if nodes > sc.MaxNodes {
		nodes = sc.MaxNodes
	}
	s := &Series{Label: fmt.Sprintf("%dn imbalance 2.0", nodes)}
	var specs []runSpec
	for i, shape := range []expander.Shape{expander.ShapeExpander, expander.ShapeRing, expander.ShapeFull} {
		specs = append(specs, runSpec{s, float64(i), func() float64 {
			return ablationRun(sc, nodes, func(c *core.Config) {
				c.Shape = shape
				if shape == expander.ShapeFull {
					c.Degree = nodes
					if nodes > c.Machine.Node(0).Cores {
						c.Degree = c.Machine.Node(0).Cores
						c.Shape = expander.ShapeRing // full graph infeasible: fall back wide
					}
				}
			}).Seconds()
		}})
	}
	runAll(sc, specs)
	res.Series = append(res.Series, *s)
	res.Notes = append(res.Notes,
		"full connectivity needs one worker per node per apprank: one core each, which caps it at cores-per-node")
	return res
}

// AblationGlobalPeriod sweeps the global solver period (the paper runs
// it every 2 seconds; ~57ms solves on 32 nodes, ~6% overhead).
func AblationGlobalPeriod(sc Scale) *Result {
	res := &Result{
		ID:     "ablation-period",
		Title:  "Ablation: global solver period",
		XLabel: "period (s)",
		YLabel: "time per iteration (s)",
	}
	s := &Series{Label: "8n imbalance 2.0 degree 4"}
	var specs []runSpec
	for _, p := range []simtime.Duration{sc.GlobalPeriod / 4, sc.GlobalPeriod, sc.GlobalPeriod * 4} {
		specs = append(specs, runSpec{s, p.Seconds(), func() float64 {
			return ablationRun(sc, min8(sc), func(c *core.Config) { c.GlobalPeriod = p }).Seconds()
		}})
	}
	runAll(sc, specs)
	res.Series = append(res.Series, *s)
	return res
}

// AblationIncentive measures unnecessary offloading on a balanced
// workload with and without the own-node incentive (§5.4.2's 1+1e-6
// weighting).
func AblationIncentive(sc Scale) *Result {
	res := &Result{
		ID:     "ablation-incentive",
		Title:  "Ablation: own-node incentive on a balanced load",
		XLabel: "0=no incentive 1=1e-6 incentive",
		YLabel: "offloaded tasks",
	}
	run := func(incentive float64) float64 {
		nodes := min8(sc)
		m := cluster.New(nodes, sc.CoresPerNode, cluster.DefaultNet())
		b := synthetic.New(synConfig(sc, 1.0), nodes, sc.CoresPerNode)
		rc := sc.config(m)
		rc.Degree = 4
		rc.LeWI = true
		rc.DROM = core.DROMGlobal
		rc.Incentive = incentive
		rt := core.MustNew(rc)
		if err := rt.Run(b.Main()); err != nil {
			panic(err)
		}
		return float64(rt.TotalOffloadedTasks())
	}
	s := &Series{Label: "balanced load offloads"}
	// Incentive 0 means "use the default" in Config, so pass a negative
	// epsilon-free marker: the Config treats 0 as default 1e-6, so the
	// no-incentive case uses a tiny negative that rounds to zero effect.
	runAll(sc, []runSpec{
		{s, 0, func() float64 { return run(-1) }},
		{s, 1, func() float64 { return run(1e-6) }},
	})
	res.Series = append(res.Series, *s)
	res.Notes = append(res.Notes,
		"the incentive only matters when the solver is otherwise indifferent; unnecessary offloads also stay low because spare cores go to home workers")
	return res
}

// AblationORBWeights is the counterfactual the paper's Figure 6(c)
// hinges on: if the n-body code's ORB partitioner weighted bodies by
// measured execution time instead of interaction counts, it would adapt
// to the slow node by itself and task offloading would buy almost
// nothing. With count weights (the paper's ORB), offloading is what
// recovers the slow node's loss.
func AblationORBWeights(sc Scale) *Result {
	res := &Result{
		ID:     "ablation-orbweights",
		Title:  "Ablation: ORB weighting on a slow-node machine (8 nodes)",
		XLabel: "0=baseline 1=degree 3",
		YLabel: "time per step (s)",
	}
	nodes := 8
	if nodes > sc.MaxNodes {
		nodes = sc.MaxNodes
	}
	counts := &Series{Label: "count weights (paper)"}
	times := &Series{Label: "time weights (counterfactual)"}
	runAll(sc, []runSpec{
		{counts, 0, func() float64 { return nbodyRun(sc, nodes, 1, false, core.DROMOff, true, false).Seconds() }},
		{counts, 1, func() float64 { return nbodyRun(sc, nodes, 3, true, core.DROMGlobal, true, false).Seconds() }},
		{times, 0, func() float64 { return nbodyRun(sc, nodes, 1, false, core.DROMOff, true, true).Seconds() }},
		{times, 1, func() float64 { return nbodyRun(sc, nodes, 3, true, core.DROMGlobal, true, true).Seconds() }},
	})
	res.Series = append(res.Series, *counts, *times)
	res.Notes = append(res.Notes,
		"time-weighted ORB adapts to the slow node on its own; count-weighted ORB (the paper's) leaves the imbalance for the runtime to fix")
	return res
}

func min8(sc Scale) int {
	if sc.MaxNodes < 8 {
		return sc.MaxNodes
	}
	return 8
}
