package experiments

import (
	"fmt"

	"ompsscluster/internal/cluster"
	"ompsscluster/internal/core"
	"ompsscluster/internal/nanos"
	"ompsscluster/internal/nbody"
	"ompsscluster/internal/simtime"
)

// makeRegions allocates n independent task regions.
func makeRegions(app *core.App, n int) []nanos.Region {
	out := make([]nanos.Region, n)
	for i := range out {
		out[i] = app.Alloc(1 << 12)
	}
	return out
}

// submitSynthTasks submits n offloadable tasks of the given duration over
// distinct regions (regions are extended logically by reuse only when n
// exceeds the pool, which callers avoid).
func submitSynthTasks(app *core.App, regions []nanos.Region, n int, work simtime.Duration) {
	for i := 0; i < n; i++ {
		var acc []nanos.Access
		if i < len(regions) {
			acc = []nanos.Access{{Region: regions[i], Mode: nanos.InOut}}
		}
		app.Submit(core.TaskSpec{
			Label:       "phase",
			Work:        work,
			Accesses:    acc,
			Offloadable: true,
		})
	}
}

// nbodyRun executes one n-body configuration on a Nord3-like machine
// (node 0 at 1.8/3.0 GHz relative speed) and returns the steady
// per-timestep time. timeWeights switches ORB to time-based weights (the
// counterfactual ablation; the paper's ORB balances counts).
func nbodyRun(sc Scale, nodes, degree int, lewi bool, drom core.DROMMode, slow, timeWeights bool) simtime.Duration {
	const rpn = 2
	m := cluster.New(nodes, sc.CoresPerNode, cluster.DefaultNet())
	if slow {
		m.SetSpeed(0, 0.6)
	}
	appranks := nodes * rpn
	cs := nbody.NewClusterSim(nbody.AdapterConfig{
		Bodies:             192 * appranks,
		Steps:              sc.Iterations + 3,
		ChunksPerRank:      8 * sc.CoresPerNode / rpn,
		CostPerInteraction: costPerInteraction(sc),
		TreeCostPerBody:    20 * simtime.Nanosecond,
		Theta:              0.5,
		DT:                 0.02,
		TimeWeights:        timeWeights,
		Seed:               sc.Seed,
		Trajectories:       sc.Trajectories,
	})
	rt := core.MustNew(core.Config{
		Machine:         m,
		AppranksPerNode: rpn,
		Degree:          degree,
		Graphs:          sc.Graphs,
		EngineStats:     sc.Engine,
		POP:             sc.POP,
		POPWindow:       sc.POPWindow,
		GoroutineEngine: sc.GoroutineEngine,
		SimParallel:     sc.SimParallel,
		SimWorkers:      sc.SimWorkers,
		LeWI:            lewi,
		DROM:            drom,
		GlobalPeriod:    sc.GlobalPeriod,
		LocalPeriod:     sc.LocalPeriod,
		Seed:            sc.Seed,
	})
	if err := rt.Run(cs.Main()); err != nil {
		panic(fmt.Sprintf("experiments: n-body run failed: %v", err))
	}
	ends := cs.StepEnds()
	return steadyStep(ends)
}

// costPerInteraction scales interaction counts into task time so that a
// rank's timestep is a handful of policy periods long: long enough for
// DROM to act within a step, short enough that the busy-measurement
// horizon (EMA over GlobalPeriod windows) spans a whole step — otherwise
// the saturated early-step phase hides the true demand from the solver.
func costPerInteraction(sc Scale) simtime.Duration {
	// ~192 bodies per rank at theta 0.5 perform roughly 300-400
	// interactions per body and step.
	d := sc.MeanTask / 1600
	if d <= 0 {
		d = simtime.Microsecond
	}
	return d
}

// steadyStep averages per-step time skipping two warm-up steps (the ORB
// weights and the DROM allocation both need a step or two to settle).
func steadyStep(ends []simtime.Time) simtime.Duration {
	if len(ends) == 0 {
		return 0
	}
	warm := 2
	if warm >= len(ends) {
		warm = len(ends) - 1
	}
	if warm == 0 {
		return simtime.Duration(ends[len(ends)-1]) / simtime.Duration(len(ends))
	}
	return simtime.Duration(ends[len(ends)-1]-ends[warm-1]) / simtime.Duration(len(ends)-warm)
}

// Fig6c reproduces Figure 6(c): Barnes-Hut n-body with ORB on a
// Nord3-like machine, two appranks per node, node 0 running at 1.8 GHz
// (speed 0.6). ORB equalises interaction counts, so the slow node stays
// overloaded; DLB helps somewhat and offloading (degree 2-3) helps
// further.
func Fig6c(sc Scale) *Result {
	res := &Result{
		ID:     "fig6c",
		Title:  "n-body (Barnes-Hut + ORB) with one slow node, 2 appranks/node",
		XLabel: "nodes",
		YLabel: "time per step (s)",
	}
	baseline := &Series{Label: "baseline"}
	dlbOnly := &Series{Label: "dlb (degree 1)"}
	deg2 := &Series{Label: "degree 2"}
	deg3 := &Series{Label: "degree 3"}
	var specs []runSpec
	for _, n := range nodeSweep(sc, 2, 4, 8, 16) {
		x := float64(n)
		specs = append(specs, runSpec{baseline, x, func() float64 {
			return nbodyRun(sc, n, 1, false, core.DROMOff, true, false).Seconds()
		}})
		specs = append(specs, runSpec{dlbOnly, x, func() float64 {
			return nbodyRun(sc, n, 1, true, core.DROMLocal, true, false).Seconds()
		}})
		if 2*2 <= sc.CoresPerNode {
			specs = append(specs, runSpec{deg2, x, func() float64 {
				return nbodyRun(sc, n, 2, true, core.DROMGlobal, true, false).Seconds()
			}})
		}
		if n >= 3 && 3*2 <= sc.CoresPerNode {
			specs = append(specs, runSpec{deg3, x, func() float64 {
				return nbodyRun(sc, n, 3, true, core.DROMGlobal, true, false).Seconds()
			}})
		}
	}
	runAll(sc, specs)
	res.Series = append(res.Series, *baseline, *dlbOnly, *deg2, *deg3)
	res.Notes = append(res.Notes,
		"node 0 runs at 0.6 relative speed (1.8 vs 3.0 GHz); ORB balances interaction counts, not time")
	return res
}
