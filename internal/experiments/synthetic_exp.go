package experiments

import (
	"fmt"

	"ompsscluster/internal/cluster"
	"ompsscluster/internal/core"
	"ompsscluster/internal/obs"
	"ompsscluster/internal/simtime"
	"ompsscluster/internal/sweep"
	"ompsscluster/internal/workloads/synthetic"
)

// synRun executes one synthetic configuration and returns the
// steady-state per-iteration time (skipping one warm-up iteration).
func synRun(sc Scale, m *cluster.Machine, synCfg synthetic.Config, degree int, lewi bool, drom core.DROMMode, ob *obs.Recorder) (simtime.Duration, *core.ClusterRuntime) {
	b := synthetic.New(synCfg, m.NumNodes(), sc.CoresPerNode)
	rc := sc.config(m)
	rc.Degree = degree
	rc.LeWI = lewi
	rc.DROM = drom
	rc.Obs = ob
	rt := core.MustNew(rc)
	if err := rt.Run(b.Main()); err != nil {
		panic(fmt.Sprintf("experiments: synthetic run failed: %v", err))
	}
	return b.SteadyIterTime(1), rt
}

// synConfig builds the §6.2 configuration at the given imbalance.
func synConfig(sc Scale, imbalance float64) synthetic.Config {
	return synthetic.Config{
		Imbalance:    imbalance,
		TasksPerCore: sc.TasksPerCore,
		MeanTask:     sc.MeanTask,
		Iterations:   sc.Iterations,
		Jitter:       0.1,
		Seed:         sc.Seed,
	}
}

// synOptimalIter returns the perfect-balance per-iteration bound.
func synOptimalIter(sc Scale, m *cluster.Machine, synCfg synthetic.Config) simtime.Duration {
	b := synthetic.New(synCfg, m.NumNodes(), sc.CoresPerNode)
	return b.OptimalTime(m) / simtime.Duration(synCfg.Iterations)
}

// Fig8 reproduces Figure 8: per-iteration time of the synthetic
// benchmark (one apprank per node, LeWI + global DROM) as a function of
// the imbalance, on 4, 8 and 64 nodes. Series are labelled
// "<nodes>n <config>".
func Fig8(sc Scale) *Result {
	res := &Result{
		ID:     "fig8",
		Title:  "Synthetic benchmark: per-iteration time vs imbalance (LeWI+DROM global)",
		XLabel: "imbalance",
		YLabel: "time per iteration (s)",
	}
	imbalances := []float64{1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0}
	var specs []runSpec
	var order []*Series
	for _, nodes := range nodeSweep(sc, 4, 8, 64) {
		m := func() *cluster.Machine { return cluster.New(nodes, sc.CoresPerNode, cluster.DefaultNet()) }
		base := &Series{Label: fmt.Sprintf("%dn baseline", nodes)}
		perfect := &Series{Label: fmt.Sprintf("%dn perfect", nodes)}
		degSeries := map[int]*Series{}
		degrees := []int{2, 3, 4}
		for _, d := range degrees {
			degSeries[d] = &Series{Label: fmt.Sprintf("%dn degree %d", nodes, d)}
		}
		for _, imb := range imbalances {
			if imb > float64(nodes) {
				continue
			}
			cfg := synConfig(sc, imb)
			specs = append(specs, runSpec{base, imb, func() float64 {
				t, _ := synRun(sc, m(), cfg, 1, true, core.DROMLocal, nil)
				return t.Seconds()
			}})
			for _, d := range degrees {
				if d > nodes {
					continue
				}
				specs = append(specs, runSpec{degSeries[d], imb, func() float64 {
					t, _ := synRun(sc, m(), cfg, d, true, core.DROMGlobal, nil)
					return t.Seconds()
				}})
			}
			specs = append(specs, runSpec{perfect, imb, func() float64 {
				return synOptimalIter(sc, m(), cfg).Seconds()
			}})
		}
		order = append(order, base)
		for _, d := range degrees {
			if d <= nodes {
				order = append(order, degSeries[d])
			}
		}
		order = append(order, perfect)
	}
	runAll(sc, specs)
	for _, s := range order {
		res.Series = append(res.Series, *s)
	}
	res.Notes = append(res.Notes,
		"baseline = degree 1 with single-node DLB (no benefit with one apprank per node, as in the paper)")
	return res
}

// Fig10 reproduces Figure 10: the synthetic benchmark with one node
// three times slower, on 2 and 8 nodes. The x axis is the signed
// imbalance: negative values place the least work on the slow node,
// positive values the most.
func Fig10(sc Scale) *Result {
	res := &Result{
		ID:     "fig10",
		Title:  "Synthetic benchmark with one 3x-slower node",
		XLabel: "signed imbalance",
		YLabel: "time per iteration (s)",
	}
	slowMachine := func(nodes int) *cluster.Machine {
		m := cluster.New(nodes, sc.CoresPerNode, cluster.DefaultNet())
		m.SetSpeed(0, 1.0/3.0)
		return m
	}
	type slowSweep struct {
		nodes   int
		degrees []int
		maxImb  float64
	}
	sweeps := []slowSweep{{2, []int{2}, 2.0}, {8, []int{2, 4}, 4.0}}
	var specs []runSpec
	var order []*Series
	for _, sw := range sweeps {
		if sw.nodes > sc.MaxNodes {
			continue
		}
		base := &Series{Label: fmt.Sprintf("%dn baseline", sw.nodes)}
		perfect := &Series{Label: fmt.Sprintf("%dn perfect", sw.nodes)}
		degSeries := map[int]*Series{}
		for _, d := range sw.degrees {
			degSeries[d] = &Series{Label: fmt.Sprintf("%dn degree %d", sw.nodes, d)}
		}
		for imb := -sw.maxImb; imb <= sw.maxImb+1e-9; imb += 0.5 {
			mag := imb
			if mag < 0 {
				mag = -mag
			}
			if mag < 1 {
				continue // |imbalance| starts at 1.0 (balanced)
			}
			cfg := synConfig(sc, mag)
			if imb < 0 {
				cfg.PinLightest = true // slow node (node 0) gets the least work
			} // else the heaviest stays at apprank 0 = the slow node
			specs = append(specs, runSpec{base, imb, func() float64 {
				t, _ := synRun(sc, slowMachine(sw.nodes), cfg, 1, true, core.DROMLocal, nil)
				return t.Seconds()
			}})
			for _, d := range sw.degrees {
				specs = append(specs, runSpec{degSeries[d], imb, func() float64 {
					t, _ := synRun(sc, slowMachine(sw.nodes), cfg, d, true, core.DROMGlobal, nil)
					return t.Seconds()
				}})
			}
			specs = append(specs, runSpec{perfect, imb, func() float64 {
				return synOptimalIter(sc, slowMachine(sw.nodes), cfg).Seconds()
			}})
		}
		order = append(order, base)
		for _, d := range sw.degrees {
			order = append(order, degSeries[d])
		}
		order = append(order, perfect)
	}
	runAll(sc, specs)
	for _, s := range order {
		res.Series = append(res.Series, *s)
	}
	return res
}

// Fig11 reproduces Figure 11: convergence of the node-level imbalance
// (max node load / average node load, sampled from busy-core windows)
// for the synthetic benchmark: (a) 2 nodes at imbalance 2.0 and (b) 4
// nodes at imbalance 4.0, under LeWI-only, local and global DROM with
// and without LeWI.
func Fig11(sc Scale) *Result {
	res := &Result{
		ID:     "fig11",
		Title:  "Convergence of node imbalance over time",
		XLabel: "time (s)",
		YLabel: "node imbalance",
	}
	type cfg struct {
		label string
		lewi  bool
		drom  core.DROMMode
	}
	cfgs := []cfg{
		{"lewi-only", true, core.DROMOff},
		{"local", false, core.DROMLocal},
		{"local+lewi", true, core.DROMLocal},
		{"global", false, core.DROMGlobal},
		{"global+lewi", true, core.DROMGlobal},
	}
	type scenario struct {
		nodes int
		imb   float64
	}
	type spec struct {
		sce scenario
		cfg cfg
	}
	var specs []spec
	for _, sce := range []scenario{{2, 2.0}, {4, 4.0}} {
		if sce.nodes > sc.MaxNodes {
			continue
		}
		for _, c := range cfgs {
			specs = append(specs, spec{sce, c})
		}
	}
	res.Series = append(res.Series, mapSpecs(sc, specs, func(s spec) Series {
		ob := obs.NewRecorder(0)
		synCfg := synConfig(sc, s.sce.imb)
		synCfg.Iterations = sc.Iterations + 2 // room to converge
		m := cluster.New(s.sce.nodes, sc.CoresPerNode, cluster.DefaultNet())
		synRun(sc, m, synCfg, s.sce.nodes, s.cfg.lewi, s.cfg.drom, ob)
		series := Series{Label: fmt.Sprintf("%dn %s", s.sce.nodes, s.cfg.label)}
		// Sample the step series on the sampler's own grid so all series
		// share x values (the recorder compacts repeated values).
		imbSeries := ob.ImbalanceSeries()
		const step = simtime.Time(core.ImbalanceSamplePeriod)
		for ti := step; ti <= ob.End(); ti += step {
			series.Points = append(series.Points, Point{ti.Seconds(), imbSeries.ValueAt(ti)})
		}
		return series
	}, seriesCodec())...)
	res.Notes = append(res.Notes,
		"offloading degree equals the node count (full connectivity on these tiny graphs)")
	return res
}

// Fig5 reproduces Figure 5: two appranks on two nodes running an
// imbalanced phase (all work on apprank 0) followed by a balanced phase,
// under the local and the global policy. The series are the busy-core
// timelines per (node, apprank); the notes quantify the unnecessary
// offloading the local policy performs during the balanced phase.
func Fig5(sc Scale) *Result {
	res := &Result{
		ID:     "fig5",
		Title:  "Local vs global coarse-grained balancing (2 appranks, 2 nodes)",
		XLabel: "time (s)",
		YLabel: "busy cores",
	}
	type fig5Out struct {
		series []Series
		note   string
	}
	type fig5Mirror struct {
		Series []Series `json:"series"`
		Note   string   `json:"note"`
	}
	outs := mapSpecs(sc, fig5Policies(), func(pol fig5Policy) fig5Out {
		ob := obs.NewRecorder(0)
		_, phase2Start := runFig5Workload(sc, pol.drom, ob)
		end := ob.End()
		var out fig5Out
		// Busy timelines, sampled.
		for node := 0; node < 2; node++ {
			for a := 0; a < 2; a++ {
				s := Series{Label: fmt.Sprintf("%s n%d/a%d", pol.label, node, a)}
				busy := ob.Busy(node, a)
				const samples = 60
				for k := 0; k <= samples; k++ {
					t0 := simtime.Time(float64(end) * float64(k) / samples)
					t1 := simtime.Time(float64(end) * float64(k+1) / samples)
					s.Points = append(s.Points, Point{t0.Seconds(), busy.Average(t0, t1)})
				}
				out.series = append(out.series, s)
			}
		}
		// Cross-node activity once the balanced phase has settled (the
		// last two thirds, past the ownership transition): average busy
		// cores of each apprank on its non-home node.
		settle := phase2Start + (end-phase2Start)/3
		cross := ob.Busy(1, 0).Average(settle, end) + ob.Busy(0, 1).Average(settle, end)
		out.note = fmt.Sprintf(
			"%s policy: %.2f cores of cross-node execution during the balanced phase (paper: local offloads unnecessarily, global ~0)",
			pol.label, cross)
		return out
	}, jsonCodec(
		func(o fig5Out) fig5Mirror { return fig5Mirror{o.series, o.note} },
		func(m fig5Mirror) fig5Out { return fig5Out{series: m.Series, note: m.Note} },
	))
	for _, out := range outs {
		res.Series = append(res.Series, out.series...)
		res.Notes = append(res.Notes, out.note)
	}
	return res
}

// fig5Policy is one of Figure 5's two allocation policies.
type fig5Policy struct {
	label string
	drom  core.DROMMode
}

func fig5Policies() []fig5Policy {
	return []fig5Policy{{"local", core.DROMLocal}, {"global", core.DROMGlobal}}
}

// Fig5TraceBundles runs the two-phase workload under both policies with
// a recorder attached, for traceview.
func Fig5TraceBundles(sc Scale) []TraceBundle {
	return sweep.Map(sc.engine(), fig5Policies(), func(pol fig5Policy) TraceBundle {
		ob := obs.NewRecorder(-1)
		runFig5Workload(sc, pol.drom, ob)
		return TraceBundle{Label: pol.label, Obs: ob}
	})
}

// runFig5Workload runs the two-phase workload and returns the runtime
// and the virtual time at which the balanced phase began.
func runFig5Workload(sc Scale, drom core.DROMMode, ob *obs.Recorder) (*core.ClusterRuntime, simtime.Time) {
	m := cluster.New(2, sc.CoresPerNode, cluster.DefaultNet())
	rc := sc.config(m)
	rc.AppranksPerNode = 1
	rc.Degree = 2
	rc.LeWI = true
	rc.DROM = drom
	rc.Obs = ob
	rt := core.MustNew(rc)
	var phase2Start simtime.Time
	iters := sc.Iterations
	tasks := sc.TasksPerCore * sc.CoresPerNode
	err := rt.Run(func(app *core.App) {
		regions := makeRegions(app, tasks)
		// Phase 1: all computation on apprank 0.
		for it := 0; it < iters; it++ {
			n := 0
			if app.Rank() == 0 {
				n = 2 * tasks
			}
			submitSynthTasks(app, regions, n, sc.MeanTask)
			app.TaskWait()
			app.Barrier()
		}
		if app.Rank() == 0 {
			phase2Start = app.Now()
		}
		// Phase 2: balanced.
		for it := 0; it < iters; it++ {
			submitSynthTasks(app, regions, tasks, sc.MeanTask)
			app.TaskWait()
			app.Barrier()
		}
	})
	if err != nil {
		panic(fmt.Sprintf("experiments: fig5 run failed: %v", err))
	}
	return rt, phase2Start
}
