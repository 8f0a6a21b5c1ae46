package experiments

import (
	"fmt"

	"ompsscluster/internal/cluster"
	"ompsscluster/internal/core"
	"ompsscluster/internal/simtime"
	"ompsscluster/internal/workloads/synthetic"
)

// ExtDynamicSpreading evaluates the paper's sketched "dynamic work
// spreading" extension (§5.2): instead of a fixed offloading degree, the
// helper graph grows at runtime under queue pressure. The experiment
// sweeps the imbalance on 8 nodes and compares static degrees against
// dynamic growth seeded at degree 1 — testing the paper's conjecture
// that the benefit over a well-chosen static degree is small.
func ExtDynamicSpreading(sc Scale) *Result {
	res := &Result{
		ID:     "ext-dynamic",
		Title:  "Extension: dynamic work spreading vs static degrees",
		XLabel: "imbalance",
		YLabel: "time per iteration (s)",
	}
	nodes := min8(sc)
	static1 := &Series{Label: "static degree 1"}
	static4 := &Series{Label: "static degree 4"}
	dynamic := &Series{Label: "dynamic (from degree 1)"}
	grown := &Series{Label: "helpers grown"}
	// The dynamic run feeds two series (steady time and helpers grown)
	// from one simulation, so the figure sweeps a two-valued spec rather
	// than the usual one-point runSpec.
	type dynSpec struct {
		imb  float64
		kind int // 0 = static degree 1, 1 = static degree 4, 2 = dynamic
	}
	var specs []dynSpec
	for _, imb := range []float64{1.0, 2.0, 3.0, 4.0} {
		if imb > float64(nodes) {
			continue
		}
		specs = append(specs, dynSpec{imb, 0})
		if nodes >= 4 {
			specs = append(specs, dynSpec{imb, 1})
		}
		specs = append(specs, dynSpec{imb, 2})
	}
	type dynOut struct {
		t     simtime.Duration
		grown int
	}
	type dynMirror struct {
		T     simtime.Duration `json:"t"`
		Grown int              `json:"grown"`
	}
	outs := mapSpecs(sc, specs, func(s dynSpec) dynOut {
		cfg := synConfig(sc, s.imb)
		switch s.kind {
		case 0:
			t, _ := synRun(sc, cluster.New(nodes, sc.CoresPerNode, cluster.DefaultNet()), cfg, 1, true, core.DROMLocal, nil)
			return dynOut{t: t}
		case 1:
			t, _ := synRun(sc, cluster.New(nodes, sc.CoresPerNode, cluster.DefaultNet()), cfg, 4, true, core.DROMGlobal, nil)
			return dynOut{t: t}
		default:
			td, rt := dynamicRun(sc, nodes, cfg)
			return dynOut{t: td, grown: rt.HelpersGrown()}
		}
	}, jsonCodec(
		func(o dynOut) dynMirror { return dynMirror{o.t, o.grown} },
		func(m dynMirror) dynOut { return dynOut{t: m.T, grown: m.Grown} },
	))
	for i, s := range specs {
		switch s.kind {
		case 0:
			static1.Points = append(static1.Points, Point{s.imb, outs[i].t.Seconds()})
		case 1:
			static4.Points = append(static4.Points, Point{s.imb, outs[i].t.Seconds()})
		default:
			dynamic.Points = append(dynamic.Points, Point{s.imb, outs[i].t.Seconds()})
			grown.Points = append(grown.Points, Point{s.imb, float64(outs[i].grown)})
		}
	}
	res.Series = append(res.Series, *static1, *static4, *dynamic, *grown)
	res.Notes = append(res.Notes,
		"dynamic growth removes the offloading-degree parameter; the paper conjectured the benefit would not cover the complexity (§5.2)")
	return res
}

// dynamicRun executes the synthetic benchmark with dynamic spreading.
func dynamicRun(sc Scale, nodes int, synCfg synthetic.Config) (simtime.Duration, *core.ClusterRuntime) {
	m := cluster.New(nodes, sc.CoresPerNode, cluster.DefaultNet())
	b := synthetic.New(synCfg, nodes, sc.CoresPerNode)
	rc := sc.config(m)
	rc.Degree = 1
	rc.LeWI = true
	rc.DROM = core.DROMGlobal
	rc.Dynamic = core.DynamicConfig{Enabled: true, GrowPeriod: sc.LocalPeriod}
	rt := core.MustNew(rc)
	if err := rt.Run(b.Main()); err != nil {
		panic(fmt.Sprintf("experiments: dynamic run failed: %v", err))
	}
	return b.SteadyIterTime(1), rt
}

// ExtPartitionedSolver evaluates the paper's scaling prescription for the
// global policy (§5.4.2): beyond ~32 nodes the linear program should be
// partitioned and solved in parts. The experiment runs the synthetic
// benchmark at imbalance 2.0 on the largest node count and compares
// whole-machine solving (quadratic solve cost) against 32- and 16-node
// partitions (cheaper, parallel solves, slightly less global balance).
func ExtPartitionedSolver(sc Scale) *Result {
	res := &Result{
		ID:     "ext-partition",
		Title:  "Extension: partitioned global solver at scale",
		XLabel: "partition size (nodes per solve; 0 = whole machine)",
		YLabel: "time per iteration (s)",
	}
	nodes := sc.MaxNodes
	if nodes > 64 {
		nodes = 64
	}
	timeSeries := &Series{Label: fmt.Sprintf("%dn imbalance 2.0 degree 4", nodes)}
	costSeries := Series{Label: "modelled solve cost (ms)"}
	var specs []runSpec
	for _, part := range []int{0, 32, 16, 8} {
		if part >= nodes {
			continue
		}
		specs = append(specs, runSpec{timeSeries, float64(part), func() float64 {
			return partitionedRun(sc, nodes, part).Seconds()
		}})
		groupNodes := part
		if part == 0 {
			groupNodes = nodes
		}
		f := float64(groupNodes) / 32.0
		costSeries.Points = append(costSeries.Points, Point{float64(part), 57 * f * f})
	}
	runAll(sc, specs)
	res.Series = append(res.Series, *timeSeries, costSeries)
	res.Notes = append(res.Notes,
		"each group solves independently; the solve delay (57ms at 32 nodes, quadratic) is modelled between measurement and application")
	return res
}

// ExtDVFS models the paper's introductory motivation — system-level
// imbalance appearing *during* execution (DVFS, thermal or power capping,
// §1): halfway through a balanced run, one node's clock drops to 60%.
// Without offloading the whole application slows to the throttled node's
// pace at every barrier; with LeWI+DROM the runtime re-converges and
// shifts the throttled node's work outward within a few solver periods.
func ExtDVFS(sc Scale) *Result {
	res := &Result{
		ID:     "ext-dvfs",
		Title:  "Extension: mid-run DVFS throttling of one node",
		XLabel: "iteration",
		YLabel: "iteration time (s)",
	}
	nodes := min8(sc)
	type dvfsSpec struct {
		degree int
		lewi   bool
		drom   core.DROMMode
		label  string
	}
	specs := []dvfsSpec{
		{1, false, core.DROMOff, "baseline"},
		{4, true, core.DROMGlobal, "degree 4 lewi+drom"},
	}
	res.Series = append(res.Series, mapSpecs(sc, specs, func(sp dvfsSpec) Series {
		m := cluster.New(nodes, sc.CoresPerNode, cluster.DefaultNet())
		cfg := synConfig(sc, 1.0) // balanced application
		cfg.Iterations = sc.Iterations * 2
		b := synthetic.New(cfg, nodes, sc.CoresPerNode)
		rc := sc.config(m)
		rc.Degree = sp.degree
		rc.LeWI = sp.lewi
		rc.DROM = sp.drom
		rt := core.MustNew(rc)
		// Throttle node 0 halfway through the run: iteration time is
		// roughly TasksPerCore x MeanTask, so half the iterations in.
		throttleAt := simtime.Duration(cfg.Iterations/2) *
			simtime.Duration(cfg.TasksPerCore) * sc.MeanTask
		rt.Env().Schedule(throttleAt, func() { m.SetSpeed(0, 0.6) })
		if err := rt.Run(b.Main()); err != nil {
			panic(fmt.Sprintf("experiments: dvfs run failed: %v", err))
		}
		s := Series{Label: sp.label}
		ends := b.IterationEnds()
		prev := simtime.Time(0)
		for i, e := range ends {
			s.Points = append(s.Points, Point{float64(i), (e - prev).Seconds()})
			prev = e
		}
		return s
	}, seriesCodec())...)
	res.Notes = append(res.Notes,
		"node 0 drops to 0.6x speed halfway through; the balanced baseline slows to the throttled node's pace while the runtime re-balances within a few periods")
	return res
}

func partitionedRun(sc Scale, nodes, partition int) simtime.Duration {
	m := cluster.New(nodes, sc.CoresPerNode, cluster.DefaultNet())
	b := synthetic.New(synConfig(sc, 2.0), nodes, sc.CoresPerNode)
	rc := sc.config(m)
	rc.Degree = 4
	rc.LeWI = true
	rc.DROM = core.DROMGlobal
	rc.GlobalPartition = partition
	rt := core.MustNew(rc)
	if err := rt.Run(b.Main()); err != nil {
		panic(fmt.Sprintf("experiments: partitioned run failed: %v", err))
	}
	return b.SteadyIterTime(1)
}
