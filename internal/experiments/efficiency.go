package experiments

import (
	"fmt"

	"ompsscluster/internal/balance"
	"ompsscluster/internal/cluster"
	"ompsscluster/internal/core"
	"ompsscluster/internal/obs"
	"ompsscluster/internal/sweep"
	"ompsscluster/internal/workloads/synthetic"
)

// The efficiency figure extends the paper's evaluation with the POP
// centre-of-excellence decomposition PE = LB x CommE, measured by the
// full TALP accounting: how much of the lost efficiency each balancing
// mechanism recovers, and whether it recovers it by fixing load balance
// (LB) or by keeping the best rank busier (CommE).

// effNodes is the fixed machine size of the efficiency sweep.
const effNodes = 4

// effConfig is one compared balancing stack.
type effConfig struct {
	label  string
	degree int
	lewi   bool
	drom   core.DROMMode
	sched  balance.SelfSched
}

// effConfigs lists the compared stacks: the static baseline (no DLB at
// all), the paper's reactive lewi+global stack, and two members of the
// self-scheduling family (weight-aware factoring, and the two-level
// scheme with LeWI below).
func effConfigs() []effConfig {
	return []effConfig{
		{"static", 1, false, core.DROMOff, balance.SelfSchedOff},
		{"lewi+global", 3, true, core.DROMGlobal, balance.SelfSchedOff},
		{"wfactoring", 3, false, core.DROMOff, balance.SelfSchedWeighted},
		{"twolevel", 3, true, core.DROMOff, balance.SelfSchedTwoLevel},
	}
}

// effRun executes one (imbalance, config) cell of the efficiency sweep
// with POP accounting enabled and returns the runtime for its report.
func effRun(sc Scale, imb float64, cfg effConfig, ob *obs.Recorder) *core.ClusterRuntime {
	m := cluster.New(effNodes, sc.CoresPerNode, cluster.DefaultNet())
	b := synthetic.New(synConfig(sc, imb), effNodes, sc.CoresPerNode)
	rc := sc.config(m)
	rc.Degree = cfg.degree
	rc.POP = true
	rc.LeWI = cfg.lewi
	rc.DROM = cfg.drom
	rc.SelfSched = cfg.sched
	rc.Obs = ob
	rt := core.MustNew(rc)
	if err := rt.Run(b.Main()); err != nil {
		panic(fmt.Sprintf("experiments: efficiency run failed: %v", err))
	}
	return rt
}

// Efficiency sweeps POP parallel efficiency and its LB x CommE split
// over the application imbalance for the compared balancing stacks. The
// series come in triples — "<config> PE", "<config> LB",
// "<config> CommE" — computed over nodes (useful core-time against
// physical capacity, so LeWI borrowing shows up as recovered machine
// utilisation), with PE = LB x CommE holding per point by construction.
func Efficiency(sc Scale) *Result {
	res := &Result{
		ID:     "efficiency",
		Title:  "POP efficiency: PE = LB x CommE vs imbalance (static vs lewi+global vs self-scheduling)",
		XLabel: "imbalance",
		YLabel: "efficiency",
	}
	imbalances := []float64{1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0}
	cfgs := effConfigs()
	type spec struct {
		cfg effConfig
		imb float64
	}
	type outcome struct{ pe, lb, commE float64 }
	var specs []spec
	for _, cfg := range cfgs {
		for _, imb := range imbalances {
			specs = append(specs, spec{cfg, imb})
		}
	}
	type outMirror struct {
		PE    float64 `json:"pe"`
		LB    float64 `json:"lb"`
		CommE float64 `json:"comm_e"`
	}
	outs := mapSpecs(sc, specs, func(s spec) outcome {
		rt := effRun(sc, s.imb, s.cfg, nil)
		rep, err := rt.POP()
		if err != nil {
			panic(fmt.Sprintf("experiments: efficiency POP report: %v", err))
		}
		p := rep.NodePOP
		return outcome{pe: p.PE, lb: p.LB, commE: p.CommE}
	}, jsonCodec(
		func(o outcome) outMirror { return outMirror{o.pe, o.lb, o.commE} },
		func(m outMirror) outcome { return outcome{pe: m.PE, lb: m.LB, commE: m.CommE} },
	))
	// Reserve the full series slice up front: the map holds pointers into
	// it, which an append-driven reallocation would silently orphan.
	res.Series = make([]Series, 0, len(cfgs)*3)
	series := make(map[string]*Series)
	for _, cfg := range cfgs {
		for _, kind := range []string{"PE", "LB", "CommE"} {
			label := cfg.label + " " + kind
			res.Series = append(res.Series, Series{Label: label})
			series[label] = &res.Series[len(res.Series)-1]
		}
	}
	for i, s := range specs {
		out := outs[i]
		series[s.cfg.label+" PE"].Points = append(series[s.cfg.label+" PE"].Points, Point{s.imb, out.pe})
		series[s.cfg.label+" LB"].Points = append(series[s.cfg.label+" LB"].Points, Point{s.imb, out.lb})
		series[s.cfg.label+" CommE"].Points = append(series[s.cfg.label+" CommE"].Points, Point{s.imb, out.commE})
	}
	res.Notes = append(res.Notes,
		"PE/LB/CommE computed over nodes by the TALP/POP accounting; PE = LB x CommE per point by construction",
		fmt.Sprintf("%d nodes, synthetic workload; self-scheduling configs run degree 3 without DROM", effNodes))
	return res
}

// EfficiencyTraceBundles runs the compared stacks once at imbalance 2.0
// with a recorder attached, for traceview. The windowed POP series
// defaults to the scale's local period so the Chrome export carries the
// per-node PE counter tracks.
func EfficiencyTraceBundles(sc Scale) []TraceBundle {
	if sc.POPWindow == 0 {
		sc.POPWindow = sc.LocalPeriod
	}
	return sweep.Map(sc.engine(), effConfigs(), func(cfg effConfig) TraceBundle {
		ob := obs.NewRecorder(-1)
		effRun(sc, 2.0, cfg, ob)
		return TraceBundle{Label: cfg.label, Obs: ob}
	})
}
