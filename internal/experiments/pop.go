package experiments

import (
	"fmt"

	"ompsscluster/internal/cluster"
	"ompsscluster/internal/core"
	"ompsscluster/internal/dlb"
	"ompsscluster/internal/obs"
	"ompsscluster/internal/sweep"
)

// fig8POPCell is one representative fig8 configuration for POPReports:
// the 4-node baseline and degree-3 lewi+global stacks at a balanced and
// an imbalanced point.
type fig8POPCell struct {
	label     string
	imbalance float64
	degree    int
	lewi      bool
	drom      core.DROMMode
}

func fig8POPCells() []fig8POPCell {
	return []fig8POPCell{
		{"baseline imb 2.0", 2.0, 1, true, core.DROMLocal},
		{"degree 3 imb 2.0", 2.0, 3, true, core.DROMGlobal},
		{"degree 3 imb 1.0", 1.0, 3, true, core.DROMGlobal},
	}
}

// POPBundle is one representative run's POP efficiency report.
type POPBundle struct {
	Label  string
	Report *dlb.POPReport
}

// POPReports runs representative configurations of the given experiment
// with full TALP/POP accounting enabled and returns one report per
// configuration (mirroring TraceBundles: figures sweep too many cells
// to report each one, so a labelled representative subset stands in).
// The windowed series defaults to the scale's LocalPeriod unless the
// scale sets POPWindow. Unknown or unsupported ids are a hard error.
func POPReports(id string, sc Scale) ([]POPBundle, error) {
	sc.POP = true
	if sc.POPWindow == 0 {
		sc.POPWindow = sc.LocalPeriod
	}
	pop := func(rt *core.ClusterRuntime, label string) POPBundle {
		rep, err := rt.POP()
		if err != nil {
			panic(fmt.Sprintf("experiments: POP report for %s: %v", label, err))
		}
		return POPBundle{Label: label, Report: rep}
	}
	switch id {
	case "fig5":
		return sweep.Map(sc.engine(), fig5Policies(), func(p fig5Policy) POPBundle {
			rt, _ := runFig5Workload(sc, p.drom, nil)
			return pop(rt, p.label)
		}), nil
	case "fig8":
		return sweep.Map(sc.engine(), fig8POPCells(), func(c fig8POPCell) POPBundle {
			m := cluster.New(4, sc.CoresPerNode, cluster.DefaultNet())
			_, rt := synRun(sc, m, synConfig(sc, c.imbalance), c.degree, c.lewi, c.drom, nil)
			return pop(rt, c.label)
		}), nil
	case "fig9":
		return sweep.Map(sc.engine(), fig9Configs(), func(cfg fig9Config) POPBundle {
			_, rt := mppRun(sc, 4, 1, cfg.degree, cfg.lewi, cfg.drom, nil)
			return pop(rt, cfg.label)
		}), nil
	case "policies":
		scn := policyScenario{label: "imb 2.0", imbalance: 2.0}
		return sweep.Map(sc.engine(), policyConfigs(), func(pc policyConfig) POPBundle {
			_, rt, err := policyRun(sc, scn, nil, pc, nil)
			if err != nil {
				panic(fmt.Sprintf("experiments: POP policies run %s: %v", pc.label, err))
			}
			return pop(rt, pc.label)
		}), nil
	case "efficiency":
		return sweep.Map(sc.engine(), effConfigs(), func(cfg effConfig) POPBundle {
			return pop(effRun(sc, 2.0, cfg, nil), cfg.label)
		}), nil
	}
	return nil, fmt.Errorf("experiments: no POP-report variant of %q (have fig5, fig8, fig9, policies, efficiency)", id)
}

// Fig8TraceBundles runs the representative fig8 configurations with a
// recorder attached, for traceview.
func Fig8TraceBundles(sc Scale) []TraceBundle {
	return sweep.Map(sc.engine(), fig8POPCells(), func(c fig8POPCell) TraceBundle {
		ob := obs.NewRecorder(-1)
		m := cluster.New(4, sc.CoresPerNode, cluster.DefaultNet())
		synRun(sc, m, synConfig(sc, c.imbalance), c.degree, c.lewi, c.drom, ob)
		return TraceBundle{Label: c.label, Obs: ob}
	})
}
