package experiments

import (
	"fmt"

	"ompsscluster/internal/cluster"
	"ompsscluster/internal/core"
	"ompsscluster/internal/obs"
	"ompsscluster/internal/simtime"
	"ompsscluster/internal/sweep"
	"ompsscluster/internal/workloads/micropp"
	"ompsscluster/internal/workloads/synthetic"
)

// mppImbalance is the MicroPP application-level imbalance; the linear /
// non-linear element mix in the paper's runs produces roughly a factor
// two between the heaviest and the average rank (its degree-4 runs gain
// ~47% over DLB, i.e. the baseline runs at ~1.9x the balanced time).
const mppImbalance = 2.0

// mppProblem instantiates the MicroPP surrogate for a given apprank
// count at the given scale.
func mppProblem(sc Scale, appranks, coresPerApprank int) *micropp.Problem {
	// 20 chunks per core keep the heaviest rank's chunk under ~5% of a
	// timestep, so end-of-step granularity tails stay small (the paper's
	// element sets are much finer than its 50ms tasks). The mean chunk
	// cost is chosen so a timestep lasts about half a synthetic
	// iteration (TasksPerCore x MeanTask / 2), keeping the ratio of
	// timestep to solver period consistent across scales — at the paper
	// scale a MicroPP step is ~2.5s against the 2s solver period.
	meanChunk := simtime.Duration(sc.TasksPerCore) * sc.MeanTask / 40
	return micropp.New(micropp.Config{
		ChunksPerApprank: 20 * coresPerApprank,
		ElementsPerChunk: 64,
		// Mean chunk factor is 1+(NR-1)*meanG; with NR=10 and I=2 the
		// mean factor is 5, so the linear-only chunk cost is a fifth of
		// the target mean chunk cost.
		LinearCost:   meanChunk / (5 * 64),
		NRIterations: 10,
		Imbalance:    mppImbalance,
		Timesteps:    sc.Iterations,
		Seed:         sc.Seed,
	}, appranks)
}

// mppRun executes one MicroPP configuration and returns the normalised
// time-to-solution: the steady per-timestep time (skipping the first,
// warm-up, step in which the DROM allocation converges) times the number
// of timesteps. The paper's runs are long enough that warm-up is
// negligible; normalising removes the same transient from these scaled
// runs.
func mppRun(sc Scale, nodes, rpn, degree int, lewi bool, drom core.DROMMode, ob *obs.Recorder) (simtime.Duration, *core.ClusterRuntime) {
	m := cluster.New(nodes, sc.CoresPerNode, cluster.DefaultNet())
	p := mppProblem(sc, nodes*rpn, sc.CoresPerNode/rpn)
	rc := sc.config(m)
	rc.AppranksPerNode = rpn
	rc.Degree = degree
	rc.LeWI = lewi
	rc.DROM = drom
	rc.Obs = ob
	rt := core.MustNew(rc)
	if err := rt.Run(p.Main()); err != nil {
		panic(fmt.Sprintf("experiments: micropp run failed: %v", err))
	}
	perStep := synthetic.SteadyIterTime(p.StepEnds(), 1)
	return perStep * simtime.Duration(sc.Iterations), rt
}

// mppOptimal returns the perfect-balance bound for the configuration.
func mppOptimal(sc Scale, nodes, rpn int) simtime.Duration {
	m := cluster.New(nodes, sc.CoresPerNode, cluster.DefaultNet())
	return mppProblem(sc, nodes*rpn, sc.CoresPerNode/rpn).OptimalTime(m)
}

// figMicroPP is the shared engine for Figures 6(a), 6(b) and 7.
func figMicroPP(id, title string, sc Scale, rpn int, drom core.DROMMode) *Result {
	res := &Result{
		ID:     id,
		Title:  title,
		XLabel: "nodes",
		YLabel: "execution time (s)",
	}
	nodes := nodeSweep(sc, 2, 4, 8, 16, 32, 64)
	degrees := []int{2, 3, 4, 8}
	baseline := &Series{Label: "baseline"}
	dlbOnly := &Series{Label: "dlb (degree 1)"}
	perfect := &Series{Label: "perfect"}
	degSeries := make([]*Series, len(degrees))
	for i, d := range degrees {
		degSeries[i] = &Series{Label: fmt.Sprintf("degree %d", d)}
	}
	var specs []runSpec
	for _, n := range nodes {
		x := float64(n)
		specs = append(specs, runSpec{baseline, x, func() float64 {
			t, _ := mppRun(sc, n, rpn, 1, false, core.DROMOff, nil)
			return t.Seconds()
		}})
		// Single-node DLB: LeWI plus the local DROM policy among the
		// processes of each node.
		specs = append(specs, runSpec{dlbOnly, x, func() float64 {
			t, _ := mppRun(sc, n, rpn, 1, true, core.DROMLocal, nil)
			return t.Seconds()
		}})
		for i, d := range degrees {
			if d > n || d*rpn > sc.CoresPerNode {
				continue
			}
			specs = append(specs, runSpec{degSeries[i], x, func() float64 {
				t, _ := mppRun(sc, n, rpn, d, true, drom, nil)
				return t.Seconds()
			}})
		}
		specs = append(specs, runSpec{perfect, x, func() float64 {
			return mppOptimal(sc, n, rpn).Seconds()
		}})
	}
	runAll(sc, specs)
	res.Series = append(res.Series, *baseline, *dlbOnly)
	for _, s := range degSeries {
		res.Series = append(res.Series, *s)
	}
	res.Series = append(res.Series, *perfect)
	res.Notes = append(res.Notes,
		fmt.Sprintf("MicroPP surrogate, imbalance %.1f, %d appranks/node, %s DROM policy",
			mppImbalance, rpn, drom))
	return res
}

// Fig6a reproduces Figure 6(a): MicroPP weak scaling, one apprank per
// node, global allocation policy.
func Fig6a(sc Scale) *Result {
	return figMicroPP("fig6a", "MicroPP weak scaling, 1 apprank/node (global policy)", sc, 1, core.DROMGlobal)
}

// Fig6b reproduces Figure 6(b): two appranks per node.
func Fig6b(sc Scale) *Result {
	return figMicroPP("fig6b", "MicroPP weak scaling, 2 appranks/node (global policy)", sc, 2, core.DROMGlobal)
}

// Fig7 reproduces Figure 7: the same sweeps under the local allocation
// policy (both one and two appranks per node; the two-apprank series
// carry a "2rpn" suffix).
func Fig7(sc Scale) *Result {
	a := figMicroPP("fig7", "MicroPP weak scaling (local policy)", sc, 1, core.DROMLocal)
	b := figMicroPP("fig7", "", sc, 2, core.DROMLocal)
	for _, s := range b.Series {
		s.Label += " 2rpn"
		a.Series = append(a.Series, s)
	}
	return a
}

// Fig9 reproduces Figure 9: MicroPP on four nodes with degree two, with
// and without LeWI and DROM. The series contain the execution times; the
// notes carry the time ratios the paper reports (LeWI-only 83% of
// baseline, DROM-only 65%, both best). Fig9TraceBundles records the
// underlying timelines.
func Fig9(sc Scale) *Result {
	res := &Result{
		ID:     "fig9",
		Title:  "MicroPP 4 nodes, degree 2: LeWI/DROM roles",
		XLabel: "config (0=base 1=LeWI 2=DROM 3=both)",
		YLabel: "execution time (s)",
	}
	times := mapSpecs(sc, fig9Configs(), func(cfg fig9Config) simtime.Duration {
		t, _ := mppRun(sc, 4, 1, cfg.degree, cfg.lewi, cfg.drom, nil)
		return t
	}, durCodec())
	for i, cfg := range fig9Configs() {
		res.Series = append(res.Series, Series{
			Label:  cfg.label,
			Points: []Point{{float64(i), times[i].Seconds()}},
		})
	}
	res.Notes = append(res.Notes,
		fmt.Sprintf("LeWI-only runs at %.0f%% of baseline (paper: 83%%)", 100*float64(times[1])/float64(times[0])),
		fmt.Sprintf("DROM-only runs at %.0f%% of baseline (paper: 65%%)", 100*float64(times[2])/float64(times[0])),
		fmt.Sprintf("LeWI+DROM runs at %.0f%% of baseline (paper: best)", 100*float64(times[3])/float64(times[0])),
	)
	return res
}

type fig9Config struct {
	label  string
	degree int
	lewi   bool
	drom   core.DROMMode
}

func fig9Configs() []fig9Config {
	return []fig9Config{
		// The baseline is the original MPI+OmpSs-2 execution without
		// task offloading (degree 1, no helpers).
		{"baseline", 1, false, core.DROMOff},
		{"lewi-only", 2, true, core.DROMOff},
		{"drom-only", 2, false, core.DROMGlobal},
		{"lewi+drom", 2, true, core.DROMGlobal},
	}
}

// Fig9TraceBundles runs the four Figure-9 configurations with a
// recorder attached (busy and owned timelines per node/apprank plus the
// event ring), for traceview.
func Fig9TraceBundles(sc Scale) []TraceBundle {
	return sweep.Map(sc.engine(), fig9Configs(), func(cfg fig9Config) TraceBundle {
		ob := obs.NewRecorder(-1)
		mppRun(sc, 4, 1, cfg.degree, cfg.lewi, cfg.drom, ob)
		return TraceBundle{Label: cfg.label, Obs: ob}
	})
}

// TALPReport runs MicroPP on four nodes with the full mechanism and
// renders the end-of-run TALP efficiency report (the DLB module the
// paper describes in §3.3 but does not evaluate). Efficiency is useful
// core-time over the apprank's time-averaged owned cores, which with
// DROM reassignment may span several nodes.
func TALPReport(sc Scale) string {
	ob := obs.NewRecorder(0)
	_, rt := mppRun(sc, 4, 1, 2, true, core.DROMGlobal, ob)
	end := ob.End()
	avgCores := map[int]float64{}
	for a := 0; a < rt.NumAppranks(); a++ {
		total := 0.0
		for n := 0; n < 4; n++ {
			total += ob.Owned(n, a).Average(0, end)
		}
		avgCores[a] = total
	}
	return rt.TALP().Snapshot(rt.Env().Now(), avgCores).String()
}
