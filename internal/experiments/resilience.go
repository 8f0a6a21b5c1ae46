package experiments

import (
	"fmt"

	"ompsscluster/internal/cluster"
	"ompsscluster/internal/core"
	"ompsscluster/internal/faults"
	"ompsscluster/internal/simtime"
	"ompsscluster/internal/workloads/synthetic"
)

// The resilience sweep measures time-to-solution of the synthetic
// benchmark under a fault plan whose severity scales with an intensity
// parameter, with and without the balancing machinery. It is not a
// figure from the paper: it extends the evaluation to the failure modes
// a production deployment of the paper's design would face (degraded
// nodes, lost cores, flaky links, dead helpers) and shows that the
// LeWI + global-DROM stack also absorbs faults, not just imbalance.

// resilienceNodes is the fixed machine size of the sweep (one apprank
// per node, degree 3, like the acceptance tests of internal/core).
const resilienceNodes = 4

// resiliencePlan builds the fault plan at the given intensity f >= 0.
// f = 0 means no plan at all (the fault-free baseline, byte-identical
// to a run without the faults subsystem armed). Event times scale with
// the mean task duration so the plan lands mid-run at every Scale:
//
//   - node 1 slows to 1/(1+f) of nominal for a window;
//   - the 0-1 link gains delay, jitter, and a drop probability
//     min(0.08 f, 0.4);
//   - node 2 permanently loses one core (two at f >= 2);
//   - at f >= 1.5 node 3's helper workers are drained mid-run.
//
// Crashes are deliberately excluded: a crash aborts the application by
// design, so time-to-solution is undefined.
func resiliencePlan(sc Scale, f float64) *faults.Plan {
	if f <= 0 {
		return nil
	}
	mt := sc.MeanTask
	window := simtime.Duration(10 * float64(mt))
	p := &faults.Plan{
		Name: fmt.Sprintf("resilience-%.2g", f),
		Events: []faults.Event{
			{Kind: faults.Slow, At: 2 * mt, Until: 2*mt + window,
				Node: 1, Speed: 1 / (1 + f)},
			{Kind: faults.Link, At: mt, Until: mt + window,
				Node: 0, NodeB: 1,
				Delay:  mt / 20,
				Jitter: simtime.Duration(float64(mt/10) * f),
				Drop:   minF(0.08*f, 0.4)},
			{Kind: faults.CoreLoss, At: 3 * mt, Node: 2, Cores: 1 + int(f/2)},
		},
	}
	if f >= 1.5 {
		p.Events = append(p.Events, faults.Event{
			Kind: faults.Drain, At: 3 * mt, Node: 3,
		})
	}
	return p
}

func minF(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

// resilienceRun executes one run of the sweep's workload under the
// given plan and policy and returns the time-to-solution. The machine
// is built fresh for every run: fault plans mutate it (speeds, cores),
// so sharing one across runs would leak faults between configurations.
func resilienceRun(sc Scale, plan *faults.Plan, lewi bool, drom core.DROMMode) (simtime.Duration, *core.ClusterRuntime, error) {
	m := cluster.New(resilienceNodes, sc.CoresPerNode, cluster.DefaultNet())
	b := synthetic.New(synConfig(sc, 2.0), resilienceNodes, sc.CoresPerNode)
	rc := sc.config(m)
	rc.Degree = 3
	rc.LeWI = lewi
	rc.DROM = drom
	rc.Faults = plan
	rt, err := core.New(rc)
	if err != nil {
		return 0, nil, err
	}
	if err := rt.Run(b.Main()); err != nil {
		return 0, rt, err
	}
	return rt.Elapsed(), rt, nil
}

// resiliencePolicy is one series of the sweep.
type resiliencePolicy struct {
	label string
	lewi  bool
	drom  core.DROMMode
}

func resiliencePolicies() []resiliencePolicy {
	return []resiliencePolicy{
		{"static", false, core.DROMOff},
		{"lewi+global", true, core.DROMGlobal},
	}
}

// Resilience sweeps fault intensity and reports time-to-solution with
// the balancing machinery off ("static") and fully on ("lewi+global").
// Runs that fail with a typed error (deadlock, abort) contribute no
// point; the first such error lands on Result.Err with a note.
func Resilience(sc Scale) *Result {
	res := &Result{
		ID:     "resilience",
		Title:  "Resilience sweep: time-to-solution vs fault intensity",
		XLabel: "fault intensity",
		YLabel: "time to solution (s)",
	}
	intensities := []float64{0, 0.5, 1.0, 1.5, 2.0}
	type spec struct {
		pol resiliencePolicy
		f   float64
	}
	type outcome struct {
		y          float64
		reoffloads int64
		err        error
	}
	var specs []spec
	for _, pol := range resiliencePolicies() {
		for _, f := range intensities {
			specs = append(specs, spec{pol, f})
		}
	}
	type outMirror struct {
		Y          float64 `json:"y"`
		Reoffloads int64   `json:"reoffloads"`
		Err        string  `json:"err,omitempty"`
	}
	outs := mapSpecs(sc, specs, func(s spec) outcome {
		t, rt, err := resilienceRun(sc, resiliencePlan(sc, s.f), s.pol.lewi, s.pol.drom)
		if err != nil {
			return outcome{err: err}
		}
		return outcome{y: t.Seconds(), reoffloads: rt.Stats().Reoffloads}
	}, jsonCodec(
		func(o outcome) outMirror { return outMirror{o.y, o.reoffloads, errString(o.err)} },
		func(m outMirror) outcome { return outcome{y: m.Y, reoffloads: m.Reoffloads, err: errFromString(m.Err)} },
	))
	series := map[string]*Series{}
	res.Series = make([]Series, len(resiliencePolicies()))
	for i, pol := range resiliencePolicies() {
		res.Series[i] = Series{Label: pol.label}
		series[pol.label] = &res.Series[i]
	}
	var reoffloads int64
	for i, s := range specs {
		out := outs[i]
		if out.err != nil {
			if res.Err == nil {
				res.Err = out.err
			}
			res.Notes = append(res.Notes, fmt.Sprintf(
				"%s at intensity %g failed: %v", s.pol.label, s.f, out.err))
			continue
		}
		sr := series[s.pol.label]
		sr.Points = append(sr.Points, Point{s.f, out.y})
		reoffloads += out.reoffloads
	}
	res.Notes = append(res.Notes, fmt.Sprintf(
		"plan per intensity f: node 1 slowed to 1/(1+f), 0-1 link drops min(0.08f, 0.4) with jitter, node 2 loses 1-2 cores, node 3 drained at f >= 1.5; %d task re-offloads across the sweep",
		reoffloads))
	return res
}

// FaultDemo runs the synthetic workload once per policy under the given
// fault plan (the engine behind `lbsim -faults <plan|preset>`). Typed
// run errors — an AbortError from a crash plan, a DeadlockError — are
// reported on Result.Err with a note, never a panic or hang.
func FaultDemo(sc Scale, plan *faults.Plan) *Result {
	res := &Result{
		ID:     "faultdemo",
		Title:  fmt.Sprintf("Fault plan %q: time-to-solution by policy", plan.Name),
		XLabel: "policy (0=static, 1=lewi+global)",
		YLabel: "time to solution (s)",
	}
	type outcome struct {
		t     simtime.Duration
		stats core.RunStats
		err   error
	}
	type outMirror struct {
		T     simtime.Duration `json:"t"`
		Stats runStatsMirror   `json:"stats"`
		Err   string           `json:"err,omitempty"`
	}
	pols := resiliencePolicies()
	outs := mapSpecs(sc, pols, func(pol resiliencePolicy) outcome {
		t, rt, err := resilienceRun(sc, plan, pol.lewi, pol.drom)
		var st core.RunStats
		if rt != nil {
			st = rt.Stats()
		}
		return outcome{t: t, stats: st, err: err}
	}, jsonCodec(
		func(o outcome) outMirror { return outMirror{o.t, toStatsMirror(o.stats), errString(o.err)} },
		func(m outMirror) outcome {
			return outcome{t: m.T, stats: fromStatsMirror(m.Stats), err: errFromString(m.Err)}
		},
	))
	for i, pol := range pols {
		out := outs[i]
		if out.err != nil {
			if res.Err == nil {
				res.Err = out.err
			}
			res.Notes = append(res.Notes, fmt.Sprintf("%s: run failed: %v", pol.label, out.err))
			continue
		}
		res.Series = append(res.Series, Series{
			Label:  pol.label,
			Points: []Point{{float64(i), out.t.Seconds()}},
		})
		res.Notes = append(res.Notes, fmt.Sprintf(
			"%s: %v to solution, %d fault events, %d re-offloads",
			pol.label, out.t, out.stats.FaultEvents, out.stats.Reoffloads))
	}
	return res
}
