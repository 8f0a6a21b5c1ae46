package experiments

import (
	"fmt"

	"ompsscluster/internal/balance"
	"ompsscluster/internal/cluster"
	"ompsscluster/internal/core"
	"ompsscluster/internal/faults"
	"ompsscluster/internal/obs"
	"ompsscluster/internal/simtime"
	"ompsscluster/internal/sweep"
	"ompsscluster/internal/workloads/synthetic"
)

// The policies sweep compares the dynamic loop self-scheduling family
// (static chunking, guided, factoring, weighted factoring, and the
// two-level scheme with LeWI below) against the paper's reactive
// lewi+global stack, across imbalance levels, a slow node, and the
// resilience sweep's fault plans. It extends the evaluation with the
// classic self-scheduling baselines the paper's related work compares
// against: guided and factoring assume homogeneous workers, so their
// degradation on heterogeneous core ownership is a finding, not a bug;
// weighted factoring and the two-level scheme are the fixes.

// policyNodes is the fixed machine size of the sweep (matching the
// resilience sweep: one apprank per node, degree 3).
const policyNodes = 4

// policyScenario is one x position of the sweep.
type policyScenario struct {
	label     string
	imbalance float64
	slow      bool    // node 1 at 0.6 speed, heaviest apprank pinned there
	fault     float64 // resiliencePlan intensity; 0 = no plan
}

func policyScenarios() []policyScenario {
	return []policyScenario{
		{"imb 1.0", 1.0, false, 0},
		{"imb 2.0", 2.0, false, 0},
		{"imb 3.0", 3.0, false, 0},
		{"slow node, imb 2.0", 2.0, true, 0},
		{"faults f=0.5", 2.0, false, 0.5},
		{"faults f=1.5", 2.0, false, 1.5},
	}
}

// policyConfig is one series: a scheduling policy under test.
type policyConfig struct {
	label string
	sched balance.SelfSched
	lewi  bool
	drom  core.DROMMode
}

// policyConfigs lists the compared policies. The chunking policies run
// without DROM so the chunk sizing itself carries the balancing;
// two-level adds LeWI below, and lewi+global is the paper's stack.
func policyConfigs() []policyConfig {
	return []policyConfig{
		{"static-chunk", balance.SelfSchedStatic, false, core.DROMOff},
		{"guided", balance.SelfSchedGuided, false, core.DROMOff},
		{"factoring", balance.SelfSchedFactoring, false, core.DROMOff},
		{"wfactoring", balance.SelfSchedWeighted, false, core.DROMOff},
		{"twolevel", balance.SelfSchedTwoLevel, true, core.DROMOff},
		{"lewi+global", balance.SelfSchedOff, true, core.DROMGlobal},
	}
}

// policyConfigFor resolves a -policy flag name to its sweep series
// configuration (the twolevel and chunking entries), so the lbsim demo
// and the sweep agree on what each name means.
func policyConfigFor(name string) (policyConfig, error) {
	kind, err := balance.ParseSelfSched(name)
	if err != nil {
		return policyConfig{}, err
	}
	if kind == balance.SelfSchedOff {
		return policyConfig{}, fmt.Errorf("experiments: %q is not a runnable policy (it disables self-scheduling)", name)
	}
	for _, pc := range policyConfigs() {
		if pc.sched == kind {
			return pc, nil
		}
	}
	return policyConfig{}, fmt.Errorf("experiments: policy %q has no sweep configuration", name)
}

// policyRun executes one (scenario, policy) cell and returns the
// time-to-solution. The machine is built fresh per run — scenario and
// fault plans mutate it (speeds, cores), so sharing one across
// concurrent runs would leak mutations between cells.
func policyRun(sc Scale, scn policyScenario, plan *faults.Plan, pol policyConfig, ob *obs.Recorder) (simtime.Duration, *core.ClusterRuntime, error) {
	m := cluster.New(policyNodes, sc.CoresPerNode, cluster.DefaultNet())
	synCfg := synConfig(sc, scn.imbalance)
	if scn.slow {
		m.SetSpeed(1, 0.6)
		synCfg.HeaviestApprank = 1
	}
	b := synthetic.New(synCfg, policyNodes, sc.CoresPerNode)
	rc := sc.config(m)
	rc.Degree = 3
	rc.LeWI = pol.lewi
	rc.DROM = pol.drom
	rc.SelfSched = pol.sched
	rc.Faults = plan
	rc.Obs = ob
	rt, err := core.New(rc)
	if err != nil {
		return 0, nil, err
	}
	if err := rt.Run(b.Main()); err != nil {
		return 0, rt, err
	}
	return rt.Elapsed(), rt, nil
}

// Policies sweeps the self-scheduling family and the lewi+global
// baseline over the scenarios (x = scenario index; the note maps
// indices to labels). Runs that fail with a typed error contribute no
// point; the first error lands on Result.Err with a note.
func Policies(sc Scale) *Result {
	res := &Result{
		ID:     "policies",
		Title:  "Self-scheduling policy family vs lewi+global: time-to-solution by scenario",
		XLabel: "scenario",
		YLabel: "time to solution (s)",
	}
	scns := policyScenarios()
	pols := policyConfigs()
	type spec struct {
		pol policyConfig
		scn policyScenario
		x   float64
	}
	type outcome struct {
		y      float64
		grants int64
		err    error
	}
	var specs []spec
	for _, pol := range pols {
		for i, scn := range scns {
			specs = append(specs, spec{pol, scn, float64(i)})
		}
	}
	type outMirror struct {
		Y      float64 `json:"y"`
		Grants int64   `json:"grants"`
		Err    string  `json:"err,omitempty"`
	}
	outs := mapSpecs(sc, specs, func(s spec) outcome {
		t, rt, err := policyRun(sc, s.scn, resiliencePlan(sc, s.scn.fault), s.pol, nil)
		if err != nil {
			return outcome{err: err}
		}
		return outcome{y: t.Seconds(), grants: rt.Stats().ChunkGrants}
	}, jsonCodec(
		func(o outcome) outMirror { return outMirror{o.y, o.grants, errString(o.err)} },
		func(m outMirror) outcome { return outcome{y: m.Y, grants: m.Grants, err: errFromString(m.Err)} },
	))
	series := map[string]*Series{}
	res.Series = make([]Series, len(pols))
	for i, pol := range pols {
		res.Series[i] = Series{Label: pol.label}
		series[pol.label] = &res.Series[i]
	}
	var grants int64
	for i, s := range specs {
		out := outs[i]
		if out.err != nil {
			if res.Err == nil {
				res.Err = out.err
			}
			res.Notes = append(res.Notes, fmt.Sprintf(
				"%s on %q failed: %v", s.pol.label, s.scn.label, out.err))
			continue
		}
		sr := series[s.pol.label]
		sr.Points = append(sr.Points, Point{s.x, out.y})
		grants += out.grants
	}
	for i, scn := range scns {
		res.Notes = append(res.Notes, fmt.Sprintf("x=%d: %s", i, scn.label))
	}
	res.Notes = append(res.Notes, fmt.Sprintf(
		"%d chunk-server grants across the sweep; guided/factoring are deliberately weight-blind (classic homogeneous-worker formulations)", grants))
	return res
}

// PolicyDemo runs the synthetic workload once under the named
// self-scheduling policy and once under the lewi+global baseline
// (the engine behind `lbsim -policy <name>`), optionally under a fault
// plan. Typed run errors land on Result.Err with a note.
func PolicyDemo(sc Scale, policy string, plan *faults.Plan) (*Result, error) {
	pc, err := policyConfigFor(policy)
	if err != nil {
		return nil, err
	}
	title := fmt.Sprintf("Policy %q vs lewi+global: time-to-solution", policy)
	if plan != nil {
		title = fmt.Sprintf("Policy %q vs lewi+global under fault plan %q: time-to-solution", policy, plan.Name)
	}
	res := &Result{
		ID:     "policydemo",
		Title:  title,
		XLabel: fmt.Sprintf("policy (0=%s, 1=lewi+global)", pc.label),
		YLabel: "time to solution (s)",
	}
	scn := policyScenario{label: "imb 2.0", imbalance: 2.0}
	pols := []policyConfig{pc, {"lewi+global", balance.SelfSchedOff, true, core.DROMGlobal}}
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
	outs := mapSpecs(sc, pols, func(pol policyConfig) outcome {
		t, rt, err := policyRun(sc, scn, plan, pol, nil)
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
			"%s: %v to solution, %d chunk grants, %d fault events, %d re-offloads",
			pol.label, out.t, out.stats.ChunkGrants, out.stats.FaultEvents, out.stats.Reoffloads))
	}
	return res, nil
}

// PoliciesTraceBundles runs each policy configuration at the imbalanced
// scenario with a recorder attached, for traceview.
func PoliciesTraceBundles(sc Scale) []TraceBundle {
	scn := policyScenario{label: "imb 2.0", imbalance: 2.0}
	return sweep.Map(sc.engine(), policyConfigs(), func(pol policyConfig) TraceBundle {
		ob := obs.NewRecorder(-1)
		if _, _, err := policyRun(sc, scn, nil, pol, ob); err != nil {
			panic(fmt.Sprintf("experiments: traced policies run %s: %v", pol.label, err))
		}
		return TraceBundle{Label: pol.label, Obs: ob}
	})
}
