package balance

import (
	"math"

	"ompsscluster/internal/flow"
)

// GlobalPolicy is the global solver approach (§5.4.2). It gathers the
// total work per apprank (busy-core averages summed over the apprank's
// workers, offloaded work weighted by 1+Incentive) and minimises
// max_a work_a/cores_a subject to the expander-graph adjacency, one core
// per worker, and per-node capacity. A policy built as a literal solves
// each call in fresh buffers; NewGlobalPolicy's keeps them.
type GlobalPolicy struct {
	// Incentive is the own-node preference: offloaded busy cores are
	// counted as (1+Incentive) of work, so the solver avoids offloading
	// whenever it is free to. The paper uses 1e-6.
	Incentive float64

	v *view
}

// NewGlobalPolicy returns a global policy with the given incentive that
// reuses its view, flow network and buffers, and its returned
// Allocation, across calls: a result is valid until the next call.
// Copies share the buffers: use it from one goroutine at a time.
func NewGlobalPolicy(incentive float64) GlobalPolicy {
	return GlobalPolicy{Incentive: incentive, v: new(view)}
}

// prepared validates and indexes p in the policy's view, and sums each
// apprank's work, in p.Workers order, and each node's residual capacity.
func (g GlobalPolicy) prepared(p *Problem) (*view, error) {
	v := g.v
	if v == nil {
		v = new(view)
	}
	if err := v.index(p); err != nil {
		return nil, err
	}
	v.work = resize(v.work, len(v.appranks))
	for ai := range v.work {
		v.work[ai] = 0
	}
	for _, w := range v.p.Workers {
		ai := v.appAt[w.Key.Apprank-v.appBase]
		if w.Home {
			v.work[ai] += w.Busy
		} else {
			v.work[ai] += w.Busy * (1 + g.Incentive)
		}
	}
	v.caps = resize(v.caps, len(v.p.Nodes))
	for ni, n := range v.p.Nodes {
		v.caps[ni] = float64(n.Cores - len(v.onNode[ni]))
	}
	return v, nil
}

// Allocate runs the global policy.
func (g GlobalPolicy) Allocate(p *Problem) (Allocation, error) {
	v, err := g.prepared(p)
	if err != nil {
		return nil, err
	}
	v.minOffloadFlow(v.solveT())
	v.roundAndFill()
	return v.allocation()
}

// SolveObjective exposes the optimal max work/cores value (for tests and
// the convergence analysis).
func (g GlobalPolicy) SolveObjective(p *Problem) (float64, error) {
	v, err := g.prepared(p)
	if err != nil {
		return 0, err
	}
	return v.solveT(), nil
}

// demands fills v.demand with each apprank's core demand beyond the
// one-per-worker floor at objective value t, and returns their sum.
func (v *view) demands(t float64) float64 {
	v.demand = resize(v.demand, len(v.appranks))
	total := 0.0
	for ai := range v.appranks {
		need := v.work[ai]/t - float64(len(v.workers[ai]))
		if need > 0 {
			v.demand[ai] = need
		} else {
			v.demand[ai] = 0
		}
		total += v.demand[ai]
	}
	return total
}

// feasTol is the max-flow shortfall a feasible t may leave.
const feasTol = 1e-7

// feasible reports whether the demands at t can be met, using max flow:
// source -> apprank (demand), apprank -> node (adjacency), node -> sink
// (residual capacity). When it is not, the flow's minimum cut is left
// for cutBound.
func (v *view) feasible(t float64) bool {
	total := v.demands(t)
	if total == 0 {
		return true
	}
	src, sink := v.buildFlowGraph(false)
	v.flows++
	return v.g.MaxFlow(src, sink) >= total-feasTol
}

// buildFlowGraph assembles the allocation network for v.demand in the
// view's reusable graph, recording each worker's edge id in v.edge.
// When costed is true, helper edges cost 1 and home edges cost 0.
func (v *view) buildFlowGraph(costed bool) (src, sink int) {
	nApp, nNode := len(v.appranks), len(v.p.Nodes)
	if v.g == nil {
		v.g = flow.NewGraph(nApp + nNode + 2)
	} else {
		v.g.Reinit(nApp + nNode + 2)
	}
	g := v.g
	src = nApp + nNode
	sink = src + 1
	for ai, d := range v.demand {
		if d > 0 {
			g.AddEdge(src, ai, d, 0)
		}
	}
	v.edge = resize(v.edge, len(v.p.Workers))
	for ai := range v.appranks {
		for _, wi := range v.workers[ai] {
			ni := v.wNode[wi]
			cost := 0.0
			if costed && !v.p.Workers[wi].Home {
				cost = 1.0
			}
			v.edge[wi] = g.AddEdge(ai, nApp+ni, v.caps[ni], cost)
		}
	}
	for ni := range v.p.Nodes {
		g.AddEdge(nApp+ni, sink, v.caps[ni], 0)
	}
	return src, sink
}

// cutBound returns θ = work(S) / (|W_S| + cap(N(S)) + feasTol) for the
// apprank set S on the source side of the minimum cut an infeasible
// probe left, or 0 if S is empty. It is a Hall bound: at any t, the
// appranks of S demand at least work(S)/t - |W_S| cores beyond their
// floors, their neighbour nodes N(S) can take only cap(N(S)) of it, and
// the max flow falls short by the difference. Below θ that shortfall
// exceeds feasTol, so every t < θ is infeasible.
func (v *view) cutBound() float64 {
	for i := range v.mark {
		v.mark[i] = -1
	}
	work, denom := 0.0, feasTol
	for ai := range v.appranks {
		if !v.g.SourceSide(ai) {
			continue
		}
		work += v.work[ai]
		for _, wi := range v.workers[ai] {
			denom++
			if ni := v.wNode[wi]; v.mark[ni] < 0 {
				v.mark[ni] = 0
				denom += v.caps[ni]
			}
		}
	}
	return work / denom
}

// minOffloadFlow solves the allocation at t with min-cost max flow into
// v.extra (per-worker cores above the floor of one).
func (v *view) minOffloadFlow(t float64) {
	v.demands(t)
	src, sink := v.buildFlowGraph(true)
	v.g.MinCostMaxFlow(src, sink)
	v.extra = resize(v.extra, len(v.p.Workers))
	for wi, eid := range v.edge {
		v.extra[wi] = v.g.Flow(eid)
	}
}

// Probe prediction parameters of solveT.
const (
	// maxProbes caps the bisection's steps, and the Newton steps.
	maxProbes = 60
	// cutBand is the relative half-width of the band around a cut's θ
	// inside which a probe is settled by a real max flow: outside it the
	// cut's Hall margin (below) or a feasible probe (above) decides.
	cutBand = 1e-10
)

// solveT finds the minimal feasible t. The result is bit for bit that
// of a bisection from [lo, hi] that runs a max flow per probe; the flows
// are mostly predicted instead.
//
// Newton steps on minimum cuts (Gallo, Grigoriadis and Tarjan's
// parametric min cut) come first: from an infeasible t, the cut's θ
// (cutBound) proves every t < θ infeasible, and a probe just above θ,
// at θ(1+cutBand), either succeeds, proving every larger t feasible,
// or fails with a cut of larger θ. A few steps pin the threshold to a
// band of relative width 2·cutBand. The bisection then replays with the
// same lo, hi and midpoints, running a max flow only for a midpoint
// inside that band. If the steps stall (a cut that does not raise θ,
// possible only through rounding), midpoints above the band also run a
// real flow, so the result never rests on an unproven prediction.
func (v *view) solveT() float64 {
	totalWork := 0.0
	for _, w := range v.work {
		totalWork += w
	}
	if totalWork <= 1e-12 {
		return 1 // any t; no demands
	}
	// Upper bound: demands vanish when every apprank's work fits its
	// one-core-per-worker floor.
	hi := 1e-9
	for ai := range v.appranks {
		if t := v.work[ai] / float64(len(v.workers[ai])); t > hi {
			hi = t
		}
	}
	// Lower bound: total capacity, and each apprank's reachable capacity.
	totalCores := 0.0
	for _, n := range v.p.Nodes {
		totalCores += float64(n.Cores)
	}
	lo := totalWork / totalCores
	for ai := range v.appranks {
		reach := 0.0 // an apprank's workers are on distinct nodes
		for _, wi := range v.workers[ai] {
			reach += float64(v.p.Nodes[v.wNode[wi]].Cores)
		}
		if t := v.work[ai] / reach; t > lo {
			lo = t
		}
	}
	if lo > hi {
		lo = hi
	}
	if v.feasible(lo) {
		return lo
	}
	// tInf is the largest t a max flow found infeasible, tFeas the
	// smallest it found feasible, and theta the largest cut bound.
	tInf, tFeas := lo, math.Inf(1)
	theta := v.cutBound()
	for k := 1; k < maxProbes; k++ {
		t := theta * (1 + cutBand)
		if !(t > tInf) {
			break // stalled
		}
		if v.feasible(t) {
			tFeas = t
			break
		}
		tInf = t
		theta = math.Max(theta, v.cutBound())
	}
	for iter := 0; iter < maxProbes && hi-lo > 1e-9*hi; iter++ {
		mid := 0.5 * (lo + hi)
		var ok bool
		switch {
		case mid <= tInf || mid < theta*(1-cutBand):
			ok = false
		case mid >= tFeas:
			ok = true
		default:
			// In the band, or above it after a stall. The bisection
			// never probes outside (lo, hi) again, so this probe need
			// not update tInf or tFeas.
			ok = v.feasible(mid)
		}
		if ok {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi
}

// roundAndFill converts v.extra to an integer allocation in v.cores.
// Per node: every worker gets its floor of one core; the solved extras
// are rounded with largest remainder; any remaining spare cores go to the
// node's home workers, so a balanced load converges to home-owned nodes
// with helpers at exactly one core (no spurious offloading, Figure 5(b)).
func (v *view) roundAndFill() {
	v.cores = resize(v.cores, len(v.p.Workers))
	for ni, n := range v.p.Nodes {
		wis := v.onNode[ni]
		if len(wis) == 0 {
			continue
		}
		v.roundingScratch(len(wis))
		residual := n.Cores - len(wis)
		sumExtra := 0.0
		for i, wi := range wis {
			v.raw[i] = v.extra[wi]
			sumExtra += v.extra[wi]
		}
		m := int(math.Round(sumExtra))
		if m > residual {
			m = residual
		}
		apportionInto(v.shares, v.raw, m, v.frac, v.order)
		for i, wi := range wis {
			v.cores[wi] = 1 + v.shares[i]
		}
		// Spares go to home workers (evenly), falling back to every
		// worker when the node hosts only helpers.
		k := 0
		for _, wi := range wis {
			if v.p.Workers[wi].Home {
				v.pick[k] = wi
				k++
			}
		}
		if k == 0 {
			k = copy(v.pick, wis)
		}
		for j := range v.pick[:k] {
			v.raw[j] = 1
		}
		apportionInto(v.shares[:k], v.raw[:k], residual-m, v.frac[:k], v.order[:k])
		for j, wi := range v.pick[:k] {
			v.cores[wi] += v.shares[j]
		}
	}
}
