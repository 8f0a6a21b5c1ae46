package balance

import (
	"fmt"
	"math"
	"sort"

	"ompsscluster/internal/flow"
)

// The oracles of the global policy: the solver as it was before probes
// were predicted from minimum cuts. Each bisection probe runs a real
// feasibility check, either a max flow or a simplex over the same
// formulation, and the allocation at t* is either the min-cost flow or
// the simplex minimising offloaded cores. The flow oracle must agree
// with GlobalPolicy bit for bit; the simplex oracle cross-checks the
// formulation.

// oracleAllocate solves p like GlobalPolicy.Allocate, with a real
// feasibility check per bisection probe. It returns the allocation, t*
// and the number of feasibility checks run.
func oracleAllocate(p *Problem, incentive float64, useSimplex bool) (Allocation, float64, int, error) {
	if err := p.Validate(); err != nil {
		return nil, 0, 0, err
	}
	v := buildOracleView(p, incentive)
	tStar := v.solveT(useSimplex)
	var extra []float64
	if useSimplex {
		x, err := v.minOffloadSimplex(tStar)
		if err != nil {
			return nil, 0, 0, fmt.Errorf("balance: simplex allocation at t*=%v: %w", tStar, err)
		}
		extra = x
	} else {
		extra = v.minOffloadFlow(tStar)
	}
	return v.roundAndFill(extra), tStar, v.probes, nil
}

// oracleView is the indexed form of a Problem used by the solvers.
type oracleView struct {
	p        *Problem
	nodeIdx  map[int]int // node id -> index in p.Nodes
	appranks []int       // sorted apprank ids
	appIdx   map[int]int
	workers  [][]int // apprank index -> worker indices (into p.Workers)
	onNode   [][]int // node index -> worker indices
	work     []float64

	// Solver scratch: the bisection in solveT rebuilds the same-shaped
	// flow network up to 60 times, so the graph and the demand/capacity
	// buffers are allocated once per view and reused across rebuilds.
	g     *flow.Graph
	dbuf  []float64 // demands
	cbuf  []float64 // residual capacities
	webuf []int     // per-worker edge ids

	probes int // feasibility checks run
}

func buildOracleView(p *Problem, incentive float64) *oracleView {
	v := &oracleView{p: p, nodeIdx: map[int]int{}, appIdx: map[int]int{}}
	for i, n := range p.Nodes {
		v.nodeIdx[n.ID] = i
	}
	seen := map[int]bool{}
	for _, w := range p.Workers {
		if !seen[w.Key.Apprank] {
			seen[w.Key.Apprank] = true
			v.appranks = append(v.appranks, w.Key.Apprank)
		}
	}
	sort.Ints(v.appranks)
	for i, a := range v.appranks {
		v.appIdx[a] = i
	}
	v.workers = make([][]int, len(v.appranks))
	v.onNode = make([][]int, len(p.Nodes))
	v.work = make([]float64, len(v.appranks))
	for wi, w := range p.Workers {
		ai := v.appIdx[w.Key.Apprank]
		v.workers[ai] = append(v.workers[ai], wi)
		ni := v.nodeIdx[w.Key.Node]
		v.onNode[ni] = append(v.onNode[ni], wi)
		if w.Home {
			v.work[ai] += w.Busy
		} else {
			v.work[ai] += w.Busy * (1 + incentive)
		}
	}
	return v
}

// demands returns each apprank's core demand beyond the one-per-worker
// floor at objective value t. The returned slice is the view's reusable
// buffer: valid until the next demands call.
func (v *oracleView) demands(t float64) []float64 {
	if v.dbuf == nil {
		v.dbuf = make([]float64, len(v.appranks))
	}
	d := v.dbuf
	for ai := range v.appranks {
		base := float64(len(v.workers[ai]))
		need := v.work[ai]/t - base
		if need > 0 {
			d[ai] = need
		} else {
			d[ai] = 0
		}
	}
	return d
}

// residualCap returns each node's capacity beyond the one-per-worker
// floor, in the view's reusable buffer (valid until the next call).
func (v *oracleView) residualCap() []float64 {
	if v.cbuf == nil {
		v.cbuf = make([]float64, len(v.p.Nodes))
	}
	caps := v.cbuf
	for ni, n := range v.p.Nodes {
		caps[ni] = float64(n.Cores - len(v.onNode[ni]))
	}
	return caps
}

// feasibleFlow reports whether the demands at t can be met, using max
// flow: source -> apprank (demand), apprank -> node (adjacency), node ->
// sink (residual capacity).
func (v *oracleView) feasibleFlow(t float64) bool {
	demands := v.demands(t)
	total := 0.0
	for _, d := range demands {
		total += d
	}
	if total == 0 {
		return true
	}
	g, src, sink, _ := v.buildFlowGraph(demands, false)
	return g.MaxFlow(src, sink) >= total-1e-7
}

// buildFlowGraph assembles the allocation network. When costed is true,
// helper edges cost 1 and home edges cost 0. It returns the per-worker
// edge ids. The graph and the edge-id slice are the view's reusable
// scratch: both are valid until the next buildFlowGraph call.
func (v *oracleView) buildFlowGraph(demands []float64, costed bool) (g *flow.Graph, src, sink int, workerEdge []int) {
	nApp, nNode := len(v.appranks), len(v.p.Nodes)
	if v.g == nil {
		v.g = flow.NewGraph(nApp + nNode + 2)
	} else {
		v.g.Reinit(nApp + nNode + 2)
	}
	g = v.g
	src = nApp + nNode
	sink = src + 1
	caps := v.residualCap()
	for ai, d := range demands {
		if d > 0 {
			g.AddEdge(src, ai, d, 0)
		}
	}
	if cap(v.webuf) < len(v.p.Workers) {
		v.webuf = make([]int, len(v.p.Workers))
	}
	workerEdge = v.webuf[:len(v.p.Workers)]
	for i := range workerEdge {
		workerEdge[i] = -1
	}
	for ai := range v.appranks {
		for _, wi := range v.workers[ai] {
			w := v.p.Workers[wi]
			ni := v.nodeIdx[w.Key.Node]
			cost := 0.0
			if costed && !w.Home {
				cost = 1.0
			}
			workerEdge[wi] = g.AddEdge(ai, nApp+ni, caps[ni], cost)
		}
	}
	for ni := range v.p.Nodes {
		g.AddEdge(nApp+ni, sink, caps[ni], 0)
	}
	return g, src, sink, workerEdge
}

// feasibleSimplex is the LP cross-validation of feasibleFlow.
func (v *oracleView) feasibleSimplex(t float64) bool {
	nw := len(v.p.Workers)
	prob := newSimplexProblem(nw)
	// Node capacities: sum of C_w on node <= cores (C here excludes the
	// floor of 1, so capacity is the residual).
	caps := v.residualCap()
	for ni := range v.p.Nodes {
		coef := make([]float64, nw)
		for _, wi := range v.onNode[ni] {
			coef[wi] = 1
		}
		prob.addConstraint(coef, relLE, caps[ni])
	}
	for ai, d := range v.demands(t) {
		if d <= 0 {
			continue
		}
		coef := make([]float64, nw)
		for _, wi := range v.workers[ai] {
			coef[wi] = 1
		}
		prob.addConstraint(coef, relGE, d)
	}
	sol, err := prob.solve()
	return err == nil && sol.Status == simplexOptimal
}

// minOffloadSimplex solves the allocation at t with the simplex solver,
// minimising offloaded cores. It returns per-worker extra cores (above
// the floor of one).
func (v *oracleView) minOffloadSimplex(t float64) ([]float64, error) {
	nw := len(v.p.Workers)
	prob := newSimplexProblem(nw)
	obj := make([]float64, nw)
	for wi, w := range v.p.Workers {
		if !w.Home {
			obj[wi] = 1
		}
	}
	prob.setObjective(obj)
	caps := v.residualCap()
	for ni := range v.p.Nodes {
		coef := make([]float64, nw)
		for _, wi := range v.onNode[ni] {
			coef[wi] = 1
		}
		prob.addConstraint(coef, relLE, caps[ni])
	}
	for ai, d := range v.demands(t) {
		if d <= 0 {
			continue
		}
		coef := make([]float64, nw)
		for _, wi := range v.workers[ai] {
			coef[wi] = 1
		}
		prob.addConstraint(coef, relGE, d)
	}
	sol, err := prob.solve()
	if err != nil {
		return nil, err
	}
	return sol.X, nil
}

// minOffloadFlow solves the allocation at t with min-cost max flow.
func (v *oracleView) minOffloadFlow(t float64) []float64 {
	demands := v.demands(t)
	g, src, sink, workerEdge := v.buildFlowGraph(demands, true)
	g.MinCostMaxFlow(src, sink)
	x := make([]float64, len(v.p.Workers))
	for wi, eid := range workerEdge {
		if eid >= 0 {
			x[wi] = g.Flow(eid)
		}
	}
	return x
}

// solveT finds the minimal feasible t by bisection.
func (v *oracleView) solveT(useSimplex bool) float64 {
	totalWork := 0.0
	for _, w := range v.work {
		totalWork += w
	}
	if totalWork <= 1e-12 {
		return 1 // any t; no demands
	}
	feasible := func(t float64) bool {
		v.probes++
		if useSimplex {
			return v.feasibleSimplex(t)
		}
		return v.feasibleFlow(t)
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
		reach := 0.0
		seen := map[int]bool{}
		for _, wi := range v.workers[ai] {
			id := v.p.Workers[wi].Key.Node
			if !seen[id] {
				seen[id] = true
				reach += float64(v.p.Nodes[v.nodeIdx[id]].Cores)
			}
		}
		if t := v.work[ai] / reach; t > lo {
			lo = t
		}
	}
	if lo > hi {
		lo = hi
	}
	if feasible(lo) {
		return lo
	}
	for iter := 0; iter < 60 && hi-lo > 1e-9*hi; iter++ {
		mid := 0.5 * (lo + hi)
		if feasible(mid) {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi
}

// roundAndFill converts fractional extra cores to an integer allocation.
// Per node: every worker gets its floor of one core; the solved extras
// are rounded with largest remainder; any remaining spare cores go to the
// node's home workers, so a balanced load converges to home-owned nodes
// with helpers at exactly one core (no spurious offloading, Figure 5(b)).
func (v *oracleView) roundAndFill(extra []float64) Allocation {
	alloc := make(Allocation, len(v.p.Workers))
	for ni, n := range v.p.Nodes {
		wis := v.onNode[ni]
		if len(wis) == 0 {
			continue
		}
		residual := n.Cores - len(wis)
		raw := make([]float64, len(wis))
		sumExtra := 0.0
		for i, wi := range wis {
			raw[i] = extra[wi]
			sumExtra += extra[wi]
		}
		m := int(math.Round(sumExtra))
		if m > residual {
			m = residual
		}
		shares := oracleApportion(raw, m)
		spare := residual - m
		// Spares go to home workers (evenly), falling back to every
		// worker when the node hosts only helpers.
		var homeRaw []float64
		var homeIdx []int
		for i, wi := range wis {
			if v.p.Workers[wi].Home {
				homeRaw = append(homeRaw, 1)
				homeIdx = append(homeIdx, i)
			}
		}
		if len(homeIdx) == 0 {
			for i := range wis {
				homeRaw = append(homeRaw, 1)
				homeIdx = append(homeIdx, i)
			}
		}
		for j, s := range oracleApportion(homeRaw, spare) {
			shares[homeIdx[j]] += s
		}
		for i, wi := range wis {
			alloc[v.p.Workers[wi].Key] = 1 + shares[i]
		}
	}
	return alloc
}

// oracleApportion rounds raw shares to integers summing exactly to total
// (largest-remainder, no floor). raw values must be non-negative; a zero
// raw vector splits total evenly.
func oracleApportion(raw []float64, total int) []int {
	n := len(raw)
	out := make([]int, n)
	if n == 0 || total <= 0 {
		return out
	}
	sum := 0.0
	for _, r := range raw {
		sum += r
	}
	frac := make([]float64, n)
	used := 0
	for i, r := range raw {
		share := float64(total) / float64(n)
		if sum > 0 {
			share = float64(total) * r / sum
		}
		fl := math.Floor(share + 1e-12)
		out[i] = int(fl)
		frac[i] = share - fl
		used += int(fl)
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(x, y int) bool { return frac[order[x]] > frac[order[y]] })
	for i := 0; i < total-used; i++ {
		out[order[i%n]]++
	}
	return out
}

// oracleLargestRemainder rounds shares proportional to raw to integers summing
// to total, with a floor of one per entry. Proportionality is preserved
// for entries above the floor: entries whose proportional share falls
// below one core are clamped to one and the rest re-apportioned.
func oracleLargestRemainder(raw []float64, total int) []int {
	n := len(raw)
	if total < n {
		panic(fmt.Sprintf("balance: cannot give %d entries a floor of 1 with %d units", n, total))
	}
	out := make([]int, n)
	active := make([]int, n)
	for i := range active {
		active[i] = i
	}
	budget := total
	// Iteratively clamp entries whose proportional share is below one.
	for {
		sum := 0.0
		for _, i := range active {
			sum += raw[i]
		}
		clamped := false
		next := active[:0]
		for _, i := range active {
			share := float64(budget) / float64(len(active))
			if sum > 0 {
				share = float64(budget) * raw[i] / sum
			}
			if share < 1 {
				out[i] = 1
				budget--
				clamped = true
			} else {
				next = append(next, i)
			}
		}
		active = next
		if !clamped || len(active) == 0 {
			break
		}
	}
	if len(active) == 0 {
		// Everything clamped; hand any leftovers out round-robin.
		for i := 0; budget > 0; i, budget = (i+1)%n, budget-1 {
			out[i]++
		}
		return out
	}
	// Largest-remainder rounding of the surviving proportional shares.
	sum := 0.0
	for _, i := range active {
		sum += raw[i]
	}
	frac := make(map[int]float64, len(active))
	used := 0
	for _, i := range active {
		share := float64(budget) / float64(len(active))
		if sum > 0 {
			share = float64(budget) * raw[i] / sum
		}
		fl := math.Floor(share + 1e-12)
		out[i] = int(fl)
		frac[i] = share - fl
		used += int(fl)
	}
	order := append([]int(nil), active...)
	sort.SliceStable(order, func(x, y int) bool { return frac[order[x]] > frac[order[y]] })
	for k := 0; k < budget-used; k++ {
		out[order[k%len(order)]]++
	}
	return out
}

// oracleLocal is LocalPolicy.Allocate as it was before the policies
// indexed problems by slice: a map per call, and a pass over every
// worker for each node.
func oracleLocal(p *Problem) (Allocation, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	alloc := make(Allocation, len(p.Workers))
	for _, n := range p.Nodes {
		var keys []WorkerKey
		var raw []float64
		totalBusy := 0.0
		for _, w := range p.Workers {
			if w.Key.Node != n.ID {
				continue
			}
			keys = append(keys, w.Key)
			b := w.Busy
			if w.Home {
				// An idle node gives its cores to home workers rather
				// than helpers; the epsilon only matters when every
				// worker on the node is idle.
				b += 1e-6
			}
			raw = append(raw, b)
			totalBusy += b
		}
		if len(keys) == 0 {
			continue
		}
		shares := oracleLargestRemainder(raw, n.Cores)
		for i, k := range keys {
			alloc[k] = shares[i]
		}
	}
	if err := checkAllocation(p, alloc); err != nil {
		return nil, err
	}
	return alloc, nil
}
