// Package balance implements the paper's two DROM core-allocation
// policies (§5.4).
//
// The local convergence policy adjusts each node independently: core
// ownership is set proportional to each worker's windowed average busy
// cores, with a floor of one core per worker.
//
// The global solver policy minimises max_a (work_a / cores_a) over all
// appranks subject to: every worker owns at least one core, the cores
// owned on each node sum to the node's core count, and an apprank may own
// cores only on nodes adjacent to it in the expander graph. The paper
// solves a linear program with CVXOPT; here the quasiconvex program is
// solved exactly on the objective value t, each feasibility subproblem
// being a max flow. Newton steps on the minimum cuts of infeasible probes
// (parametric min cut) find the threshold in a few flows, and a
// bisection over t then replays with its probes predicted from the cut,
// so the result is bit for bit the plain bisection's. The own-node
// incentive (offloaded work weighted 1+1e-6, §5.4.2) is a min-cost flow
// at the optimal t. The tests keep the plain bisection and a dense
// simplex over the same formulation (simplex_test.go) as oracles.
//
// Both policies index the problem by slice, in buffers that a policy
// built by NewLocalPolicy or NewGlobalPolicy keeps between calls, so a
// policy tick allocates nothing once the problem's shape has been seen.
package balance

import (
	"fmt"
	"math"

	"ompsscluster/internal/flow"
)

// WorkerKey identifies apprank Apprank's worker on node Node.
type WorkerKey struct {
	Apprank, Node int
}

func (k WorkerKey) String() string { return fmt.Sprintf("a%d@n%d", k.Apprank, k.Node) }

// WorkerLoad is the policy-facing view of one worker.
type WorkerLoad struct {
	Key WorkerKey
	// Busy is the windowed average number of busy cores (§5.4).
	Busy float64
	// Home marks the apprank's main worker (its own node).
	Home bool
}

// NodeInfo describes one node's capacity.
type NodeInfo struct {
	ID    int
	Cores int
}

// Problem is the input to an allocation policy.
type Problem struct {
	Nodes   []NodeInfo
	Workers []WorkerLoad
}

// Allocation maps each worker to its new core ownership.
type Allocation map[WorkerKey]int

// maxIDSpan bounds the range of node ids and of apprank ids in one
// problem: the policies look ids up in dense slices over that range.
const maxIDSpan = 1 << 16

// view is the slice-indexed form of a Problem shared by both policies.
// index rebuilds it in place, so a view kept across calls allocates only
// when the problem grows.
type view struct {
	p *Problem

	// Dense id lookups: nodeAt[id-nodeBase] is the node's index in
	// p.Nodes and appAt[id-appBase] the apprank's index in appranks, or
	// -1 for an unused id.
	nodeBase, appBase int
	nodeAt, appAt     []int

	appranks []int   // apprank ids, ascending
	wNode    []int   // worker index -> node index
	workers  [][]int // apprank index -> worker indices, in p.Workers order
	onNode   [][]int // node index -> worker indices, in p.Workers order

	cores []int      // the allocation, indexed like p.Workers
	alloc Allocation // the allocation as returned, reused

	// Scratch: a per-node mark, and rounding buffers for one node's
	// workers.
	mark                []int
	raw, frac           []float64
	shares, order, pick []int

	// Global-policy state (global.go).
	work   []float64 // per apprank: busy cores, offloaded ones weighted 1+Incentive
	caps   []float64 // per node: cores beyond the one-per-worker floors
	demand []float64 // per apprank: demand at the last probe
	edge   []int     // per worker: its apprank->node edge id
	extra  []float64 // per worker: cores above the floor at t*
	g      *flow.Graph
	flows  int // feasibility max flows run, for BenchmarkGlobalFlow
}

// resize returns s with length n, reallocating only when it is too short.
// The contents are unspecified.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// dense returns s resized to the id range [lo, hi] and filled with -1, or
// an error naming what the ids are of if the range is too wide.
func dense(s []int, lo, hi int, what string) ([]int, error) {
	if hi-lo >= maxIDSpan {
		return s, fmt.Errorf("balance: %s ids span %d..%d, more than %d values", what, lo, hi, maxIDSpan)
	}
	s = resize(s, hi-lo+1)
	for i := range s {
		s[i] = -1
	}
	return s, nil
}

// groups returns g resized to n empty groups, keeping their storage.
func groups(g [][]int, n int) [][]int {
	if cap(g) < n {
		g = append(g[:cap(g)], make([][]int, n-cap(g))...)
	}
	g = g[:n]
	for i := range g {
		g[i] = g[i][:0]
	}
	return g
}

// Validate checks structural soundness of a problem: known, distinct
// nodes, at most one home worker per apprank, at most one worker per
// (apprank, node), and at least as many cores as workers per node (every
// worker must be able to own one core).
func (p *Problem) Validate() error {
	return new(view).index(p)
}

// index validates p and rebuilds the view for it.
func (v *view) index(p *Problem) (err error) {
	v.p = p
	lo, hi := 0, -1
	for i, n := range p.Nodes {
		if n.Cores <= 0 {
			return fmt.Errorf("balance: node %d has %d cores", n.ID, n.Cores)
		}
		if i == 0 {
			lo, hi = n.ID, n.ID
		}
		lo, hi = min(lo, n.ID), max(hi, n.ID)
	}
	v.nodeBase = lo
	if v.nodeAt, err = dense(v.nodeAt, lo, hi, "node"); err != nil {
		return err
	}
	for i, n := range p.Nodes {
		if v.nodeAt[n.ID-lo] >= 0 {
			return fmt.Errorf("balance: node %d listed twice", n.ID)
		}
		v.nodeAt[n.ID-lo] = i
	}
	v.wNode = resize(v.wNode, len(p.Workers))
	for wi, w := range p.Workers {
		id := w.Key.Node - v.nodeBase
		if id < 0 || id >= len(v.nodeAt) || v.nodeAt[id] < 0 {
			return fmt.Errorf("balance: worker %v on unknown node", w.Key)
		}
		if w.Busy < 0 {
			return fmt.Errorf("balance: worker %v has negative busy %v", w.Key, w.Busy)
		}
		v.wNode[wi] = v.nodeAt[id]
		if wi == 0 {
			lo, hi = w.Key.Apprank, w.Key.Apprank
		}
		lo, hi = min(lo, w.Key.Apprank), max(hi, w.Key.Apprank)
	}
	v.appBase = lo
	if v.appAt, err = dense(v.appAt, lo, hi, "apprank"); err != nil {
		return err
	}
	for _, w := range p.Workers {
		v.appAt[w.Key.Apprank-lo] = 0
	}
	v.appranks = v.appranks[:0]
	for i, seen := range v.appAt {
		if seen == 0 {
			v.appAt[i] = len(v.appranks)
			v.appranks = append(v.appranks, lo+i)
		}
	}
	v.workers = groups(v.workers, len(v.appranks))
	v.onNode = groups(v.onNode, len(p.Nodes))
	for wi, w := range p.Workers {
		ai := v.appAt[w.Key.Apprank-lo]
		v.workers[ai] = append(v.workers[ai], wi)
		v.onNode[v.wNode[wi]] = append(v.onNode[v.wNode[wi]], wi)
	}
	v.mark = resize(v.mark, len(p.Nodes))
	for i := range v.mark {
		v.mark[i] = -1
	}
	for ai, a := range v.appranks {
		homes := 0
		for _, wi := range v.workers[ai] {
			if p.Workers[wi].Home {
				homes++
			}
			if v.mark[v.wNode[wi]] == ai {
				return fmt.Errorf("balance: worker %v listed twice", p.Workers[wi].Key)
			}
			v.mark[v.wNode[wi]] = ai
		}
		if homes > 1 {
			return fmt.Errorf("balance: apprank %d has %d home workers", a, homes)
		}
	}
	for ni, n := range p.Nodes {
		if k := len(v.onNode[ni]); k > n.Cores {
			return fmt.Errorf("balance: node %d hosts %d workers but only %d cores", n.ID, k, n.Cores)
		}
	}
	return nil
}

// allocation checks v.cores (>= 1 core per worker and exact per-node
// sums) and returns it as the view's reused Allocation.
func (v *view) allocation() (Allocation, error) {
	for ni, n := range v.p.Nodes {
		sum := 0
		for _, wi := range v.onNode[ni] {
			if c := v.cores[wi]; c < 1 {
				return nil, fmt.Errorf("balance: worker %v owns %d cores", v.p.Workers[wi].Key, c)
			}
			sum += v.cores[wi]
		}
		if sum != n.Cores {
			return nil, fmt.Errorf("balance: node %d ownership sums to %d, want %d", n.ID, sum, n.Cores)
		}
	}
	if v.alloc == nil {
		v.alloc = make(Allocation, len(v.p.Workers))
	}
	clear(v.alloc)
	for wi, w := range v.p.Workers {
		v.alloc[w.Key] = v.cores[wi]
	}
	return v.alloc, nil
}

// roundingScratch sizes the per-node rounding buffers for n workers.
func (v *view) roundingScratch(n int) {
	v.raw = resize(v.raw, n)
	v.frac = resize(v.frac, n)
	v.shares = resize(v.shares, n)
	v.order = resize(v.order, n)
	v.pick = resize(v.pick, n)
}

// largestRemainderInto rounds shares proportional to raw into out, as
// integers summing to total with a floor of one per entry.
// Proportionality is preserved for entries above the floor: entries
// whose proportional share falls below one core are clamped to one and
// the rest re-apportioned. frac and active are scratch; all four slices
// have the same length.
func largestRemainderInto(out []int, raw []float64, total int, frac []float64, active []int) {
	n := len(raw)
	if total < n {
		panic(fmt.Sprintf("balance: cannot give %d entries a floor of 1 with %d units", n, total))
	}
	for i := range out {
		out[i] = 0
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
		return
	}
	// Largest-remainder rounding of the surviving proportional shares.
	sum := 0.0
	for _, i := range active {
		sum += raw[i]
	}
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
	sortByFracDesc(active, frac)
	for k := 0; k < budget-used; k++ {
		out[active[k%len(active)]]++
	}
}

// sortByFracDesc stably sorts the indices in order by descending
// frac[index] (insertion sort: a node's workers are few).
func sortByFracDesc(order []int, frac []float64) {
	for i := 1; i < len(order); i++ {
		for j := i; j > 0 && frac[order[j-1]] < frac[order[j]]; j-- {
			order[j-1], order[j] = order[j], order[j-1]
		}
	}
}

// LocalPolicy is the local convergence approach (§5.4.1): each node sets
// ownership proportional to its workers' busy averages, floor one core.
// The zero value solves each call in fresh buffers.
type LocalPolicy struct {
	v *view
}

// NewLocalPolicy returns a local policy that reuses its buffers, and its
// returned Allocation, across calls: a result is valid until the next
// call. Copies share the buffers: use it from one goroutine at a time.
func NewLocalPolicy() LocalPolicy { return LocalPolicy{v: new(view)} }

// Allocate computes the new ownership for every worker, node by node.
func (l LocalPolicy) Allocate(p *Problem) (Allocation, error) {
	v := l.v
	if v == nil {
		v = new(view)
	}
	if err := v.index(p); err != nil {
		return nil, err
	}
	v.cores = resize(v.cores, len(p.Workers))
	for ni, n := range p.Nodes {
		wis := v.onNode[ni]
		if len(wis) == 0 {
			continue
		}
		v.roundingScratch(len(wis))
		for i, wi := range wis {
			w := p.Workers[wi]
			b := w.Busy
			if w.Home {
				// An idle node gives its cores to home workers rather
				// than helpers; the epsilon only matters when every
				// worker on the node is idle.
				b += 1e-6
			}
			v.raw[i] = b
		}
		largestRemainderInto(v.shares, v.raw, n.Cores, v.frac, v.order)
		for i, wi := range wis {
			v.cores[wi] = v.shares[i]
		}
	}
	return v.allocation()
}
