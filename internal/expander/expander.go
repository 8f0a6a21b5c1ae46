// Package expander generates the bipartite biregular expander graphs of
// §5.2 of the paper: one partition is the application ranks (appranks), the
// other is the compute nodes, and an edge (a, n) means apprank a may
// execute tasks on node n. Each apprank has exactly Degree incident edges
// (the "offloading degree"), the first of which is its home node; each node
// has exactly Appranks*Degree/Nodes incident edges.
//
// Random bipartite biregular graphs are expanders with high probability;
// generation retries with local repair until the constraints hold, and
// small graphs can be validated by computing the vertex isoperimetric
// number exactly. Graphs are cached by a Store so each configuration
// is generated only once, as in the paper.
package expander

import (
	"fmt"
	"math/bits"
	"math/rand"
	"sort"
)

// Params selects a graph configuration.
type Params struct {
	// Appranks is the number of application ranks (left partition size).
	Appranks int
	// Nodes is the number of compute nodes (right partition size).
	// Appranks must be a multiple of Nodes.
	Nodes int
	// Degree is the offloading degree: the number of nodes (including the
	// home node) on which each apprank can execute tasks. Degree 1 means
	// no offloading.
	Degree int
	// Seed drives the random generation; the same Params always produce
	// the same graph.
	Seed int64
	// Shape selects the graph family; the zero value is ShapeExpander.
	Shape Shape
}

// Shape is a graph family. Random expanders are the paper's design; rings
// and full bipartite graphs exist for the ablation study.
type Shape int

const (
	// ShapeExpander is a random bipartite biregular graph (the default).
	ShapeExpander Shape = iota
	// ShapeRing connects each apprank to Degree consecutive nodes
	// starting at its home node.
	ShapeRing
	// ShapeFull connects each apprank to every node; Degree is forced to
	// Nodes.
	ShapeFull
)

func (s Shape) String() string {
	switch s {
	case ShapeExpander:
		return "expander"
	case ShapeRing:
		return "ring"
	case ShapeFull:
		return "full"
	}
	return fmt.Sprintf("Shape(%d)", int(s))
}

// Graph is a bipartite biregular graph between appranks and nodes.
type Graph struct {
	Appranks int
	Nodes    int
	Degree   int
	// Adj[a] lists the nodes adjacent to apprank a; Adj[a][0] is always
	// a's home node.
	Adj [][]int
}

// RanksPerNode returns the number of appranks homed on each node.
func (p Params) RanksPerNode() int { return p.Appranks / p.Nodes }

// HomeNode returns the home node of apprank a under the blocked placement
// used throughout: consecutive appranks share a node.
func (p Params) HomeNode(a int) int { return a / p.RanksPerNode() }

func (p Params) validate() error {
	if p.Appranks <= 0 || p.Nodes <= 0 {
		return fmt.Errorf("expander: non-positive partition sizes %d x %d", p.Appranks, p.Nodes)
	}
	if p.Appranks%p.Nodes != 0 {
		return fmt.Errorf("expander: %d appranks not a multiple of %d nodes", p.Appranks, p.Nodes)
	}
	if p.Shape == ShapeFull {
		return nil
	}
	if p.Degree < 1 || p.Degree > p.Nodes {
		return fmt.Errorf("expander: degree %d out of range [1, %d]", p.Degree, p.Nodes)
	}
	return nil
}

// Generate builds the graph described by p.
func Generate(p Params) (*Graph, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	switch p.Shape {
	case ShapeRing:
		return generateRing(p), nil
	case ShapeFull:
		return generateFull(p), nil
	}
	return generateExpander(p)
}

// MustGenerate is Generate, panicking on error. Intended for experiment
// setup code with known-good parameters.
func MustGenerate(p Params) *Graph {
	g, err := Generate(p)
	if err != nil {
		panic(err)
	}
	return g
}

func generateRing(p Params) *Graph {
	g := newGraph(p)
	for a := 0; a < p.Appranks; a++ {
		home := p.HomeNode(a)
		g.Adj[a] = append(g.Adj[a], home)
		for k := 1; k < p.Degree; k++ {
			g.Adj[a] = append(g.Adj[a], (home+k)%p.Nodes)
		}
	}
	return g
}

func generateFull(p Params) *Graph {
	p.Degree = p.Nodes
	g := newGraph(p)
	for a := 0; a < p.Appranks; a++ {
		home := p.HomeNode(a)
		g.Adj[a] = append(g.Adj[a], home)
		for n := 0; n < p.Nodes; n++ {
			if n != home {
				g.Adj[a] = append(g.Adj[a], n)
			}
		}
	}
	return g
}

func newGraph(p Params) *Graph {
	return &Graph{
		Appranks: p.Appranks,
		Nodes:    p.Nodes,
		Degree:   p.Degree,
		Adj:      make([][]int, p.Appranks),
	}
}

// generateExpander builds a random bipartite biregular graph. Large graphs
// are expanders with high probability, so the first connected candidate
// from the configuration model (with local repair) is returned. Small
// graphs (<= 20 appranks), as in the paper, go through a heuristic-based
// search: candidates are scored by their exact vertex isoperimetric
// number and improved by hill-climbing edge swaps until they reach the
// target expansion or the iterations run out.
func generateExpander(p Params) (*Graph, error) {
	if p.Degree == 1 {
		g := newGraph(p)
		for a := 0; a < p.Appranks; a++ {
			g.Adj[a] = []int{p.HomeNode(a)}
		}
		return g, nil
	}
	rng := rand.New(rand.NewSource(p.Seed ^ 0x5eed))
	const maxAttempts = 200
	small := p.Appranks <= 20 && p.Degree >= 2 && p.Degree < p.Nodes
	// Target expansion: with one apprank per node a ratio strictly above
	// 1 is possible; with several appranks per node, a subset holding half
	// the appranks can reach at most all N nodes, so 1.0 is an upper
	// bound. It need not be reachable: fig6b's 16-apprank, 8-node climbs
	// end at 0.714 and 0.875 and so run all their iterations.
	target := 1.0
	if p.RanksPerNode() == 1 {
		target = 1.0 + 1e-9
	}
	var best *Graph
	bestScore := -1e18
	for attempt := 0; attempt < maxAttempts; attempt++ {
		g, ok := dealAndRepair(p, rng)
		if !ok {
			continue
		}
		if !small {
			if g.IsConnected() {
				return g, nil
			}
			continue
		}
		score := scoreGraph(g)
		if score >= target {
			return g, nil
		}
		if score > bestScore {
			best, bestScore = g, score
		}
		// A handful of random deals is usually enough to seed the climb.
		if attempt >= 10 {
			break
		}
	}
	if best == nil {
		return nil, fmt.Errorf("expander: failed to generate %+v after %d attempts", p, maxAttempts)
	}
	best, bestScore = hillClimb(best, bestScore, target, p, rng, 3000)
	if bestScore >= target || (bestScore >= 0 && best.IsConnected()) {
		return best, nil
	}
	return nil, fmt.Errorf("expander: no connected graph found for %+v", p)
}

// scoreGraph evaluates a candidate: its exact isoperimetric number,
// heavily penalised if disconnected.
func scoreGraph(g *Graph) float64 {
	h := g.IsoperimetricNumber()
	if !g.IsConnected() {
		return h - 100
	}
	return h
}

// hillClimb improves a small graph by random helper-edge swaps, keeping a
// swap when it does not decrease the score and stopping as soon as the
// target expansion is reached. Swapping two helper entries between
// appranks preserves biregularity by construction.
func hillClimb(g *Graph, score, target float64, p Params, rng *rand.Rand, iters int) (*Graph, float64) {
	helpers := p.Degree - 1
	if helpers == 0 {
		return g, score
	}
	validAt := func(a, pos int) bool {
		n := g.Adj[a][pos]
		if n == g.Adj[a][0] {
			return false
		}
		for i, m := range g.Adj[a] {
			if i != pos && i != 0 && m == n {
				return false
			}
		}
		return true
	}
	for it := 0; it < iters && score < target; it++ {
		a := rng.Intn(p.Appranks)
		b := rng.Intn(p.Appranks)
		if a == b {
			continue
		}
		i := 1 + rng.Intn(helpers)
		j := 1 + rng.Intn(helpers)
		g.Adj[a][i], g.Adj[b][j] = g.Adj[b][j], g.Adj[a][i]
		if !validAt(a, i) || !validAt(b, j) {
			g.Adj[a][i], g.Adj[b][j] = g.Adj[b][j], g.Adj[a][i]
			continue
		}
		if s := scoreGraph(g); s >= score {
			score = s
		} else {
			g.Adj[a][i], g.Adj[b][j] = g.Adj[b][j], g.Adj[a][i]
		}
	}
	// Restore sorted helper order for a canonical adjacency list.
	for a := 0; a < p.Appranks; a++ {
		h := g.Adj[a][1:]
		sort.Ints(h)
	}
	return g, score
}

// dealAndRepair performs one randomized construction attempt.
func dealAndRepair(p Params, rng *rand.Rand) (*Graph, bool) {
	helpers := p.Degree - 1
	perNode := p.RanksPerNode() * helpers
	slots := make([]int, 0, p.Appranks*helpers)
	for n := 0; n < p.Nodes; n++ {
		for k := 0; k < perNode; k++ {
			slots = append(slots, n)
		}
	}
	rng.Shuffle(len(slots), func(i, j int) { slots[i], slots[j] = slots[j], slots[i] })

	// assign[a] holds apprank a's helper nodes (may initially conflict).
	assign := make([][]int, p.Appranks)
	for a := 0; a < p.Appranks; a++ {
		assign[a] = slots[a*helpers : (a+1)*helpers : (a+1)*helpers]
	}
	conflict := func(a, pos int) bool {
		n := assign[a][pos]
		if n == p.HomeNode(a) {
			return true
		}
		for i, m := range assign[a] {
			if i != pos && m == n {
				return true
			}
		}
		return false
	}
	// Repair pass: swap conflicting entries with random entries elsewhere.
	const maxRepairs = 10000
	for repairs := 0; ; repairs++ {
		fixed := true
		for a := 0; a < p.Appranks && fixed; a++ {
			for pos := 0; pos < helpers; pos++ {
				if conflict(a, pos) {
					fixed = false
					break
				}
			}
		}
		if fixed {
			break
		}
		if repairs >= maxRepairs {
			return nil, false
		}
		for a := 0; a < p.Appranks; a++ {
			for pos := 0; pos < helpers; pos++ {
				if !conflict(a, pos) {
					continue
				}
				// Try random swap partners until both sides are valid.
				swapped := false
				for try := 0; try < 50 && !swapped; try++ {
					b := rng.Intn(p.Appranks)
					q := rng.Intn(helpers)
					if b == a {
						continue
					}
					assign[a][pos], assign[b][q] = assign[b][q], assign[a][pos]
					if !conflict(a, pos) && !conflict(b, q) {
						swapped = true
					} else {
						assign[a][pos], assign[b][q] = assign[b][q], assign[a][pos]
					}
				}
			}
		}
	}
	g := newGraph(p)
	for a := 0; a < p.Appranks; a++ {
		adj := make([]int, 0, p.Degree)
		adj = append(adj, p.HomeNode(a))
		helpersCopy := append([]int(nil), assign[a]...)
		sort.Ints(helpersCopy)
		adj = append(adj, helpersCopy...)
		g.Adj[a] = adj
	}
	return g, true
}

// Neighbors returns the nodes adjacent to apprank a. The first entry is
// the home node. The returned slice must not be modified.
func (g *Graph) Neighbors(a int) []int { return g.Adj[a] }

// Home returns apprank a's home node.
func (g *Graph) Home(a int) int { return g.Adj[a][0] }

// HasEdge reports whether apprank a is adjacent to node n.
func (g *Graph) HasEdge(a, n int) bool {
	for _, m := range g.Adj[a] {
		if m == n {
			return true
		}
	}
	return false
}

// NodeDegree returns the number of appranks adjacent to node n.
func (g *Graph) NodeDegree(n int) int {
	d := 0
	for a := range g.Adj {
		if g.HasEdge(a, n) {
			d++
		}
	}
	return d
}

// AppranksOn returns the appranks adjacent to node n, in increasing order.
func (g *Graph) AppranksOn(n int) []int {
	var out []int
	for a := range g.Adj {
		if g.HasEdge(a, n) {
			out = append(out, a)
		}
	}
	return out
}

// Validate checks structural invariants: partition sizes that Generate
// accepts, per-apprank degree, per-node degree, and no duplicate edges.
func (g *Graph) Validate() error {
	if g.Appranks <= 0 || g.Nodes <= 0 || g.Appranks%g.Nodes != 0 || len(g.Adj) != g.Appranks {
		return fmt.Errorf("expander: %d appranks (%d adjacency lists) not a positive multiple of %d nodes", g.Appranks, len(g.Adj), g.Nodes)
	}
	wantNodeDeg := g.Appranks * g.Degree / g.Nodes
	for a, adj := range g.Adj {
		if len(adj) != g.Degree {
			return fmt.Errorf("expander: apprank %d has degree %d, want %d", a, len(adj), g.Degree)
		}
		seen := make(map[int]bool, len(adj))
		for _, n := range adj {
			if n < 0 || n >= g.Nodes {
				return fmt.Errorf("expander: apprank %d adjacent to invalid node %d", a, n)
			}
			if seen[n] {
				return fmt.Errorf("expander: apprank %d has duplicate edge to node %d", a, n)
			}
			seen[n] = true
		}
	}
	for n := 0; n < g.Nodes; n++ {
		if d := g.NodeDegree(n); d != wantNodeDeg {
			return fmt.Errorf("expander: node %d has degree %d, want %d (not biregular)", n, d, wantNodeDeg)
		}
	}
	return nil
}

// IsConnected reports whether the bipartite graph is connected.
func (g *Graph) IsConnected() bool {
	if g.Appranks == 0 {
		return true
	}
	seenA := make([]bool, g.Appranks)
	seenN := make([]bool, g.Nodes)
	queue := []int{0} // apprank ids; nodes encoded as id+Appranks
	seenA[0] = true
	countA, countN := 1, 0
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		if v < g.Appranks {
			for _, n := range g.Adj[v] {
				if !seenN[n] {
					seenN[n] = true
					countN++
					queue = append(queue, n+g.Appranks)
				}
			}
		} else {
			n := v - g.Appranks
			for a := 0; a < g.Appranks; a++ {
				if !seenA[a] && g.HasEdge(a, n) {
					seenA[a] = true
					countA++
					queue = append(queue, a)
				}
			}
		}
	}
	return countA == g.Appranks && countN == g.Nodes
}

// IsoperimetricNumber computes the vertex isoperimetric number
// min |N(S)|/|S| over all non-empty subsets S of appranks with
// |S| <= h = ceil(Appranks/2). It enumerates node sets instead of apprank
// sets: with A(T) the appranks whose whole adjacency lies in node set T,
// the minimum equals min |T| / min(|A(T)|, h) over the T with A(T)
// non-empty, because every S lies in A(N(S)) and every T is matched by a
// subset of A(T) of that size. That costs O(2^Nodes) time and space,
// never more than the 2^Appranks apprank subsets since Nodes <= Appranks.
// Ratios are compared exactly as integer cross-products and divided once,
// so the result is the float minimum over apprank subsets bit for bit.
// Adjacency entries must lie in [0, Nodes). It panics above 20 appranks
// or 20 nodes; use EstimateIsoperimetric for larger graphs.
func (g *Graph) IsoperimetricNumber() float64 {
	if g.Appranks > 20 || g.Nodes > 20 {
		panic("expander: exact isoperimetric number limited to 20 appranks and 20 nodes")
	}
	appranksOn := make([]uint32, g.Nodes)
	for a, adj := range g.Adj {
		for _, n := range adj {
			appranksOn[n] |= 1 << uint(a)
		}
	}
	half := (g.Appranks + 1) / 2
	full := 1<<uint(g.Nodes) - 1
	// within[T] is A(T), filled downwards from A(all nodes) = all appranks
	// by dropping the appranks on the lowest node missing from T.
	within := make([]uint32, full+1)
	within[full] = 1<<uint(g.Appranks) - 1
	bestN, bestS := g.Nodes, 1
	for t := full; t >= 0; t-- {
		if t != full {
			b := bits.TrailingZeros(^uint(t))
			within[t] = within[t|1<<uint(b)] &^ appranksOn[b]
		}
		s := bits.OnesCount32(within[t])
		if s == 0 {
			continue
		}
		s = min(s, half)
		if n := bits.OnesCount(uint(t)); n*bestS < bestN*s {
			bestN, bestS = n, s
		}
	}
	return float64(bestN) / float64(bestS)
}

// EstimateIsoperimetric estimates the isoperimetric number by sampling
// random subsets. The result is an upper bound on the true value.
func (g *Graph) EstimateIsoperimetric(samples int, seed int64) float64 {
	rng := rand.New(rand.NewSource(seed))
	half := (g.Appranks + 1) / 2
	best := float64(g.Nodes)
	for s := 0; s < samples; s++ {
		size := 1 + rng.Intn(half)
		perm := rng.Perm(g.Appranks)[:size]
		nb := make(map[int]bool)
		for _, a := range perm {
			for _, n := range g.Adj[a] {
				nb[n] = true
			}
		}
		if ratio := float64(len(nb)) / float64(size); ratio < best {
			best = ratio
		}
	}
	return best
}
