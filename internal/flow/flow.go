// Package flow implements maximum flow (Dinic's algorithm) and minimum-cost
// maximum flow (successive shortest paths with SPFA) on small directed
// graphs with floating-point capacities.
//
// The balance package formulates the paper's global core-allocation
// problem (§5.4.2) as a search over a feasibility flow problem: appranks
// demand cores, nodes supply them, and edges exist only where the
// expander graph permits; an infeasible probe's minimum cut (SourceSide)
// bounds the search. The min-cost variant expresses the own-node
// incentive (offloaded cores cost 1, local cores cost 0).
package flow

import (
	"fmt"
	"math"
)

const eps = 1e-9

// edge is half of an arc pair; rev indexes its reverse within the adjacency
// of to.
type edge struct {
	to   int
	cap  float64
	cost float64
	flow float64
}

// Graph is a flow network under construction. Node ids are 0..n-1.
type Graph struct {
	n     int
	edges []edge // pairs: edge 2k is forward, 2k+1 its reverse
	adj   [][]int

	// Solver scratch, sized lazily to n and reused across solves and
	// Reinit cycles (the balance bisection rebuilds and solves the same
	// network dozens of times per policy tick).
	level, iter, prevEdge []int
	dist                  []float64
	inQueue               []bool
	queue                 []int
}

// NewGraph creates a flow network with n nodes.
func NewGraph(n int) *Graph {
	if n <= 0 {
		panic("flow: non-positive node count")
	}
	return &Graph{n: n, adj: make([][]int, n)}
}

// Reinit empties the graph and resizes it to n nodes, retaining the edge,
// adjacency, and solver scratch storage of previous builds. Edge ids from
// before the Reinit are invalid afterwards.
func (g *Graph) Reinit(n int) {
	if n <= 0 {
		panic("flow: non-positive node count")
	}
	g.edges = g.edges[:0]
	if cap(g.adj) >= n {
		g.adj = g.adj[:n]
	} else {
		g.adj = append(g.adj[:cap(g.adj)], make([][]int, n-cap(g.adj))...)
	}
	for i := range g.adj {
		g.adj[i] = g.adj[i][:0]
	}
	g.n = n
}

// scratch sizes the solver scratch slices to the current node count.
func (g *Graph) scratch() {
	if cap(g.level) < g.n {
		g.level = make([]int, g.n)
		g.iter = make([]int, g.n)
		g.prevEdge = make([]int, g.n)
		g.dist = make([]float64, g.n)
		g.inQueue = make([]bool, g.n)
	}
	g.level = g.level[:g.n]
	g.iter = g.iter[:g.n]
	g.prevEdge = g.prevEdge[:g.n]
	g.dist = g.dist[:g.n]
	g.inQueue = g.inQueue[:g.n]
}

// AddEdge adds a directed edge with the given capacity and per-unit cost,
// returning an id usable with Flow after solving.
func (g *Graph) AddEdge(from, to int, capacity, cost float64) int {
	if from < 0 || from >= g.n || to < 0 || to >= g.n {
		panic(fmt.Sprintf("flow: edge %d->%d out of range", from, to))
	}
	if capacity < 0 {
		panic(fmt.Sprintf("flow: negative capacity %v", capacity))
	}
	id := len(g.edges)
	g.edges = append(g.edges, edge{to: to, cap: capacity, cost: cost})
	g.edges = append(g.edges, edge{to: from, cap: 0, cost: -cost})
	g.adj[from] = append(g.adj[from], id)
	g.adj[to] = append(g.adj[to], id+1)
	return id
}

// Flow returns the flow currently carried by the edge with the given id.
func (g *Graph) Flow(id int) float64 { return g.edges[id].flow }

// Reset zeroes all flows so the network can be solved again.
func (g *Graph) Reset() {
	for i := range g.edges {
		g.edges[i].flow = 0
	}
}

// residual returns the remaining capacity of edge id.
func (g *Graph) residual(id int) float64 { return g.edges[id].cap - g.edges[id].flow }

// push sends f along edge id, updating the reverse edge.
func (g *Graph) push(id int, f float64) {
	g.edges[id].flow += f
	g.edges[id^1].flow -= f
}

// MaxFlow computes the maximum s-t flow with Dinic's algorithm and leaves
// the per-edge flows readable via Flow.
func (g *Graph) MaxFlow(s, t int) float64 {
	if s == t {
		panic("flow: source equals sink")
	}
	total := 0.0
	g.scratch()
	level, iter := g.level, g.iter
	for g.bfs(s, t, level) {
		for i := range iter {
			iter[i] = 0
		}
		for {
			f := g.dfs(s, t, math.Inf(1), level, iter)
			if f < eps {
				break
			}
			total += f
		}
	}
	return total
}

// SourceSide reports whether node v lies on the source side of the
// minimum cut the last MaxFlow left: whether v is reachable from the
// source in the residual graph. Only valid right after MaxFlow.
func (g *Graph) SourceSide(v int) bool { return g.level[v] >= 0 }

// bfs builds the level graph; reports whether t is reachable.
func (g *Graph) bfs(s, t int, level []int) bool {
	for i := range level {
		level[i] = -1
	}
	level[s] = 0
	queue := append(g.queue[:0], s)
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		for _, id := range g.adj[v] {
			e := &g.edges[id]
			if g.residual(id) > eps && level[e.to] < 0 {
				level[e.to] = level[v] + 1
				queue = append(queue, e.to)
			}
		}
	}
	g.queue = queue[:0]
	return level[t] >= 0
}

// dfs finds one augmenting path in the level graph.
func (g *Graph) dfs(v, t int, f float64, level, iter []int) float64 {
	if v == t {
		return f
	}
	for ; iter[v] < len(g.adj[v]); iter[v]++ {
		id := g.adj[v][iter[v]]
		e := &g.edges[id]
		if g.residual(id) > eps && level[e.to] == level[v]+1 {
			d := g.dfs(e.to, t, math.Min(f, g.residual(id)), level, iter)
			if d > eps {
				g.push(id, d)
				return d
			}
		}
	}
	return 0
}

// MinCostMaxFlow computes a maximum s-t flow of minimum total cost using
// successive shortest paths (SPFA / Bellman-Ford queue variant; costs may
// not form negative cycles). It returns the flow value and its cost.
func (g *Graph) MinCostMaxFlow(s, t int) (flowVal, cost float64) {
	if s == t {
		panic("flow: source equals sink")
	}
	g.scratch()
	dist, inQueue, prevEdge := g.dist, g.inQueue, g.prevEdge
	for {
		for i := range dist {
			dist[i] = math.Inf(1)
			prevEdge[i] = -1
			inQueue[i] = false
		}
		dist[s] = 0
		queue := append(g.queue[:0], s)
		inQueue[s] = true
		for head := 0; head < len(queue); head++ {
			v := queue[head]
			inQueue[v] = false
			for _, id := range g.adj[v] {
				e := &g.edges[id]
				if g.residual(id) > eps && dist[v]+e.cost < dist[e.to]-eps {
					dist[e.to] = dist[v] + e.cost
					prevEdge[e.to] = id
					if !inQueue[e.to] {
						queue = append(queue, e.to)
						inQueue[e.to] = true
					}
				}
			}
		}
		g.queue = queue[:0]
		if math.IsInf(dist[t], 1) {
			return flowVal, cost
		}
		// Bottleneck along the path.
		f := math.Inf(1)
		for v := t; v != s; {
			id := prevEdge[v]
			f = math.Min(f, g.residual(id))
			v = g.edges[id^1].to
		}
		for v := t; v != s; {
			id := prevEdge[v]
			g.push(id, f)
			cost += f * g.edges[id].cost
			v = g.edges[id^1].to
		}
		flowVal += f
	}
}
