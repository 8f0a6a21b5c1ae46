package flow

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func approx(a, b float64) bool { return math.Abs(a-b) < 1e-6 }

// checkConservation verifies flow conservation in g at every node except
// s and t, and capacity constraints on every edge. It returns a
// descriptive error on the first violation.
func checkConservation(g *Graph, s, t int) error {
	net := make([]float64, g.n)
	for id := 0; id < len(g.edges); id += 2 {
		e := g.edges[id]
		if e.flow < -eps || e.flow > e.cap+eps {
			return fmt.Errorf("flow: edge %d flow %v outside [0, %v]", id, e.flow, e.cap)
		}
		from := g.edges[id^1].to
		net[from] -= e.flow
		net[e.to] += e.flow
	}
	for v := 0; v < g.n; v++ {
		if v == s || v == t {
			continue
		}
		if math.Abs(net[v]) > 1e-6 {
			return fmt.Errorf("flow: conservation violated at node %d (net %v)", v, net[v])
		}
	}
	return nil
}

func TestMaxFlowSimplePath(t *testing.T) {
	g := NewGraph(3)
	g.AddEdge(0, 1, 5, 0)
	g.AddEdge(1, 2, 3, 0)
	if f := g.MaxFlow(0, 2); !approx(f, 3) {
		t.Fatalf("MaxFlow = %v, want 3", f)
	}
	if err := checkConservation(g, 0, 2); err != nil {
		t.Fatal(err)
	}
}

func TestMaxFlowClassic(t *testing.T) {
	// CLRS-style example with known max flow 23.
	g := NewGraph(6)
	g.AddEdge(0, 1, 16, 0)
	g.AddEdge(0, 2, 13, 0)
	g.AddEdge(1, 2, 10, 0)
	g.AddEdge(2, 1, 4, 0)
	g.AddEdge(1, 3, 12, 0)
	g.AddEdge(3, 2, 9, 0)
	g.AddEdge(2, 4, 14, 0)
	g.AddEdge(4, 3, 7, 0)
	g.AddEdge(3, 5, 20, 0)
	g.AddEdge(4, 5, 4, 0)
	if f := g.MaxFlow(0, 5); !approx(f, 23) {
		t.Fatalf("MaxFlow = %v, want 23", f)
	}
	if err := checkConservation(g, 0, 5); err != nil {
		t.Fatal(err)
	}
}

func TestMaxFlowDisconnected(t *testing.T) {
	g := NewGraph(4)
	g.AddEdge(0, 1, 10, 0)
	g.AddEdge(2, 3, 10, 0)
	if f := g.MaxFlow(0, 3); f != 0 {
		t.Fatalf("MaxFlow = %v, want 0", f)
	}
}

func TestMaxFlowParallelEdges(t *testing.T) {
	g := NewGraph(2)
	g.AddEdge(0, 1, 2, 0)
	g.AddEdge(0, 1, 3.5, 0)
	if f := g.MaxFlow(0, 1); !approx(f, 5.5) {
		t.Fatalf("MaxFlow = %v, want 5.5", f)
	}
}

func TestFlowPerEdge(t *testing.T) {
	g := NewGraph(3)
	e1 := g.AddEdge(0, 1, 4, 0)
	e2 := g.AddEdge(1, 2, 10, 0)
	g.MaxFlow(0, 2)
	if !approx(g.Flow(e1), 4) || !approx(g.Flow(e2), 4) {
		t.Fatalf("edge flows = %v, %v; want 4, 4", g.Flow(e1), g.Flow(e2))
	}
}

func TestReset(t *testing.T) {
	g := NewGraph(2)
	e := g.AddEdge(0, 1, 1, 0)
	g.MaxFlow(0, 1)
	g.Reset()
	if g.Flow(e) != 0 {
		t.Fatal("Reset did not clear flows")
	}
	if f := g.MaxFlow(0, 1); !approx(f, 1) {
		t.Fatalf("re-solve after Reset = %v, want 1", f)
	}
}

func TestMinCostPrefersCheapPath(t *testing.T) {
	// Two parallel routes; the cheap one must fill first.
	g := NewGraph(4)
	cheap := g.AddEdge(0, 1, 5, 0)
	exp := g.AddEdge(0, 2, 5, 1)
	g.AddEdge(1, 3, 5, 0)
	g.AddEdge(2, 3, 5, 0)
	f, c := g.MinCostMaxFlow(0, 3)
	if !approx(f, 10) {
		t.Fatalf("flow = %v, want 10", f)
	}
	if !approx(c, 5) {
		t.Fatalf("cost = %v, want 5 (only the expensive half pays)", c)
	}
	if !approx(g.Flow(cheap), 5) || !approx(g.Flow(exp), 5) {
		t.Fatalf("edge flows = %v, %v", g.Flow(cheap), g.Flow(exp))
	}
}

func TestMinCostPartialDemand(t *testing.T) {
	// Demand smaller than cheap capacity: expensive path stays empty.
	g := NewGraph(4)
	g.AddEdge(0, 1, 10, 0)
	exp := g.AddEdge(0, 2, 10, 5)
	g.AddEdge(1, 3, 3, 0)
	g.AddEdge(2, 3, 10, 0)
	f, c := g.MinCostMaxFlow(0, 3)
	// Max flow is 13: 3 through cheap, 10 through expensive.
	if !approx(f, 13) || !approx(c, 50) {
		t.Fatalf("flow, cost = %v, %v; want 13, 50", f, c)
	}
	if !approx(g.Flow(exp), 10) {
		t.Fatalf("expensive edge flow = %v", g.Flow(exp))
	}
}

func TestMinCostReroutesThroughResiduals(t *testing.T) {
	// Classic case where a later augmentation must cancel flow.
	g := NewGraph(4)
	g.AddEdge(0, 1, 1, 1)
	g.AddEdge(0, 2, 1, 3)
	g.AddEdge(1, 2, 1, 1)
	g.AddEdge(1, 3, 1, 3)
	g.AddEdge(2, 3, 1, 1)
	f, c := g.MinCostMaxFlow(0, 3)
	if !approx(f, 2) {
		t.Fatalf("flow = %v, want 2", f)
	}
	// Paths: 0-1-2-3 (cost 3) and 0-2?? capacity... optimal total = 3+6=...
	// Enumerate: route A 0->1->3 cost 4; route B 0->2->3 cost 4; or
	// 0->1->2->3 cost 3 plus 0->2->3 blocked (cap 1 used)... Optimal is
	// 0->1->2->3 (3) + 0->2->3 can't (edge 2->3 cap 1). So 0->1->3 (4) +
	// 0->2->3 (4) = 8, vs 0->1->2->3 (3) + 0->2... ->3 impossible.
	if !approx(c, 8) {
		t.Fatalf("cost = %v, want 8", c)
	}
	if err := checkConservation(g, 0, 3); err != nil {
		t.Fatal(err)
	}
}

func TestBipartiteAllocationShape(t *testing.T) {
	// The balance package's shape: source -> appranks (demand), appranks
	// -> nodes (adjacency), nodes -> sink (capacity). 2 appranks, 2
	// nodes; apprank 0 demands 6, apprank 1 demands 2; nodes hold 4 each;
	// apprank 0 adjacent to both nodes, apprank 1 only to node 1.
	// Own-node edges cost 0, helper edges cost 1.
	g := NewGraph(6)
	s, t0 := 0, 5
	a0, a1, n0, n1 := 1, 2, 3, 4
	g.AddEdge(s, a0, 6, 0)
	g.AddEdge(s, a1, 2, 0)
	own0 := g.AddEdge(a0, n0, math.Inf(1), 0)
	help0 := g.AddEdge(a0, n1, math.Inf(1), 1)
	g.AddEdge(a1, n1, math.Inf(1), 0)
	g.AddEdge(n0, t0, 4, 0)
	g.AddEdge(n1, t0, 4, 0)
	f, c := g.MinCostMaxFlow(s, t0)
	if !approx(f, 8) {
		t.Fatalf("flow = %v, want 8 (all demand met)", f)
	}
	if !approx(c, 2) {
		t.Fatalf("cost = %v, want 2 (two offloaded cores)", c)
	}
	if !approx(g.Flow(own0), 4) || !approx(g.Flow(help0), 2) {
		t.Fatalf("own/help = %v/%v, want 4/2", g.Flow(own0), g.Flow(help0))
	}
}

func TestPanics(t *testing.T) {
	for _, fn := range []func(){
		func() { NewGraph(0) },
		func() { NewGraph(2).AddEdge(0, 5, 1, 0) },
		func() { NewGraph(2).AddEdge(0, 1, -1, 0) },
		func() { NewGraph(2).MaxFlow(1, 1) },
		func() { NewGraph(2).MinCostMaxFlow(0, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

// Property: on random graphs, MinCostMaxFlow moves the same amount of flow
// as MaxFlow (it is a *maximum* flow), and both satisfy conservation.
func TestQuickMinCostMatchesMaxFlow(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(5)
		build := func() *Graph {
			g := NewGraph(n)
			r := rand.New(rand.NewSource(seed))
			edges := n * 2
			for i := 0; i < edges; i++ {
				from, to := r.Intn(n), r.Intn(n)
				if from == to {
					continue
				}
				g.AddEdge(from, to, float64(r.Intn(10)+1), float64(r.Intn(5)))
			}
			return g
		}
		g1 := build()
		g2 := build()
		mf := g1.MaxFlow(0, n-1)
		mcf, _ := g2.MinCostMaxFlow(0, n-1)
		if !approx(mf, mcf) {
			return false
		}
		return checkConservation(g1, 0, n-1) == nil && checkConservation(g2, 0, n-1) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: max flow is bounded by both the total capacity out of the
// source and into the sink.
func TestQuickMaxFlowCutBound(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(5)
		g := NewGraph(n)
		outCap, inCap := 0.0, 0.0
		for i := 0; i < n*3; i++ {
			from, to := rng.Intn(n), rng.Intn(n)
			if from == to {
				continue
			}
			c := rng.Float64() * 10
			g.AddEdge(from, to, c, 0)
			if from == 0 {
				outCap += c
			}
			if to == n-1 {
				inCap += c
			}
		}
		mf := g.MaxFlow(0, n-1)
		return mf <= outCap+1e-6 && mf <= inCap+1e-6 && mf >= -1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestSourceSideIsMinCut: after MaxFlow, the nodes reachable from the
// source in the residual graph form a cut whose capacity is the flow.
func TestSourceSideIsMinCut(t *testing.T) {
	g := NewGraph(5)
	caps := [][3]float64{{0, 1, 5}, {1, 4, 2}, {0, 2, 1}, {2, 3, 4}, {3, 4, 4}, {1, 3, 0.5}}
	for _, c := range caps {
		g.AddEdge(int(c[0]), int(c[1]), c[2], 0)
	}
	f := g.MaxFlow(0, 4)
	want := []bool{true, true, false, false, false}
	cut := 0.0
	for v, w := range want {
		if got := g.SourceSide(v); got != w {
			t.Fatalf("SourceSide(%d) = %v, want %v", v, got, w)
		}
	}
	for _, c := range caps {
		if want[int(c[0])] && !want[int(c[1])] {
			cut += c[2]
		}
	}
	if !approx(cut, f) || !approx(f, 3.5) {
		t.Fatalf("cut capacity %v, max flow %v, want both 3.5", cut, f)
	}
}
