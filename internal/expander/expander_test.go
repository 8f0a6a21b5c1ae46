package expander

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"os"
	"testing"
	"testing/quick"
)

func TestDegreeOneIsHomeOnly(t *testing.T) {
	g, err := Generate(Params{Appranks: 8, Nodes: 4, Degree: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	for a := 0; a < 8; a++ {
		adj := g.Neighbors(a)
		if len(adj) != 1 || adj[0] != a/2 {
			t.Fatalf("apprank %d adj = %v, want home only", a, adj)
		}
	}
}

func TestGenerateBiregular(t *testing.T) {
	cases := []Params{
		{Appranks: 4, Nodes: 4, Degree: 2, Seed: 1},
		{Appranks: 8, Nodes: 8, Degree: 3, Seed: 2},
		{Appranks: 16, Nodes: 8, Degree: 4, Seed: 3},
		{Appranks: 32, Nodes: 16, Degree: 3, Seed: 4},
		{Appranks: 64, Nodes: 64, Degree: 4, Seed: 5},
		{Appranks: 128, Nodes: 64, Degree: 8, Seed: 6},
	}
	for _, p := range cases {
		g, err := Generate(p)
		if err != nil {
			t.Fatalf("%+v: %v", p, err)
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("%+v: %v", p, err)
		}
		if !g.IsConnected() {
			t.Fatalf("%+v: disconnected graph", p)
		}
		for a := 0; a < p.Appranks; a++ {
			if g.Home(a) != p.HomeNode(a) {
				t.Fatalf("%+v: apprank %d home = %d, want %d", p, a, g.Home(a), p.HomeNode(a))
			}
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	p := Params{Appranks: 16, Nodes: 16, Degree: 4, Seed: 99}
	g1 := MustGenerate(p)
	g2 := MustGenerate(p)
	for a := 0; a < p.Appranks; a++ {
		n1, n2 := g1.Neighbors(a), g2.Neighbors(a)
		for i := range n1 {
			if n1[i] != n2[i] {
				t.Fatal("same params produced different graphs")
			}
		}
	}
}

func TestGenerateDifferentSeeds(t *testing.T) {
	g1 := MustGenerate(Params{Appranks: 32, Nodes: 32, Degree: 4, Seed: 1})
	g2 := MustGenerate(Params{Appranks: 32, Nodes: 32, Degree: 4, Seed: 2})
	same := true
	for a := 0; a < 32 && same; a++ {
		n1, n2 := g1.Neighbors(a), g2.Neighbors(a)
		for i := range n1 {
			if n1[i] != n2[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical graphs (suspicious)")
	}
}

func TestRingShape(t *testing.T) {
	g := MustGenerate(Params{Appranks: 8, Nodes: 8, Degree: 3, Shape: ShapeRing})
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	adj := g.Neighbors(2)
	want := []int{2, 3, 4}
	for i := range want {
		if adj[i] != want[i] {
			t.Fatalf("ring adj(2) = %v, want %v", adj, want)
		}
	}
	adj = g.Neighbors(7)
	want = []int{7, 0, 1}
	for i := range want {
		if adj[i] != want[i] {
			t.Fatalf("ring adj(7) = %v, want %v (wraparound)", adj, want)
		}
	}
}

func TestFullShape(t *testing.T) {
	g := MustGenerate(Params{Appranks: 6, Nodes: 3, Shape: ShapeFull})
	if g.Degree != 3 {
		t.Fatalf("full graph degree = %d, want 3", g.Degree)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	for a := 0; a < 6; a++ {
		for n := 0; n < 3; n++ {
			if !g.HasEdge(a, n) {
				t.Fatalf("full graph missing edge %d-%d", a, n)
			}
		}
	}
}

func TestInvalidParams(t *testing.T) {
	bad := []Params{
		{Appranks: 0, Nodes: 4, Degree: 2},
		{Appranks: 5, Nodes: 4, Degree: 2},  // not a multiple
		{Appranks: 8, Nodes: 4, Degree: 5},  // degree > nodes
		{Appranks: 8, Nodes: 4, Degree: 0},  // degree < 1
		{Appranks: -4, Nodes: 4, Degree: 2}, // negative
	}
	for _, p := range bad {
		if _, err := Generate(p); err == nil {
			t.Errorf("Generate(%+v) did not fail", p)
		}
	}
}

func TestIsoperimetricFullGraph(t *testing.T) {
	// Full bipartite 4x4: any subset of size k<=2 has all 4 neighbors.
	g := MustGenerate(Params{Appranks: 4, Nodes: 4, Shape: ShapeFull})
	if h := g.IsoperimetricNumber(); h != 2.0 {
		t.Fatalf("isoperimetric number of K4,4 = %v, want 2.0 (4 nodes / subset of 2)", h)
	}
}

func TestIsoperimetricDegreeOne(t *testing.T) {
	// Degree-1 graph on one rank per node: |N(S)| = |S| exactly.
	g := MustGenerate(Params{Appranks: 6, Nodes: 6, Degree: 1})
	if h := g.IsoperimetricNumber(); h != 1.0 {
		t.Fatalf("isoperimetric number = %v, want 1.0", h)
	}
}

// isoBySubsets is the apprank-subset DP that IsoperimetricNumber replaced:
// it enumerates all 2^Appranks apprank subsets through a
// subset-neighbourhood memo. It is the oracle for the node-subset dual.
func isoBySubsets(g *Graph) float64 {
	nbRank := make([]uint64, g.Appranks)
	for a, adj := range g.Adj {
		for _, n := range adj {
			nbRank[a] |= 1 << uint(n)
		}
	}
	half := (g.Appranks + 1) / 2
	best := float64(g.Nodes)
	memo := make([]uint64, 1<<uint(g.Appranks))
	for mask := 1; mask < 1<<uint(g.Appranks); mask++ {
		low := mask & -mask
		memo[mask] = memo[mask^low] | nbRank[bits.TrailingZeros(uint(low))]
		size := bits.OnesCount(uint(mask))
		if size > half {
			continue
		}
		if ratio := float64(bits.OnesCount64(memo[mask])) / float64(size); ratio < best {
			best = ratio
		}
	}
	return best
}

// TestIsoperimetricMatchesSubsetDP checks the node-subset dual against the
// apprank-subset DP bit for bit, on every generated shape up to 20
// appranks and on the same graphs with their adjacency randomly rewired
// (duplicate entries included), which breaks biregularity.
func TestIsoperimetricMatchesSubsetDP(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	check := func(what string, g *Graph) {
		t.Helper()
		if got, want := g.IsoperimetricNumber(), isoBySubsets(g); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("%s %dx%d %v: got %v, want %v", what, g.Appranks, g.Nodes, g.Adj, got, want)
		}
	}
	graphs := 0
	for nodes := 1; nodes <= 20; nodes++ {
		for rpn := 1; rpn <= 3 && rpn*nodes <= 20; rpn++ {
			for _, shape := range []Shape{ShapeExpander, ShapeRing, ShapeFull} {
				for deg := 1; deg <= nodes; deg++ {
					if shape == ShapeFull && deg > 1 {
						break // Degree is forced to Nodes
					}
					p := Params{Appranks: rpn * nodes, Nodes: nodes, Degree: deg, Seed: int64(deg), Shape: shape}
					g := MustGenerate(p)
					check("generated", g)
					for _, adj := range g.Adj {
						for i := range adj {
							if rng.Intn(2) == 0 {
								adj[i] = rng.Intn(nodes)
							}
						}
					}
					check("rewired", g)
					graphs += 2
				}
			}
		}
	}
	t.Logf("%d graphs", graphs)
}

func TestGeneratedExpanderExpands(t *testing.T) {
	// A generated graph on 8 appranks/8 nodes with degree 3 should have
	// expansion strictly above 1 (it is checked during generation).
	g := MustGenerate(Params{Appranks: 8, Nodes: 8, Degree: 3, Seed: 7})
	if h := g.IsoperimetricNumber(); h <= 1.0 {
		t.Fatalf("isoperimetric number = %v, want > 1.0", h)
	}
}

func TestEstimateIsoperimetricUpperBounds(t *testing.T) {
	g := MustGenerate(Params{Appranks: 12, Nodes: 12, Degree: 3, Seed: 8})
	exact := g.IsoperimetricNumber()
	est := g.EstimateIsoperimetric(2000, 1)
	if est < exact-1e-9 {
		t.Fatalf("estimate %v below exact %v (must be an upper bound)", est, exact)
	}
}

func TestAppranksOn(t *testing.T) {
	g := MustGenerate(Params{Appranks: 8, Nodes: 4, Degree: 2, Seed: 11})
	for n := 0; n < 4; n++ {
		on := g.AppranksOn(n)
		if len(on) != g.Appranks*g.Degree/g.Nodes {
			t.Fatalf("node %d has %d appranks, want %d", n, len(on), 4)
		}
		for _, a := range on {
			if !g.HasEdge(a, n) {
				t.Fatalf("AppranksOn(%d) includes non-adjacent apprank %d", n, a)
			}
		}
	}
}

func TestStoreCachesInMemory(t *testing.T) {
	s := NewStore("")
	p := Params{Appranks: 8, Nodes: 8, Degree: 2, Seed: 5}
	g1, err := s.Get(p)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := s.Get(p)
	if err != nil {
		t.Fatal(err)
	}
	if g1 != g2 {
		t.Fatal("store did not return the cached instance")
	}
}

func TestStorePersistsToDisk(t *testing.T) {
	dir := t.TempDir()
	p := Params{Appranks: 8, Nodes: 8, Degree: 3, Seed: 6}
	s1 := NewStore(dir)
	g1, err := s1.Get(p)
	if err != nil {
		t.Fatal(err)
	}
	// A fresh store over the same dir must load, not regenerate.
	s2 := NewStore(dir)
	g2, err := s2.Get(p)
	if err != nil {
		t.Fatal(err)
	}
	for a := 0; a < p.Appranks; a++ {
		n1, n2 := g1.Neighbors(a), g2.Neighbors(a)
		for i := range n1 {
			if n1[i] != n2[i] {
				t.Fatal("graph loaded from disk differs from the saved one")
			}
		}
	}
	if err := g2.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestStoreDistinguishesParams(t *testing.T) {
	s := NewStore("")
	g1, _ := s.Get(Params{Appranks: 8, Nodes: 8, Degree: 2, Seed: 5})
	g2, _ := s.Get(Params{Appranks: 8, Nodes: 8, Degree: 3, Seed: 5})
	if g1 == g2 || g1.Degree == g2.Degree {
		t.Fatal("store conflated distinct params")
	}
}

// Property: for any valid (ranksPerNode, nodes, degree) in a bounded
// range, generation succeeds and yields a validated, connected, biregular
// graph with home-first adjacency.
func TestQuickGenerateValid(t *testing.T) {
	f := func(rpnRaw, nRaw, dRaw uint8, seed int64) bool {
		rpn := int(rpnRaw%2) + 1  // 1..2 ranks per node
		nodes := int(nRaw%15) + 2 // 2..16 nodes
		deg := int(dRaw)%nodes + 1
		p := Params{Appranks: rpn * nodes, Nodes: nodes, Degree: deg, Seed: seed}
		g, err := Generate(p)
		if err != nil {
			// Generation may legitimately fail only if the search gives
			// up; treat failure on valid params as a bug.
			t.Logf("Generate(%+v) failed: %v", p, err)
			return false
		}
		if deg == 1 {
			// Home-only graphs have no offload edges and are naturally
			// disconnected across nodes.
			return g.Validate() == nil
		}
		return g.Validate() == nil && g.IsConnected()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: the isoperimetric number is within (0, Nodes] and equals at
// most the degree (a single apprank has exactly Degree neighbours).
func TestQuickIsoperimetricBounds(t *testing.T) {
	f := func(dRaw uint8, seed int64) bool {
		deg := int(dRaw%4) + 1
		p := Params{Appranks: 8, Nodes: 8, Degree: deg, Seed: seed}
		g, err := Generate(p)
		if err != nil {
			return false
		}
		h := g.IsoperimetricNumber()
		return h > 0 && h <= float64(deg)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestStoreRecoversFromCorruptFile(t *testing.T) {
	dir := t.TempDir()
	p := Params{Appranks: 4, Nodes: 4, Degree: 2, Seed: 9}
	s1 := NewStore(dir)
	if _, err := s1.Get(p); err != nil {
		t.Fatal(err)
	}
	// Corrupt the cached file; a fresh store must regenerate, not fail.
	path := s1.path(key(p))
	if err := os.WriteFile(path, []byte("{broken"), 0o644); err != nil {
		t.Fatal(err)
	}
	s2 := NewStore(dir)
	g, err := s2.Get(p)
	if err != nil {
		t.Fatalf("corrupt cache not recovered: %v", err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestIsoperimetricPanicsAboveTwentyNodes(t *testing.T) {
	// A hand-built graph with few appranks but many nodes must not size
	// the 2^Nodes table.
	g := &Graph{Appranks: 1, Nodes: 21, Degree: 1, Adj: [][]int{{0}}}
	defer func() {
		if recover() == nil {
			t.Fatal("IsoperimetricNumber accepted 21 nodes")
		}
	}()
	g.IsoperimetricNumber()
}

// nonMultiple is biregular (degree 2, three edges on every node) but has
// 6 appranks on 4 nodes, a shape Generate refuses.
func nonMultiple() *Graph {
	return &Graph{Appranks: 6, Nodes: 4, Degree: 2, Adj: [][]int{
		{0, 1}, {2, 3}, {0, 2}, {1, 3}, {0, 3}, {1, 2},
	}}
}

func TestValidateRejectsNonMultiple(t *testing.T) {
	if err := nonMultiple().Validate(); err == nil {
		t.Fatal("Validate accepted 6 appranks on 4 nodes")
	}
}

func TestStoreRegeneratesNonMultipleFile(t *testing.T) {
	dir := t.TempDir()
	p := Params{Appranks: 8, Nodes: 4, Degree: 2, Seed: 9}
	if err := NewStore(dir).save(key(p), nonMultiple()); err != nil {
		t.Fatal(err)
	}
	g, err := NewStore(dir).Get(p)
	if err != nil {
		t.Fatal(err)
	}
	want := MustGenerate(p)
	if g.Appranks != p.Appranks || fmt.Sprint(g.Adj) != fmt.Sprint(want.Adj) {
		t.Fatalf("store returned %d appranks %v, want the regenerated %v", g.Appranks, g.Adj, want.Adj)
	}
}
