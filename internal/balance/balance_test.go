package balance

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// twoNodeProblem builds the running example: 2 nodes x 4 cores, apprank 0
// homed on node 0 with a helper on node 1, apprank 1 homed on node 1.
func twoNodeProblem(busyHome0, busyHelper0, busyHome1 float64) *Problem {
	return &Problem{
		Nodes: []NodeInfo{{ID: 0, Cores: 4}, {ID: 1, Cores: 4}},
		Workers: []WorkerLoad{
			{Key: WorkerKey{0, 0}, Busy: busyHome0, Home: true},
			{Key: WorkerKey{0, 1}, Busy: busyHelper0},
			{Key: WorkerKey{1, 1}, Busy: busyHome1, Home: true},
		},
	}
}

// largestRemainder and apportion run the in-place roundings on fresh
// buffers.
func largestRemainder(raw []float64, total int) []int {
	out := make([]int, len(raw))
	largestRemainderInto(out, raw, total, make([]float64, len(raw)), make([]int, len(raw)))
	return out
}

func apportion(raw []float64, total int) []int {
	out := make([]int, len(raw))
	apportionInto(out, raw, total, make([]float64, len(raw)), make([]int, len(raw)))
	return out
}

// checkAllocation verifies alloc against p: >= 1 core per worker and
// exact per-node sums.
func checkAllocation(p *Problem, alloc Allocation) error {
	v := new(view)
	if err := v.index(p); err != nil {
		return err
	}
	v.cores = make([]int, len(p.Workers))
	for wi, w := range p.Workers {
		c, ok := alloc[w.Key]
		if !ok {
			return fmt.Errorf("balance: worker %v missing from allocation", w.Key)
		}
		v.cores[wi] = c
	}
	_, err := v.allocation()
	return err
}

func TestValidate(t *testing.T) {
	p := twoNodeProblem(1, 0, 1)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := &Problem{
		Nodes:   []NodeInfo{{ID: 0, Cores: 1}},
		Workers: []WorkerLoad{{Key: WorkerKey{0, 9}}},
	}
	if bad.Validate() == nil {
		t.Fatal("unknown node accepted")
	}
	bad2 := &Problem{
		Nodes: []NodeInfo{{ID: 0, Cores: 1}},
		Workers: []WorkerLoad{
			{Key: WorkerKey{0, 0}, Home: true},
			{Key: WorkerKey{1, 0}, Home: true},
		},
	}
	if bad2.Validate() == nil {
		t.Fatal("more workers than cores accepted")
	}
	for name, bad := range map[string]*Problem{
		"duplicate node": {
			Nodes:   []NodeInfo{{ID: 0, Cores: 2}, {ID: 0, Cores: 2}},
			Workers: []WorkerLoad{{Key: WorkerKey{0, 0}, Home: true}},
		},
		"duplicate worker": {
			Nodes:   []NodeInfo{{ID: 0, Cores: 2}},
			Workers: []WorkerLoad{{Key: WorkerKey{0, 0}, Home: true}, {Key: WorkerKey{0, 0}}},
		},
		"node id span": {
			Nodes:   []NodeInfo{{ID: 0, Cores: 1}, {ID: maxIDSpan, Cores: 1}},
			Workers: []WorkerLoad{{Key: WorkerKey{0, 0}, Home: true}},
		},
		"apprank id span": {
			Nodes:   []NodeInfo{{ID: 0, Cores: 2}},
			Workers: []WorkerLoad{{Key: WorkerKey{-maxIDSpan, 0}, Home: true}, {Key: WorkerKey{0, 0}}},
		},
	} {
		if bad.Validate() == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestLargestRemainder(t *testing.T) {
	out := largestRemainder([]float64{3, 1}, 8)
	if out[0]+out[1] != 8 || out[0] < out[1] {
		t.Fatalf("largestRemainder = %v", out)
	}
	// Floor of one even for zero weight.
	out = largestRemainder([]float64{10, 0}, 4)
	if out[1] != 1 || out[0] != 3 {
		t.Fatalf("largestRemainder = %v, want [3 1]", out)
	}
	// Zero weights split evenly.
	out = largestRemainder([]float64{0, 0, 0, 0}, 8)
	for _, v := range out {
		if v != 2 {
			t.Fatalf("even split = %v", out)
		}
	}
}

func TestApportion(t *testing.T) {
	out := apportion([]float64{1, 1, 1}, 7)
	sum := 0
	for _, v := range out {
		sum += v
	}
	if sum != 7 {
		t.Fatalf("apportion sum = %d", sum)
	}
	out = apportion([]float64{5, 0}, 5)
	if out[0] != 5 || out[1] != 0 {
		t.Fatalf("apportion = %v", out)
	}
	out = apportion(nil, 5)
	if len(out) != 0 {
		t.Fatal("apportion on empty input")
	}
}

func TestLocalProportional(t *testing.T) {
	// Node 1 has helper of apprank 0 with busy 3 and home apprank 1 with
	// busy 1: ownership should be ~3:1.
	p := twoNodeProblem(4, 3, 1)
	alloc, err := LocalPolicy{}.Allocate(p)
	if err != nil {
		t.Fatal(err)
	}
	if alloc[WorkerKey{0, 0}] != 4 {
		t.Fatalf("home0 owns %d, want all 4 (sole worker)", alloc[WorkerKey{0, 0}])
	}
	if alloc[WorkerKey{0, 1}] != 3 || alloc[WorkerKey{1, 1}] != 1 {
		t.Fatalf("node1 split = %d/%d, want 3/1",
			alloc[WorkerKey{0, 1}], alloc[WorkerKey{1, 1}])
	}
}

func TestLocalIdleNodeFavoursHome(t *testing.T) {
	p := twoNodeProblem(0, 0, 0)
	alloc, err := LocalPolicy{}.Allocate(p)
	if err != nil {
		t.Fatal(err)
	}
	if alloc[WorkerKey{1, 1}] != 3 || alloc[WorkerKey{0, 1}] != 1 {
		t.Fatalf("idle node gave home %d, helper %d; want 3, 1",
			alloc[WorkerKey{1, 1}], alloc[WorkerKey{0, 1}])
	}
}

func TestLocalMinimumOneCore(t *testing.T) {
	p := twoNodeProblem(4, 0, 8)
	alloc, err := LocalPolicy{}.Allocate(p)
	if err != nil {
		t.Fatal(err)
	}
	if alloc[WorkerKey{0, 1}] < 1 {
		t.Fatal("idle helper lost its floor core")
	}
}

func TestGlobalImbalancedShiftsCores(t *testing.T) {
	// Apprank 0 has 6 busy cores of work, apprank 1 has 2: apprank 0
	// should receive cores on node 1 through its helper.
	p := twoNodeProblem(4, 2, 2)
	alloc, err := GlobalPolicy{Incentive: 1e-6}.Allocate(p)
	if err != nil {
		t.Fatal(err)
	}
	// Optimal t = 8/8 = 1.0: apprank 0 gets 6 cores (4 home + 2 helper),
	// apprank 1 gets 2.
	if got := alloc[WorkerKey{0, 0}] + alloc[WorkerKey{0, 1}]; got != 6 {
		t.Fatalf("apprank 0 owns %d cores, want 6 (alloc=%v)", got, alloc)
	}
	if alloc[WorkerKey{1, 1}] != 2 {
		t.Fatalf("apprank 1 owns %d, want 2", alloc[WorkerKey{1, 1}])
	}
}

func TestGlobalBalancedAvoidsOffload(t *testing.T) {
	// Equal loads that fit each home node: helpers must stay at one core.
	p := twoNodeProblem(3, 0, 3)
	alloc, err := GlobalPolicy{Incentive: 1e-6}.Allocate(p)
	if err != nil {
		t.Fatal(err)
	}
	if alloc[WorkerKey{0, 1}] != 1 {
		t.Fatalf("balanced load but helper owns %d cores (Figure 5(b) property)", alloc[WorkerKey{0, 1}])
	}
	if alloc[WorkerKey{0, 0}] != 4 || alloc[WorkerKey{1, 1}] != 3 {
		t.Fatalf("alloc = %v", alloc)
	}
}

func TestGlobalObjectiveValue(t *testing.T) {
	p := twoNodeProblem(4, 2, 2)
	obj, err := GlobalPolicy{}.SolveObjective(p)
	if err != nil {
		t.Fatal(err)
	}
	// Work: apprank0 ~6, apprank1 2, 8 cores total, adjacency full for
	// a0; optimum max ratio = 1.0.
	if math.Abs(obj-1.0) > 1e-3 {
		t.Fatalf("objective = %v, want ~1.0", obj)
	}
}

func TestGlobalAdjacencyRestricts(t *testing.T) {
	// Apprank 0 has no helper: its work cannot spread, so the optimum is
	// bounded by its home node capacity.
	p := &Problem{
		Nodes: []NodeInfo{{ID: 0, Cores: 4}, {ID: 1, Cores: 4}},
		Workers: []WorkerLoad{
			{Key: WorkerKey{0, 0}, Busy: 8, Home: true},
			{Key: WorkerKey{1, 1}, Busy: 1, Home: true},
		},
	}
	obj, err := GlobalPolicy{}.SolveObjective(p)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(obj-2.0) > 1e-3 {
		t.Fatalf("objective = %v, want 2.0 (8 work / 4 reachable cores)", obj)
	}
	alloc, err := GlobalPolicy{}.Allocate(p)
	if err != nil {
		t.Fatal(err)
	}
	if alloc[WorkerKey{0, 0}] != 4 || alloc[WorkerKey{1, 1}] != 4 {
		t.Fatalf("alloc = %v", alloc)
	}
}

func TestGlobalZeroWork(t *testing.T) {
	p := twoNodeProblem(0, 0, 0)
	alloc, err := GlobalPolicy{}.Allocate(p)
	if err != nil {
		t.Fatal(err)
	}
	if alloc[WorkerKey{0, 1}] != 1 {
		t.Fatalf("idle helper owns %d, want 1", alloc[WorkerKey{0, 1}])
	}
	if alloc[WorkerKey{0, 0}] != 4 || alloc[WorkerKey{1, 1}] != 3 {
		t.Fatalf("alloc = %v", alloc)
	}
}

func TestGlobalSimplexAgreesWithFlow(t *testing.T) {
	cases := []*Problem{
		twoNodeProblem(4, 2, 2),
		twoNodeProblem(3, 0, 3),
		twoNodeProblem(8, 4, 1),
		twoNodeProblem(0.5, 0.1, 3.7),
	}
	for i, p := range cases {
		flowAlloc, err := GlobalPolicy{Incentive: 1e-6}.Allocate(p)
		if err != nil {
			t.Fatalf("case %d flow: %v", i, err)
		}
		simplexAlloc, _, _, err := oracleAllocate(p, 1e-6, true)
		if err != nil {
			t.Fatalf("case %d simplex: %v", i, err)
		}
		// The allocations must offload the same number of cores (the
		// optima agree even if ties break differently).
		offload := func(a Allocation) int {
			n := 0
			for _, w := range p.Workers {
				if !w.Home {
					n += a[w.Key]
				}
			}
			return n
		}
		if offload(flowAlloc) != offload(simplexAlloc) {
			t.Fatalf("case %d: flow offloads %d, simplex %d (flow=%v simplex=%v)",
				i, offload(flowAlloc), offload(simplexAlloc), flowAlloc, simplexAlloc)
		}
	}
}

// buildRandomProblem produces a random valid problem on a small machine.
func buildRandomProblem(rng *rand.Rand) *Problem {
	nNodes := 2 + rng.Intn(4)
	cores := 4 + rng.Intn(5)
	p := &Problem{}
	for n := 0; n < nNodes; n++ {
		p.Nodes = append(p.Nodes, NodeInfo{ID: n, Cores: cores})
	}
	// One apprank per node, each with a helper on the next node.
	for a := 0; a < nNodes; a++ {
		p.Workers = append(p.Workers,
			WorkerLoad{Key: WorkerKey{a, a}, Busy: rng.Float64() * float64(cores) * 2, Home: true},
			WorkerLoad{Key: WorkerKey{a, (a + 1) % nNodes}, Busy: rng.Float64()},
		)
	}
	return p
}

// Property: both policies return allocations with >= 1 core per worker
// and per-node sums equal to node cores (conservation), for random loads.
func TestQuickAllocationsValid(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := buildRandomProblem(rng)
		la, err := LocalPolicy{}.Allocate(p)
		if err != nil || checkAllocation(p, la) != nil {
			return false
		}
		ga, err := GlobalPolicy{Incentive: 1e-6}.Allocate(p)
		if err != nil || checkAllocation(p, ga) != nil {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// Property: the flow and simplex objective values agree.
func TestQuickFlowSimplexObjectiveAgree(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := buildRandomProblem(rng)
		o1, err1 := GlobalPolicy{}.SolveObjective(p)
		_, o2, _, err2 := oracleAllocate(p, 0, true)
		if err1 != nil || err2 != nil {
			return false
		}
		return math.Abs(o1-o2) <= 1e-5*math.Max(1, o1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: the global objective never exceeds the no-offload objective
// (offloading can only help), and is at least total work / total cores.
func TestQuickGlobalObjectiveBounds(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := buildRandomProblem(rng)
		obj, err := GlobalPolicy{}.SolveObjective(p)
		if err != nil {
			return false
		}
		totalWork, totalCores := 0.0, 0.0
		noOffload := 0.0
		perApp := map[int]float64{}
		for _, w := range p.Workers {
			totalWork += w.Busy
			perApp[w.Key.Apprank] += w.Busy
		}
		for _, n := range p.Nodes {
			totalCores += float64(n.Cores)
		}
		for a, wk := range perApp {
			// Without offloading each apprank has its home node's cores
			// minus one core lent to the resident helper.
			r := wk / float64(p.Nodes[a].Cores-1)
			if r > noOffload {
				noOffload = r
			}
		}
		return obj >= totalWork/totalCores-1e-6 && obj <= noOffload+1e-6+1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
