package balance

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// genProblem builds a random valid problem on a biregular worker layout:
// appranksPerNode appranks per node, each with workers on degree distinct
// nodes (its home first) at the same circulant offsets, so every node
// hosts appranksPerNode*degree workers. Node ids are shuffled. knobs
// picks the load and capacity shape:
//   - bits 0-1: loads uniform, skewed (one heavy apprank, the rest light),
//     all zero, or quantised to quarters so that sets of appranks tie;
//   - bit 2: some appranks fully idle;
//   - bit 3: one to three slow nodes, whose workers' busy averages are
//     3.0/1.8 times larger, as a 1.8 GHz node among 3.0 GHz ones shows;
//   - bit 4: unequal node core counts (else all equal, so capacities tie).
func genProblem(rng *rand.Rand, knobs uint8) *Problem {
	nodes := 1 + rng.Intn(10)
	degree := 1 + rng.Intn(4)
	if degree > nodes {
		degree = nodes
	}
	perNode := 1 + rng.Intn(2)
	offsets := rng.Perm(nodes - 1)[:degree-1]
	ids := rng.Perm(nodes)
	hosted := perNode * degree
	base := hosted + rng.Intn(9)
	p := &Problem{}
	for n := 0; n < nodes; n++ {
		cores := base
		if knobs&16 != 0 {
			cores = hosted + rng.Intn(13)
		}
		p.Nodes = append(p.Nodes, NodeInfo{ID: ids[n], Cores: cores})
	}
	slow := make([]bool, nodes)
	if knobs&8 != 0 {
		for k := 1 + rng.Intn(3); k > 0; k-- {
			slow[rng.Intn(nodes)] = true
		}
	}
	heavy := rng.Intn(nodes * perNode)
	for a := 0; a < nodes*perNode; a++ {
		idle := knobs&4 != 0 && rng.Intn(3) == 0
		home := a % nodes
		for k := 0; k < degree; k++ {
			n := home
			if k > 0 {
				n = (home + 1 + offsets[k-1]) % nodes
			}
			var busy float64
			switch knobs & 3 {
			case 0:
				busy = rng.Float64() * float64(base)
			case 1:
				busy = rng.Float64() * 0.5
				if a == heavy {
					busy = float64(base) * (1 + 3*rng.Float64())
				}
			case 2:
				busy = 0
			case 3:
				busy = float64(rng.Intn(4*base)) / 4
			}
			if k > 0 && rng.Intn(2) == 0 {
				busy *= 0.1 // helpers usually carry less
			}
			if idle {
				busy = 0
			}
			if slow[n] {
				busy *= 3.0 / 1.8
			}
			p.Workers = append(p.Workers, WorkerLoad{
				Key: WorkerKey{Apprank: a, Node: ids[n]}, Busy: busy, Home: k == 0,
			})
		}
	}
	rng.Shuffle(len(p.Workers), func(i, j int) { p.Workers[i], p.Workers[j] = p.Workers[j], p.Workers[i] })
	return p
}

// checkAgainstOracles solves p with the reused policies and compares
// them with the oracles: the global t* bit for bit with the bisection
// that runs a max flow per probe, and both allocations exactly. It
// returns the feasibility flows the solver ran and the oracle's probes.
func checkAgainstOracles(t *testing.T, p *Problem, global GlobalPolicy, local LocalPolicy) (flows, probes int) {
	t.Helper()
	want, wantT, probes, err := oracleAllocate(p, global.Incentive, false)
	if err != nil {
		t.Fatalf("oracle: %v\nproblem: %+v", err, p)
	}
	before := global.v.flows
	got, err := global.Allocate(p)
	if err != nil {
		t.Fatalf("global: %v\nproblem: %+v", err, p)
	}
	flows = global.v.flows - before
	gotT, err := global.SolveObjective(p)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(gotT) != math.Float64bits(wantT) {
		t.Fatalf("t* = %v (%x), bisection oracle %v (%x)\nproblem: %+v",
			gotT, math.Float64bits(gotT), wantT, math.Float64bits(wantT), p)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("global allocation %v, oracle %v\nproblem: %+v", got, want, p)
	}
	wantL, err := oracleLocal(p)
	if err != nil {
		t.Fatal(err)
	}
	gotL, err := local.Allocate(p)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotL, wantL) {
		t.Fatalf("local allocation %v, oracle %v\nproblem: %+v", gotL, wantL, p)
	}
	return flows, probes
}

// TestGlobalMatchesBisectionOracle is the differential test of the
// predicted bisection: over generated problems of every shape, one pair
// of reused policies (so buffers carry over between shapes) must match
// the oracles exactly, while running far fewer max flows.
func TestGlobalMatchesBisectionOracle(t *testing.T) {
	global, local := NewGlobalPolicy(1e-6), NewLocalPolicy()
	rng := rand.New(rand.NewSource(1))
	flows, probes := 0, 0
	for i := 0; i < 4000; i++ {
		p := genProblem(rng, uint8(i))
		f, n := checkAgainstOracles(t, p, global, local)
		flows += f
		probes += n
	}
	t.Logf("%d feasibility max flows where the bisection ran %d probes", flows, probes)
	if flows*4 > probes {
		t.Errorf("%d max flows for %d bisection probes: the cut predictions are not cutting", flows, probes)
	}
}

func FuzzGlobalSolve(f *testing.F) {
	for knobs := 0; knobs < 32; knobs++ {
		f.Add(int64(knobs), uint8(knobs))
	}
	global, local := NewGlobalPolicy(1e-6), NewLocalPolicy()
	f.Fuzz(func(t *testing.T, seed int64, knobs uint8) {
		checkAgainstOracles(t, genProblem(rand.New(rand.NewSource(seed)), knobs), global, local)
	})
}

// TestPolicyTicksAllocationFree pins the reused policies at zero
// allocations per solve once their buffers have seen the problem.
func TestPolicyTicksAllocationFree(t *testing.T) {
	p := benchProblem(1)
	global, local := NewGlobalPolicy(1e-6), NewLocalPolicy()
	for name, pol := range map[string]interface {
		Allocate(*Problem) (Allocation, error)
	}{"global": global, "local": local} {
		if _, err := pol.Allocate(p); err != nil {
			t.Fatal(err)
		}
		if allocs := testing.AllocsPerRun(5, func() { _, _ = pol.Allocate(p) }); allocs != 0 {
			t.Errorf("%s policy tick allocates %v objects, want 0", name, allocs)
		}
	}
}
