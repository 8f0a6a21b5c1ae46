package balance

import (
	"math/rand"
	"testing"
)

// benchProblem builds a 64-node, degree-4 allocation problem.
func benchProblem(seed int64) *Problem {
	rng := rand.New(rand.NewSource(seed))
	const nodes = 64
	p := &Problem{}
	for n := 0; n < nodes; n++ {
		p.Nodes = append(p.Nodes, NodeInfo{ID: n, Cores: 48})
	}
	for a := 0; a < nodes; a++ {
		p.Workers = append(p.Workers, WorkerLoad{
			Key: WorkerKey{a, a}, Busy: rng.Float64() * 96, Home: true,
		})
		for k := 1; k < 4; k++ {
			p.Workers = append(p.Workers, WorkerLoad{
				Key: WorkerKey{a, (a + k*7) % nodes}, Busy: rng.Float64(),
			})
		}
	}
	return p
}

// BenchmarkGlobalFlow measures the global solve at the paper's largest
// configuration (the paper's CVXOPT solve: ~57ms), through a reused
// policy as the runtime's ticks run it. It reports the feasibility max
// flows per solve (flows/op), a count that does not vary between hosts;
// allocs/op is pinned at 0 in CI.
func BenchmarkGlobalFlow(b *testing.B) {
	p := benchProblem(1)
	pol := NewGlobalPolicy(1e-6)
	if _, err := pol.Allocate(p); err != nil { // size the buffers
		b.Fatal(err)
	}
	pol.v.flows = 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pol.Allocate(p); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(pol.v.flows)/float64(b.N), "flows/op")
}

// BenchmarkLocalPolicy measures the per-node proportional allocation.
func BenchmarkLocalPolicy(b *testing.B) {
	p := benchProblem(1)
	pol := NewLocalPolicy()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pol.Allocate(p); err != nil {
			b.Fatal(err)
		}
	}
}
