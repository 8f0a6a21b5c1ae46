package nanos

import (
	"fmt"
	"testing"
)

// BenchmarkSubmitIndependent measures dependency-registry throughput for
// disjoint regions.
func BenchmarkSubmitIndependent(b *testing.B) {
	g := NewTaskGraph(func(*Task) {})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := uint64(i%4096) * 128
		t := &Task{Accesses: []Access{{Region{s, s + 64}, InOut}}}
		g.Submit(t)
		g.MarkRunning(t, 0)
		g.Complete(t)
	}
}

// BenchmarkSubmitChained measures the serial-chain path (same region).
func BenchmarkSubmitChained(b *testing.B) {
	ready := make([]*Task, 0, 1)
	g := NewTaskGraph(func(t *Task) { ready = append(ready, t) })
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Submit(&Task{Accesses: []Access{{Region{0, 64}, InOut}}})
		for len(ready) > 0 {
			t := ready[0]
			ready = ready[1:]
			g.MarkRunning(t, 0)
			g.Complete(t)
		}
	}
}

// BenchmarkDataLocation measures locality queries over a fragmented
// registry on the scheduler's hot path (the allocation-free vector
// form); the benchmark is expected to report 0 allocs/op. Each query
// reads four intervals, sweeping the registry in address order, and the
// bytes sit on 8 nodes: an 8-node machine and a 64-node one whose
// appranks write to a few nodes only, as in the Figure 8 sweep. The two
// cases should cost the same, since a query touches only the nodes that
// hold its bytes.
func BenchmarkDataLocation(b *testing.B) {
	for _, nodes := range []int{8, 64} {
		b.Run(fmt.Sprintf("nodes=%d", nodes), func(b *testing.B) {
			g := NewTaskGraph(func(*Task) {})
			for i := 0; i < 256; i++ {
				s := uint64(i) * 100
				t := &Task{Accesses: []Access{{Region{s, s + 100}, Out}}}
				g.Submit(t)
				g.MarkRunning(t, i%8)
				g.Complete(t)
			}
			vec := NewLocVec(nodes)
			acc := make([]Access, 1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s := uint64(i%64) * 400
				acc[0] = Access{Region{s, s + 400}, In}
				g.DataLocationInto(acc, vec)
			}
		})
	}
}

// BenchmarkDataLocationMap measures the map-shaped convenience form, for
// comparison against the dense-vector hot path above.
func BenchmarkDataLocationMap(b *testing.B) {
	g := NewTaskGraph(func(*Task) {})
	for i := 0; i < 256; i++ {
		s := uint64(i) * 100
		t := &Task{Accesses: []Access{{Region{s, s + 100}, Out}}}
		g.Submit(t)
		g.MarkRunning(t, i%8)
		g.Complete(t)
	}
	acc := []Access{{Region{0, 25600}, In}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.DataLocation(acc)
	}
}

// BenchmarkRegistryAddAccess measures the steady-state write path over a
// fragmented registry: span rebuild plus single splice, expected to
// report 0 allocs/op once the buffers have reached the workload's
// footprint.
func BenchmarkRegistryAddAccess(b *testing.B) {
	var r registry
	const regions = 256
	tasks := make([]*Task, regions)
	for i := range tasks {
		tasks[i] = &Task{ID: int64(i + 1), state: Running, ExecNode: i % 8}
	}
	for i := 0; i < 2*regions; i++ {
		k := i % regions
		s := uint64(k) * 128
		r.addAccess(tasks[k], Access{Region{s, s + 128}, Out})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % regions
		s := uint64(k) * 128
		r.addAccess(tasks[k], Access{Region{s, s + 128}, Out})
	}
}
