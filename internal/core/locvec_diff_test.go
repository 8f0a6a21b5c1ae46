package core

import (
	"math/rand"
	"testing"

	"ompsscluster/internal/cluster"
	"ompsscluster/internal/nanos"
)

// denseLoc is the reference location vector: one slot per node, filled
// from the map-shaped DataLocation with unknown bytes folded home, the
// way the scheduler saw it before the vector went sparse.
func denseLoc(g *nanos.TaskGraph, acc []nanos.Access, numNodes, home int) []int64 {
	d := make([]int64, numNodes)
	for n, b := range g.DataLocation(acc) {
		if n < 0 {
			n = home
		}
		d[n] += b
	}
	return d
}

// denseTransfer walks every node of the machine, as transferDelay did
// over the dense vector.
func denseTransfer(a *Apprank, d []int64, target int) (delay, moved int64) {
	for node, bytes := range d {
		if node == target || bytes == 0 {
			continue
		}
		moved += bytes
		if t := int64(a.rt.cfg.Machine.Net.TransferTime(node, target, bytes)); t > delay {
			delay = t
		}
	}
	return delay, moved
}

// denseBest is localityBest over the dense reference.
func denseBest(a *Apprank, d []int64) *Worker {
	best := a.workers[0]
	for _, w := range a.workers[1:] {
		if !w.dead && d[w.ns.id] > d[best.ns.id] {
			best = w
		}
	}
	return best
}

// TestSparseLocVecMatchesDense drives dataLocation, transferDelay and
// localityBest over random registries and compares each answer with a
// dense reference. Tasks run on any node of the machine — not only the
// apprank's expander neighbours, as after fault recovery — so bytes sit
// on nodes the apprank has no worker on. The apprank's one reused vector
// must never carry a stale slot from an earlier query, and Reset must
// leave every slot reading zero.
func TestSparseLocVecMatchesDense(t *testing.T) {
	for _, nodes := range []int{4, 16, 64} {
		rt := MustNew(Config{
			Machine: cluster.New(nodes, 4, cluster.NetModel{
				Latency: 1000, BytesPerSecond: 1e9, TreeRadix: 4, HopLatency: 300,
			}),
			Degree: 3,
		})
		for seed := int64(1); seed <= 20; seed++ {
			rng := rand.New(rand.NewSource(seed*1000 + int64(nodes)))
			a := rt.appranks[rng.Intn(len(rt.appranks))]
			for _, w := range a.workers[1:] {
				w.dead = rng.Intn(4) == 0
			}
			var ready []*nanos.Task
			g := nanos.NewTaskGraph(func(tk *nanos.Task) { ready = append(ready, tk) })
			a.graph = g
			randAccess := func() nanos.Access {
				s := uint64(rng.Intn(4096))
				return nanos.Access{
					Region: nanos.Region{Start: s, End: s + 1 + uint64(rng.Intn(512))},
					Mode:   nanos.AccessMode(rng.Intn(4)),
				}
			}
			for step := 0; step < 300; step++ {
				acc := []nanos.Access{randAccess()}
				if rng.Intn(2) == 0 {
					acc = append(acc, randAccess())
				}
				g.Submit(&nanos.Task{Accesses: acc})
				// Start and finish some ready tasks on arbitrary nodes.
				for len(ready) > 0 && rng.Intn(3) > 0 {
					i := rng.Intn(len(ready))
					tk := ready[i]
					ready = append(ready[:i], ready[i+1:]...)
					g.MarkRunning(tk, rng.Intn(nodes))
					if rng.Intn(4) > 0 {
						g.Complete(tk)
					}
				}
				q := &nanos.Task{Accesses: []nanos.Access{randAccess(), randAccess()}}
				loc := a.dataLocation(q)
				want := denseLoc(g, q.Accesses, nodes, a.home)
				if loc.Unknown() != 0 {
					t.Fatalf("nodes %d seed %d step %d: %d unknown bytes left after folding", nodes, seed, step, loc.Unknown())
				}
				for n := 0; n < nodes; n++ {
					if loc.On(n) != want[n] {
						t.Fatalf("nodes %d seed %d step %d: on(%d) = %d, dense %d", nodes, seed, step, n, loc.On(n), want[n])
					}
				}
				resident := 0
				for n := range want {
					if want[n] != 0 {
						resident++
					}
				}
				if len(loc.Nodes()) != resident {
					t.Fatalf("nodes %d seed %d step %d: %d nodes listed, %d hold bytes", nodes, seed, step, len(loc.Nodes()), resident)
				}
				for target := 0; target < nodes; target++ {
					d, m := a.transferDelay(loc, target)
					wd, wm := denseTransfer(a, want, target)
					if d != wd || m != wm {
						t.Fatalf("nodes %d seed %d step %d: transferDelay(%d) = %d, %d; dense %d, %d", nodes, seed, step, target, d, m, wd, wm)
					}
				}
				if got, ref := a.localityBest(loc), denseBest(a, want); got != ref {
					t.Fatalf("nodes %d seed %d step %d: localityBest = node %d, dense node %d", nodes, seed, step, got.ns.id, ref.ns.id)
				}
			}
			a.locBuf.Reset()
			if a.locBuf.Unknown() != 0 || len(a.locBuf.Nodes()) != 0 {
				t.Fatalf("nodes %d seed %d: Reset left unknown %d, %d listed nodes", nodes, seed, a.locBuf.Unknown(), len(a.locBuf.Nodes()))
			}
			for n := 0; n < nodes; n++ {
				if v := a.locBuf.On(n); v != 0 {
					t.Fatalf("nodes %d seed %d: slot %d reads %d after Reset", nodes, seed, n, v)
				}
			}
		}
	}
}
