package core

import (
	"fmt"

	"ompsscluster/internal/dlb"
	"ompsscluster/internal/simtime"
)

// POP builds the run's POP efficiency report from the TALP cells, the
// arbiter core-time integrals, the MPI operation counters, and the task
// graphs. It is available after Run/RunAll on a runtime configured with
// Config.POP.
//
// Determinism: every input is accumulated in a fixed per-(apprank, node)
// cell or folded at simulation timestamps, and the builder iterates
// appranks and nodes in ascending id order, so the report — and its JSON
// rendering — is a deterministic function of the configuration.
func (rt *ClusterRuntime) POP() (*dlb.POPReport, error) {
	if !rt.cfg.POP {
		return nil, fmt.Errorf("core: POP report requested but Config.POP is off")
	}
	if !rt.started {
		return nil, fmt.Errorf("core: POP report before Run")
	}
	// The accounting horizon: the last apprank finish, extended to the
	// latest integral fold point (a trailing policy tick can fold the
	// ownership integrals slightly past the finish; using the maximum
	// keeps capacity and busy spans identical and AvgCores physical).
	end := rt.finishedAt
	for _, ns := range rt.nodes {
		if h := ns.arb.POPHorizon(); h > end {
			end = h
		}
	}
	in := dlb.POPInput{
		Elapsed: float64(end),
		Window:  rt.talp.Window(),
	}
	// Per-apprank entities, ascending id (rt.appranks is id-ordered).
	for _, a := range rt.appranks {
		e := dlb.POPEntityInput{
			ID:           a.id,
			MPI:          rt.talp.MPITime(a.id),
			DeclaredWork: float64(a.graph.TotalWork()),
		}
		st := rt.apps[a.appIdx]
		colls, recvs := st.world.RankOps(a.localRank)
		e.MPIOps = int64(colls + recvs)
		for n := range rt.nodes {
			c := rt.talp.Cell(a.id, n)
			e.Useful += c.Useful
			e.Overhead += c.Overhead
			e.Tasks += c.Tasks
			e.WinUseful = mergeWins(e.WinUseful, rt.talp.WindowUseful(a.id, n))
		}
		// Apprank capacity is the DLB allotment — owned plus LeWI-borrowed
		// core-time — so utilisation stays bounded by 1 when borrowing runs
		// an apprank far above its static allocation.
		for _, w := range a.workers {
			wp := w.ns.arb.WorkerPOPTotals(w.wid, end)
			e.Busy += wp.Busy
			e.Capacity += wp.Owned + wp.Borrowed
			e.Borrowed += wp.Borrowed
		}
		in.Appranks = append(in.Appranks, e)
	}
	// Per-node entities, ascending node id. MPI time and op counts are
	// attributed to the apprank's home node (the main process runs there).
	for _, ns := range rt.nodes {
		e := dlb.POPEntityInput{
			ID:       ns.id,
			Capacity: ns.arb.CapacityIntegral(end),
		}
		for _, a := range rt.appranks {
			c := rt.talp.Cell(a.id, ns.id)
			e.Useful += c.Useful
			e.Overhead += c.Overhead
			e.Tasks += c.Tasks
			e.WinUseful = mergeWins(e.WinUseful, rt.talp.WindowUseful(a.id, ns.id))
			if a.home == ns.id {
				e.MPI += rt.talp.MPITime(a.id)
				st := rt.apps[a.appIdx]
				colls, recvs := st.world.RankOps(a.localRank)
				e.MPIOps += int64(colls + recvs)
				e.DeclaredWork += float64(a.graph.TotalWork())
			}
		}
		for _, w := range ns.workers {
			wp := ns.arb.WorkerPOPTotals(w.wid, end)
			e.Busy += wp.Busy
			e.Borrowed += wp.Borrowed
		}
		in.Nodes = append(in.Nodes, e)
	}
	return dlb.ComputePOP(in), nil
}

// mergeWins adds the ragged per-window series src into dst, growing dst
// as needed. src is TALP's live accumulator and is never mutated.
func mergeWins(dst, src []float64) []float64 {
	for len(dst) < len(src) {
		dst = append(dst, 0)
	}
	for i, v := range src {
		dst[i] += v
	}
	return dst
}

// emitPOPWindows exports the windowed node-PE series as structured
// events at the end of a run, when POP windows and an observer are both
// configured. Samples are emitted window-ascending (nodes inner), so
// each node's Perfetto counter track is time-ordered. Without windows or
// an observer this is a no-op, leaving event streams — and the metrics
// derived from them — untouched.
func (rt *ClusterRuntime) emitPOPWindows() {
	if !rt.cfg.POP || rt.cfg.POPWindow <= 0 || rt.cfg.Obs == nil {
		return
	}
	rep, err := rt.POP()
	if err != nil {
		return
	}
	for wi, w := range rep.Windows {
		t := simtime.Time(wi) * simtime.Time(rt.cfg.POPWindow)
		for n, pe := range w.NodePE {
			rt.cfg.Obs.POPWindowSample(n, wi, t, pe)
		}
	}
}
