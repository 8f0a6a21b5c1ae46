package experiments

import (
	"fmt"

	"ompsscluster/internal/cluster"
	"ompsscluster/internal/core"
	"ompsscluster/internal/simtime"
)

// Headline reproduces the abstract's three headline claims:
//
//  1. ~46% reduction in time-to-solution for MicroPP on 32 nodes versus
//     single-node DLB, within ~7% of perfect balance;
//  2. for n-body on 16 nodes with one slow node, DLB reduces time by
//     ~16% and offloading by a further ~20% (vs the same baseline);
//  3. the synthetic benchmark within 10% of perfect balance for
//     imbalance up to 2.0 on 8 nodes.
//
// Node counts cap at the scale's MaxNodes.
func Headline(sc Scale) *Result {
	res := &Result{
		ID:     "headline",
		Title:  "Headline numbers (abstract)",
		XLabel: "claim",
		YLabel: "value",
	}

	mppNodes := 32
	if mppNodes > sc.MaxNodes {
		mppNodes = sc.MaxNodes
	}
	nbNodes := 16
	if nbNodes > sc.MaxNodes {
		nbNodes = sc.MaxNodes
	}
	synNodes := 8
	if synNodes > sc.MaxNodes {
		synNodes = sc.MaxNodes
	}
	synCfg := synConfig(sc, 2.0)

	// The eight underlying measurements are independent simulator runs;
	// sweep them together and assemble the claims from the results.
	runs := []func() simtime.Duration{
		func() simtime.Duration { t, _ := mppRun(sc, mppNodes, 1, 1, true, core.DROMLocal, nil); return t },
		func() simtime.Duration { t, _ := mppRun(sc, mppNodes, 1, 4, true, core.DROMGlobal, nil); return t },
		func() simtime.Duration { return mppOptimal(sc, mppNodes, 1) },
		func() simtime.Duration { return nbodyRun(sc, nbNodes, 1, false, core.DROMOff, true, false) },
		func() simtime.Duration { return nbodyRun(sc, nbNodes, 1, true, core.DROMLocal, true, false) },
		func() simtime.Duration { return nbodyRun(sc, nbNodes, 3, true, core.DROMGlobal, true, false) },
		func() simtime.Duration {
			m := cluster.New(synNodes, sc.CoresPerNode, cluster.DefaultNet())
			t, _ := synRun(sc, m, synCfg, 4, true, core.DROMGlobal, nil)
			return t
		},
		func() simtime.Duration {
			m := cluster.New(synNodes, sc.CoresPerNode, cluster.DefaultNet())
			return synOptimalIter(sc, m, synCfg)
		},
	}
	vals := mapSpecs(sc, runs, func(f func() simtime.Duration) simtime.Duration { return f() }, durCodec())

	// Claim 1: MicroPP on 32 nodes (global policy, degree 4).
	dlb, deg4, opt := vals[0], vals[1], vals[2]
	reduction := 100 * (1 - float64(deg4)/float64(dlb))
	aboveOpt := 100 * (float64(deg4)/float64(opt) - 1)
	res.Series = append(res.Series,
		Series{Label: "micropp reduction vs dlb %", Points: []Point{{1, reduction}}},
		Series{Label: "micropp above perfect %", Points: []Point{{1, aboveOpt}}},
	)
	res.Notes = append(res.Notes, fmt.Sprintf(
		"MicroPP %d nodes: degree 4 reduces time-to-solution by %.1f%% vs DLB (paper: 46%%), %.1f%% above perfect balance (paper: 7%%)",
		mppNodes, reduction, aboveOpt))

	// Claim 2: n-body on 16 nodes, one slow node.
	base, dlbNB, deg3 := vals[3], vals[4], vals[5]
	dlbGain := 100 * (1 - float64(dlbNB)/float64(base))
	furtherGain := 100 * (float64(dlbNB) - float64(deg3)) / float64(base)
	res.Series = append(res.Series,
		Series{Label: "nbody dlb reduction %", Points: []Point{{2, dlbGain}}},
		Series{Label: "nbody further reduction %", Points: []Point{{2, furtherGain}}},
	)
	res.Notes = append(res.Notes, fmt.Sprintf(
		"n-body %d nodes, slow node: DLB reduces time by %.1f%% (paper: 16%%); degree 3 a further %.1f%% of baseline (paper: 20%%)",
		nbNodes, dlbGain, furtherGain))

	// Claim 3: synthetic at imbalance 2.0 on 8 nodes, degree 4.
	t, optIter := vals[6], vals[7]
	overOpt := 100 * (float64(t)/float64(optIter) - 1)
	res.Series = append(res.Series,
		Series{Label: "synthetic above perfect %", Points: []Point{{3, overOpt}}},
	)
	res.Notes = append(res.Notes, fmt.Sprintf(
		"synthetic %d nodes, imbalance 2.0, degree 4: %.1f%% above perfect balance (paper: within 10%%)",
		synNodes, overOpt))
	return res
}
