package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"math"
	"testing"

	"ompsscluster/internal/cluster"
	"ompsscluster/internal/simtime"
)

// TestPOPReportPinned pins the POP report's JSON bytes for the shared
// SPMD workload with full accounting and 5 ms windows: the report is a
// deterministic function of the configuration.
func TestPOPReportPinned(t *testing.T) {
	rt := MustNew(Config{
		Machine:   cluster.New(4, 4, cluster.DefaultNet()),
		LeWI:      true,
		DROM:      DROMLocal,
		Seed:      7,
		POP:       true,
		POPWindow: 5 * ms,
	})
	if err := rt.Run(spmdWorkload); err != nil {
		t.Fatalf("run failed: %v", err)
	}
	rep, err := rt.POP()
	if err != nil {
		t.Fatalf("POP: %v", err)
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	const want = "41355a7cc55445fb007131bb47d7895727c269355ae857983bdb0d00b5e45985"
	if sum := sha256.Sum256(buf.Bytes()); hex.EncodeToString(sum[:]) != want {
		t.Errorf("POP JSON sha256 %x, pinned %s:\n%s", sum, want, buf.String())
	}
}

// TestPOPReportContent checks the report semantics on a real run: the
// multiplicative decomposition holds over both entity sets and in every
// window, utilisations are sane, and the counters are populated.
func TestPOPReportContent(t *testing.T) {
	cfg := Config{
		Machine:   cluster.New(4, 4, cluster.DefaultNet()),
		LeWI:      true,
		DROM:      DROMLocal,
		Seed:      7,
		POP:       true,
		POPWindow: 5 * ms,
	}
	rt := MustNew(cfg)
	if err := rt.Run(spmdWorkload); err != nil {
		t.Fatal(err)
	}
	rep, err := rt.POP()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Appranks) != 4 || len(rep.Nodes) != 4 {
		t.Fatalf("want 4 appranks and 4 nodes, got %d/%d", len(rep.Appranks), len(rep.Nodes))
	}
	check := func(name string, pe, lb, commE float64) {
		if math.Abs(pe-lb*commE) > 1e-12 {
			t.Errorf("%s: PE %v != LB %v x CommE %v", name, pe, lb, commE)
		}
		if pe <= 0 || pe > 1+1e-9 || commE <= 0 || commE > 1+1e-9 {
			t.Errorf("%s: implausible PE/CommE %v/%v", name, pe, commE)
		}
	}
	check("appranks", rep.ApprankPOP.PE, rep.ApprankPOP.LB, rep.ApprankPOP.CommE)
	check("nodes", rep.NodePOP.PE, rep.NodePOP.LB, rep.NodePOP.CommE)
	if len(rep.Windows) == 0 {
		t.Fatal("no windows despite POPWindow")
	}
	for _, w := range rep.Windows {
		if w.CommE > 0 && math.Abs(w.PE-w.LB*w.CommE) > 1e-12 {
			t.Errorf("window [%v,%v): PE %v != LB x CommE %v", w.Start, w.End, w.PE, w.LB*w.CommE)
		}
	}
	var tasks, mpiOps int64
	for _, e := range rep.Appranks {
		tasks += e.Tasks
		mpiOps += e.MPIOps
		if e.Capacity <= 0 || e.DeclaredWork <= 0 {
			t.Errorf("apprank %d: capacity %v, declared work %v", e.ID, e.Capacity, e.DeclaredWork)
		}
	}
	if got := rt.TotalTasks(); tasks != got {
		t.Errorf("POP counted %d tasks, runtime ran %d", tasks, got)
	}
	// Each rank enters 8 collectives (4 allreduces + 4 barriers) and 4
	// point-to-point receives per the workload loop.
	if want := int64(4 * (8 + 4)); mpiOps != want {
		t.Errorf("POP counted %d MPI ops, want %d", mpiOps, want)
	}
	// MPI ops must also land on the node breakdown (home attribution).
	var nodeOps int64
	for _, e := range rep.Nodes {
		nodeOps += e.MPIOps
	}
	if nodeOps != mpiOps {
		t.Errorf("node MPI ops %d != apprank MPI ops %d", nodeOps, mpiOps)
	}
}

// TestPOPOffLeavesRunUnchanged pins the opt-in contract: enabling the
// accounting must not change a single scheduling outcome — elapsed time,
// task counts, run stats, and the TALP report all match a POP-off run.
func TestPOPOffLeavesRunUnchanged(t *testing.T) {
	off := runSPMDWorkload(t, func(c *Config) { c.POP = false })
	on := runSPMDWorkload(t, func(c *Config) { c.POP = true; c.POPWindow = 5 * ms })
	if off != on {
		t.Errorf("POP accounting perturbed the run:\noff: %+v\non:  %+v", off, on)
	}
}

func TestPOPConfigValidation(t *testing.T) {
	rt := MustNew(Config{Machine: cluster.New(1, 2, cluster.DefaultNet())})
	if _, err := rt.POP(); err == nil {
		t.Error("POP() without Config.POP should error")
	}
	rt = MustNew(Config{Machine: cluster.New(1, 2, cluster.DefaultNet()), POP: true})
	if _, err := rt.POP(); err == nil {
		t.Error("POP() before Run should error")
	}
	if _, err := New(Config{Machine: cluster.New(1, 2, cluster.DefaultNet()), POPWindow: simtime.Duration(5 * ms)}); err == nil {
		t.Error("POPWindow without POP should be rejected")
	}
	if _, err := New(Config{Machine: cluster.New(1, 2, cluster.DefaultNet()), POP: true, POPWindow: -1}); err == nil {
		t.Error("negative POPWindow should be rejected")
	}
}
