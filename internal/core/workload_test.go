package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"ompsscluster/internal/cluster"
	"ompsscluster/internal/faults"
	"ompsscluster/internal/nanos"
	"ompsscluster/internal/simmpi"
	"ompsscluster/internal/simtime"
)

// spmdWorkload is a degree-1 SPMD program with per-rank imbalance,
// dependencies, MPI collectives and point-to-point traffic — enough to
// exercise the dispatcher, the policies, the graph, and the MPI layer
// together.
func spmdWorkload(app *App) {
	r := app.Rank()
	p := app.NumRanks()
	state := app.Alloc(1 << 16)
	for iter := 0; iter < 4; iter++ {
		n := 6 + 3*((r+iter)%p)
		for i := 0; i < n; i++ {
			buf := app.Alloc(1 << 10)
			app.Submit(TaskSpec{
				Label: "work",
				Work:  simtime.Duration(2+((r+i)%3)) * ms,
				Accesses: []nanos.Access{
					{Region: buf, Mode: nanos.InOut},
					{Region: state, Mode: nanos.In},
				},
				// Offloadable so a self-scheduling variant routes these
				// through the chunk server (degree 1 keeps them home).
				Offloadable: true,
			})
		}
		app.Submit(TaskSpec{Label: "update", Work: 1 * ms,
			Accesses: []nanos.Access{{Region: state, Mode: nanos.InOut}}})
		app.TaskWait()
		sum := app.AllreduceFloat(float64(r+iter), simmpi.Sum)
		app.Comm().Send((r+1)%p, 3, sum, 128)
		app.Comm().Recv((r-1+p)%p, 3)
		app.Barrier()
	}
}

// spmdOutcome is everything a run of spmdWorkload reports.
type spmdOutcome struct {
	elapsed simtime.Duration
	tasks   int64
	stats   RunStats
	talp    string
	runErr  string
}

// digest is a short hash of the outcome, for pinning it.
func (o spmdOutcome) digest() string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("%+v", o)))
	return hex.EncodeToString(sum[:8])
}

func runSPMDWorkload(t *testing.T, mutate func(*Config)) spmdOutcome {
	t.Helper()
	cfg := Config{
		Machine:     cluster.New(4, 4, cluster.DefaultNet()),
		LeWI:        true,
		DROM:        DROMLocal,
		Seed:        7,
		EngineStats: &simtime.StatsCollector{},
	}
	if mutate != nil {
		mutate(&cfg)
	}
	rt := MustNew(cfg)
	err := rt.Run(spmdWorkload)
	out := spmdOutcome{
		elapsed: rt.Elapsed(),
		tasks:   rt.TotalTasks(),
		stats:   rt.Stats(),
		talp:    rt.TALP().Snapshot(simtime.Time(rt.Elapsed()), nil).String(),
	}
	if err != nil {
		out.runErr = err.Error()
	}
	return out
}

// TestTwoApranksPerNodeWakeOrder pins the configuration that makes
// same-instant wake order observable: two appranks share each node, so
// when a collective completes, the order in which co-located entrants
// resume — and where events their continuations schedule at the same
// instant land between them (LeWI reclaim, dispatch) — shows up in the
// balancing outcome. With one apprank per node most of this is masked.
// Any change to the collective wake path moves these digests.
func TestTwoApranksPerNodeWakeOrder(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Config)
		want   string
	}{
		{"lewi+dromlocal", func(c *Config) { c.AppranksPerNode = 2 }, "04948c550c80d12c"},
		{"lewi-only", func(c *Config) { c.AppranksPerNode = 2; c.DROM = DROMOff }, "8058137ee10b8742"},
		{"drom-only", func(c *Config) { c.AppranksPerNode = 2; c.LeWI = false }, "45716aef609f3d75"},
		{"neither", func(c *Config) { c.AppranksPerNode = 2; c.LeWI = false; c.DROM = DROMOff }, "cf0fcd0431b12301"},
		{"dromglobal", func(c *Config) { c.AppranksPerNode = 2; c.DROM = DROMGlobal }, "e624340139f8c066"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := runSPMDWorkload(t, tc.mutate)
			if got.tasks == 0 || got.runErr != "" {
				t.Fatalf("degenerate run: %+v", got)
			}
			if d := got.digest(); d != tc.want {
				t.Errorf("outcome digest %s, pinned %s:\n%+v", d, tc.want, got)
			}
		})
	}
}

// TestFaultPlanOnClonedMachine: fault plans mutate the run's machine in
// place (SetSpeed, RemoveCores), so runs sharing one prototype Machine
// must each run on a clone. Two runs off the same prototype then repeat
// exactly, and the prototype is left untouched.
func TestFaultPlanOnClonedMachine(t *testing.T) {
	proto := cluster.New(4, 4, cluster.DefaultNet())
	plan := &faults.Plan{
		Name: "clone",
		Events: []faults.Event{
			{Kind: faults.Slow, At: 2 * ms, Until: 20 * ms, Node: 1, Speed: 0.25},
			{Kind: faults.CoreLoss, At: 6 * ms, Node: 2, Cores: 1},
		},
	}
	run := func() spmdOutcome {
		return runSPMDWorkload(t, func(c *Config) {
			c.Machine = proto.Clone()
			c.Faults = plan
		})
	}
	first, second := run(), run()
	if first != second {
		t.Errorf("runs off one prototype diverged:\n%+v\n%+v", first, second)
	}
	if proto.Node(1).Speed != 1.0 || proto.Node(2).Cores != 4 {
		t.Fatalf("a run mutated the shared prototype machine: %+v", proto.Nodes)
	}
}
