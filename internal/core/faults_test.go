package core

import (
	"errors"
	"testing"

	"ompsscluster/internal/cluster"
	"ompsscluster/internal/faults"
	"ompsscluster/internal/simtime"
)

// faultCfg is a 4-node offloading setup small enough to finish fast but
// with enough helpers that recovery has somewhere to go.
func faultCfg(plan *faults.Plan) Config {
	return Config{
		Machine: cluster.New(4, 4, cluster.DefaultNet()),
		Degree:  3,
		LeWI:    true,
		DROM:    DROMLocal,
		Seed:    7,
		Faults:  plan,
	}
}

func faultMain(app *App) {
	for it := 0; it < 4; it++ {
		submitBatch(app, 12, 3*ms)
		app.TaskWait()
	}
}

// TestDrainRecoversOffloadedTasks is the acceptance scenario: a fault
// plan kills the helper workers of one node mid-run; every offloaded
// task queued, in flight, or running there is re-executed elsewhere and
// the run completes with no hang and no lost tasks.
func TestDrainRecoversOffloadedTasks(t *testing.T) {
	plan := &faults.Plan{
		Name:   "drain-mid-run",
		Events: []faults.Event{{Kind: faults.Drain, At: 20 * simtime.Duration(ms), Node: 3}},
	}
	rt, err := New(faultCfg(plan))
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Run(faultMain); err != nil {
		t.Fatalf("run failed: %v", err)
	}
	want := int64(4 * 4 * 12) // ranks x iterations x batch
	if got := rt.TotalTasks(); got != want {
		t.Fatalf("completed %d tasks, want %d", got, want)
	}
	// The drained node's workers must be dead and own nothing.
	for _, w := range rt.nodes[3].workers {
		if !w.isHome() {
			if !w.dead {
				t.Fatalf("helper on node 3 still alive after drain")
			}
			if o := rt.nodes[3].arb.Owned(w.wid); o != 0 {
				t.Fatalf("dead helper owns %d cores", o)
			}
		}
	}
	if rt.Stats().FaultEvents != 1 {
		t.Fatalf("FaultEvents = %d, want 1", rt.Stats().FaultEvents)
	}
}

// TestCrashAbortsWithTypedError: a node crash kills the application
// homed there; the run terminates (no hang) and surfaces AbortError.
func TestCrashAbortsWithTypedError(t *testing.T) {
	plan := &faults.Plan{
		Name:   "crash-mid-run",
		Events: []faults.Event{{Kind: faults.Crash, At: 20 * simtime.Duration(ms), Node: 3}},
	}
	rt, err := New(faultCfg(plan))
	if err != nil {
		t.Fatal(err)
	}
	err = rt.Run(faultMain)
	var abort *AbortError
	if !errors.As(err, &abort) {
		t.Fatalf("run returned %v, want AbortError", err)
	}
	if abort.Node != 3 {
		t.Fatalf("AbortError.Node = %d, want 3", abort.Node)
	}
	for _, ns := range rt.nodes {
		if err := ns.arb.CheckInvariants(); err != nil {
			t.Fatalf("node %d inconsistent after crash: %v", ns.id, err)
		}
	}
}

// TestCrashWithParkedProc: harness procs parked mid-wait must not change
// the crash-abort surface, and killing them afterwards must not leak
// state. One monitor waits on an event that never fires and a second one
// is in a bare Park while a crash plan aborts the job; the run still
// returns the typed AbortError, the parked monitors survive (they belong
// to the harness, not the dead application), and Kill reclaims them with
// Done triggered.
func TestCrashWithParkedProc(t *testing.T) {
	plan := &faults.Plan{
		Name:   "crash-with-parked-proc",
		Events: []faults.Event{{Kind: faults.Crash, At: 20 * simtime.Duration(ms), Node: 3}},
	}
	rt, err := New(faultCfg(plan))
	if err != nil {
		t.Fatal(err)
	}
	env := rt.Env()
	ev := env.NewEvent()
	waiter := env.Spawn("monitor-wait", func(p *simtime.Proc) {
		p.SetBlockReason("monitor-wait", 0, 0)
		t.Errorf("waiter woke with %v; event never fired", p.Wait(ev))
	})
	parker := env.Spawn("monitor-park", func(p *simtime.Proc) {
		p.SetBlockReason("monitor-park", 0, 0)
		t.Errorf("parker woke with %v; nothing wakes it", p.Park())
	})
	err = rt.Run(faultMain)
	var abort *AbortError
	if !errors.As(err, &abort) {
		t.Fatalf("run returned %v, want AbortError", err)
	}
	if abort.Node != 3 {
		t.Fatalf("AbortError.Node = %d, want 3", abort.Node)
	}
	// The monitors are harness-side processes: the crash must not have
	// touched them.
	if live := env.LiveProcs(); len(live) != 2 {
		t.Fatalf("live procs after abort = %v, want the two monitors", live)
	}
	waitDone, parkDone := false, false
	waiter.Done().Subscribe(func(any) { waitDone = true })
	parker.Done().Subscribe(func(any) { parkDone = true })
	waiter.Kill()
	parker.Kill()
	if err := env.Run(); err != nil { // drain the Done subscription callbacks
		t.Fatal(err)
	}
	if !waitDone || !parkDone {
		t.Fatalf("Done after Kill: wait=%v park=%v, want both", waitDone, parkDone)
	}
	if live := env.LiveProcs(); len(live) != 0 {
		t.Fatalf("live procs after Kill: %v", live)
	}
	for _, ns := range rt.nodes {
		if err := ns.arb.CheckInvariants(); err != nil {
			t.Fatalf("node %d inconsistent after crash: %v", ns.id, err)
		}
	}
}

// TestEmptyPlanMatchesNilPlan pins the byte-identity contract at its
// root: an armed but empty fault plan adds bookkeeping events (offload
// records, deadlines) yet must not change a single scheduling decision,
// so the virtual timeline and task counts are identical to a nil plan.
func TestEmptyPlanMatchesNilPlan(t *testing.T) {
	run := func(plan *faults.Plan) (simtime.Duration, int64, int64) {
		rt, err := New(faultCfg(plan))
		if err != nil {
			t.Fatal(err)
		}
		if err := rt.Run(faultMain); err != nil {
			t.Fatal(err)
		}
		return rt.Elapsed(), rt.TotalTasks(), rt.TotalOffloadedTasks()
	}
	e0, t0, o0 := run(nil)
	e1, t1, o1 := run(&faults.Plan{Name: "empty"})
	if e0 != e1 || t0 != t1 || o0 != o1 {
		t.Fatalf("empty plan diverged: elapsed %v vs %v, tasks %d vs %d, offloaded %d vs %d",
			e0, e1, t0, t1, o0, o1)
	}
}

// TestSlowAndRecoverExtendsRun: a severe mid-run slowdown must stretch
// time-to-solution, and recovery must restore the node's speed exactly.
func TestSlowAndRecoverExtendsRun(t *testing.T) {
	plan := &faults.Plan{
		Name: "slow-episode",
		Events: []faults.Event{{
			Kind: faults.Slow, At: 10 * simtime.Duration(ms), Until: 120 * simtime.Duration(ms),
			Node: 1, Speed: 0.25,
		}},
	}
	cfg := faultCfg(plan)
	rtSlow, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := rtSlow.Run(faultMain); err != nil {
		t.Fatal(err)
	}
	if s := cfg.Machine.Node(1).Speed; s != 1.0 {
		t.Fatalf("speed after recovery = %v, want 1.0", s)
	}
	rtBase, err := New(faultCfg(nil))
	if err != nil {
		t.Fatal(err)
	}
	if err := rtBase.Run(faultMain); err != nil {
		t.Fatal(err)
	}
	if rtSlow.Elapsed() <= rtBase.Elapsed() {
		t.Fatalf("slowdown did not extend the run: %v <= %v", rtSlow.Elapsed(), rtBase.Elapsed())
	}
}

// TestCoreLossShrinksNode: permanent core loss reduces the arbiter's
// capacity while keeping its conservation invariants. Degree 2 leaves a
// two-core floor on the four-core nodes, so the full loss fits.
func TestCoreLossShrinksNode(t *testing.T) {
	plan := &faults.Plan{
		Name:   "coreloss",
		Events: []faults.Event{{Kind: faults.CoreLoss, At: 15 * simtime.Duration(ms), Node: 2, Cores: 2}},
	}
	cfg := faultCfg(plan)
	cfg.Degree = 2
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Run(faultMain); err != nil {
		t.Fatal(err)
	}
	if c := rt.nodes[2].arb.Cores(); c != 2 {
		t.Fatalf("node 2 has %d cores after loss, want 2", c)
	}
	want := int64(4 * 4 * 12)
	if got := rt.TotalTasks(); got != want {
		t.Fatalf("completed %d tasks, want %d", got, want)
	}
}

// TestFlakyLinkStillCompletes: heavy drop and jitter on the busiest
// link slows delivery but the backoff resend keeps the run finishing
// with every task accounted for.
func TestFlakyLinkStillCompletes(t *testing.T) {
	plan := &faults.Plan{
		Name: "flaky",
		Events: []faults.Event{{
			Kind: faults.Link, At: 0, Until: 200 * simtime.Duration(ms),
			Node: 0, NodeB: 1,
			Delay: 2 * simtime.Duration(ms), Jitter: simtime.Duration(ms), Drop: 0.2,
		}},
	}
	rt, err := New(faultCfg(plan))
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Run(faultMain); err != nil {
		t.Fatal(err)
	}
	want := int64(4 * 4 * 12)
	if got := rt.TotalTasks(); got != want {
		t.Fatalf("completed %d tasks, want %d", got, want)
	}
}

// TestStallEpisodeRecovers: freezing one apprank's dispatch for a while
// must not lose work or deadlock once it thaws.
func TestStallEpisodeRecovers(t *testing.T) {
	plan := &faults.Plan{
		Name: "stall",
		Events: []faults.Event{{
			Kind: faults.Stall, At: 10 * simtime.Duration(ms), Until: 60 * simtime.Duration(ms),
			Apprank: 1,
		}},
	}
	rt, err := New(faultCfg(plan))
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Run(faultMain); err != nil {
		t.Fatal(err)
	}
	want := int64(4 * 4 * 12)
	if got := rt.TotalTasks(); got != want {
		t.Fatalf("completed %d tasks, want %d", got, want)
	}
}

// TestFaultPlanDeterminism: the same plan and seed give bit-identical
// timelines; a different seed reshuffles the probabilistic link
// decisions (sanity that the seed actually feeds the hash).
func TestFaultPlanDeterminism(t *testing.T) {
	run := func(seed int64) simtime.Duration {
		plan := &faults.Plan{
			Name: "det",
			Events: []faults.Event{
				{Kind: faults.Slow, At: 10 * simtime.Duration(ms), Until: 80 * simtime.Duration(ms), Node: 1, Speed: 0.5},
				{Kind: faults.Link, At: 0, Until: 150 * simtime.Duration(ms), Node: 0, NodeB: 2,
					Delay: simtime.Duration(ms), Drop: 0.1},
				{Kind: faults.Drain, At: 40 * simtime.Duration(ms), Node: 3},
			},
		}
		cfg := faultCfg(plan)
		cfg.Seed = seed
		rt, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := rt.Run(faultMain); err != nil {
			t.Fatal(err)
		}
		return rt.Elapsed()
	}
	a, b := run(7), run(7)
	if a != b {
		t.Fatalf("same seed diverged: %v vs %v", a, b)
	}
}
