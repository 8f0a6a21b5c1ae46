package nbody

import (
	"reflect"
	"sync"
	"testing"

	"ompsscluster/internal/cluster"
	"ompsscluster/internal/core"
	"ompsscluster/internal/simtime"
)

func testAdapterConfig() AdapterConfig {
	return AdapterConfig{
		Bodies:             512,
		Steps:              3,
		ChunksPerRank:      8,
		CostPerInteraction: 2 * simtime.Microsecond,
		TreeCostPerBody:    100 * simtime.Nanosecond,
		Seed:               11,
	}
}

func TestClusterSimRuns(t *testing.T) {
	cs := NewClusterSim(testAdapterConfig())
	m := cluster.New(2, 4, cluster.DefaultNet())
	rt := core.MustNew(core.Config{Machine: m, Degree: 2, LeWI: true})
	if err := rt.Run(cs.Main()); err != nil {
		t.Fatal(err)
	}
	// 2 ranks x 3 steps x (1 tree + 8 force) tasks.
	if got := rt.TotalTasks(); got != 2*3*9 {
		t.Fatalf("tasks = %d, want 54", got)
	}
	if rt.Elapsed() <= 0 {
		t.Fatal("no virtual time elapsed")
	}
}

func TestClusterSimPhysicsMatchesStandalone(t *testing.T) {
	// The trajectory a cluster run reads must be exactly the physics of
	// the standalone loop, step by step (the runtime only affects
	// timing): positions, interaction counts and final state bitwise.
	cfg := testAdapterConfig()
	cs := NewClusterSim(cfg)
	m := cluster.New(2, 4, cluster.DefaultNet())
	rt := core.MustNew(core.Config{Machine: m, Degree: 2, LeWI: true, DROM: core.DROMLocal})
	if err := rt.Run(cs.Main()); err != nil {
		t.Fatal(err)
	}
	ref := NewRandomSphere(cfg.Bodies, cfg.Seed) // standalone replay
	for step := 0; step < cfg.Steps; step++ {
		pos, counts := cs.traj.Step(step)
		tree := ref.BuildTree()
		acc := make([]Vec3, len(ref.Bodies))
		for i := range ref.Bodies {
			var n int
			acc[i], n = tree.ForceOn(i)
			if pos[i] != ref.Bodies[i].Pos || counts[i] != n {
				t.Fatalf("step %d body %d: trajectory (%v, %d), standalone (%v, %d)",
					step, i, pos[i], counts[i], ref.Bodies[i].Pos, n)
			}
		}
		ref.Step(acc)
	}
	for i, p := range cs.traj.Final() {
		if p != ref.Bodies[i].Pos {
			t.Fatalf("final body %d: trajectory %v, standalone %v", i, p, ref.Bodies[i].Pos)
		}
	}
}

func TestStoreOneTrajectoryPerKey(t *testing.T) {
	s := NewStore()
	cfg := testAdapterConfig()
	a := s.Get(cfg)
	// Fields outside the physics key share the trajectory.
	other := cfg
	other.ChunksPerRank, other.CostPerInteraction, other.TimeWeights = 3, 7, true
	if s.Get(other) != a {
		t.Error("a config differing only outside the physics key got a new trajectory")
	}
	// Applying the defaults explicitly names the same physics.
	other = cfg
	other.Theta, other.DT = 0.5, defaultDT
	if s.Get(other) != a {
		t.Error("explicit default Theta and DT got a new trajectory")
	}
	for name, mod := range map[string]func(*AdapterConfig){
		"seed":   func(c *AdapterConfig) { c.Seed++ },
		"bodies": func(c *AdapterConfig) { c.Bodies++ },
		"steps":  func(c *AdapterConfig) { c.Steps++ },
		"theta":  func(c *AdapterConfig) { c.Theta = 0.7 },
		"dt":     func(c *AdapterConfig) { c.DT = 0.02 },
	} {
		c := cfg
		mod(&c)
		if s.Get(c) == a {
			t.Errorf("a different %s collided with the base trajectory", name)
		}
	}
	if (*Store)(nil).Get(cfg) == (*Store)(nil).Get(cfg) {
		t.Error("a nil store shared a trajectory between runs")
	}
}

func TestTrajectoryConcurrentReaders(t *testing.T) {
	cfg := testAdapterConfig()
	want := (*Store)(nil).Get(cfg)
	shared := NewStore().Get(cfg)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < cfg.Steps; k++ {
				step := (k + g) % cfg.Steps // readers start at different steps
				pos, counts := shared.Step(step)
				wpos, wcounts := want.Step(step)
				if !reflect.DeepEqual(pos, wpos) || !reflect.DeepEqual(counts, wcounts) {
					t.Errorf("goroutine %d: step %d differs from a private trajectory", g, step)
				}
				parts := 2 + g%3
				if !reflect.DeepEqual(shared.CountORB(step, parts), want.CountORB(step, parts)) {
					t.Errorf("goroutine %d: step %d ORB into %d differs from a private trajectory", g, step, parts)
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestSlowNodeHurtsWithoutBalancing(t *testing.T) {
	cfg := testAdapterConfig()
	run := func(mach *cluster.Machine, degree int, lewi bool, drom core.DROMMode) simtime.Duration {
		cs := NewClusterSim(cfg)
		rt := core.MustNew(core.Config{
			Machine:         mach,
			AppranksPerNode: 2,
			Degree:          degree,
			LeWI:            lewi,
			DROM:            drom,
			GlobalPeriod:    100 * simtime.Millisecond,
			Seed:            2,
		})
		if err := rt.Run(cs.Main()); err != nil {
			t.Fatal(err)
		}
		return rt.Elapsed()
	}
	slowMachine := func() *cluster.Machine {
		m := cluster.New(4, 8, cluster.DefaultNet())
		m.SetSpeed(0, 0.6)
		return m
	}
	fast := run(cluster.New(4, 8, cluster.DefaultNet()), 1, false, core.DROMOff)
	slowBase := run(slowMachine(), 1, false, core.DROMOff)
	slowBalanced := run(slowMachine(), 3, true, core.DROMGlobal)
	if slowBase <= fast {
		t.Fatalf("slow node did not slow the baseline: %v <= %v", slowBase, fast)
	}
	if slowBalanced >= slowBase {
		t.Fatalf("balancing did not help the slow-node run: %v >= %v", slowBalanced, slowBase)
	}
}

func TestAdapterPanics(t *testing.T) {
	for _, mod := range []func(*AdapterConfig){
		func(c *AdapterConfig) { c.Bodies = 0 },
		func(c *AdapterConfig) { c.Steps = 0 },
		func(c *AdapterConfig) { c.ChunksPerRank = 0 },
		func(c *AdapterConfig) { c.CostPerInteraction = 0 },
	} {
		cfg := testAdapterConfig()
		mod(&cfg)
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			NewClusterSim(cfg)
		}()
	}
}

// TestCountORBMatchesStampedWeights checks the memoized count-weighted
// decomposition against what the ranks of a run used to stamp: weights 1
// at step 0, then the previous step's interaction counts. It also checks
// that a time-weighted run never reads the memo.
func TestCountORBMatchesStampedWeights(t *testing.T) {
	memoized := 0
	for _, bodies := range quickBodies {
		tr := quickTrajectory(bodies)
		for k := 0; k < tr.steps; k++ {
			pos, _ := tr.Step(k)
			for _, parts := range []int{4, 8, 16} {
				want := ORB(pos, stampedWeights(tr, k), parts)
				if got := tr.CountORB(k, parts); !reflect.DeepEqual(got, want) {
					t.Fatalf("%d bodies step %d parts %d: memoized ORB differs from stamped weights", bodies, k, parts)
				}
			}
		}
		memoized += tr.steps
	}
	// fig6c runs each quick trajectory with one part per apprank, so the
	// memo computes one ORB per trajectory step where every count-weighted
	// run computed its own.
	t.Logf("%d count-weighted ORBs memoized for the quick trajectories; each count-weighted run computed %d of its own before",
		memoized, memoized/len(quickBodies))

	run := func(cfg AdapterConfig) {
		m := cluster.New(2, 4, cluster.DefaultNet())
		m.SetSpeed(0, 0.6)
		rt := core.MustNew(core.Config{Machine: m, Degree: 2, LeWI: true})
		if err := rt.Run(NewClusterSim(cfg).Main()); err != nil {
			t.Fatal(err)
		}
	}
	store := NewStore()
	cfg := testAdapterConfig()
	cfg.Trajectories, cfg.TimeWeights = store, true
	run(cfg)
	if n := len(store.Get(cfg).orbs); n != 0 {
		t.Fatalf("a time-weighted run left %d memoized ORBs", n)
	}
	cfg.TimeWeights = false
	run(cfg)
	run(cfg)
	if n := len(store.Get(cfg).orbs); n != cfg.Steps {
		t.Fatalf("two count-weighted runs memoized %d ORBs, want one per step (%d)", n, cfg.Steps)
	}
}
