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

// TestParallelClusterSimMatchesSequential pins the partitioned engine on
// the one workload with first-toucher host-side state (ORB, and the
// lazily integrated trajectory): step completion times, elapsed time and
// the final physics must be identical to the sequential engine at any
// worker count. The slow node plus two appranks per node maximizes
// same-instant collective ties, and time-weighted ORB exercises the
// per-rank weight stamping.
func TestParallelClusterSimMatchesSequential(t *testing.T) {
	for _, timeWeights := range []bool{false, true} {
		cfg := testAdapterConfig()
		cfg.TimeWeights = timeWeights
		run := func(parallel bool, workers int) ([]simtime.Time, simtime.Duration, []Vec3, bool) {
			cs := NewClusterSim(cfg)
			mach := cluster.New(4, 8, cluster.DefaultNet())
			mach.SetSpeed(0, 0.6)
			rt := core.MustNew(core.Config{
				Machine:         mach,
				AppranksPerNode: 2,
				LeWI:            true,
				Seed:            2,
				SimParallel:     parallel,
				SimWorkers:      workers,
			})
			if err := rt.Run(cs.Main()); err != nil {
				t.Fatal(err)
			}
			return cs.StepEnds(), rt.Elapsed(), cs.traj.Final(), rt.Engine() != nil
		}
		refEnds, refElapsed, refPos, _ := run(false, 0)
		for _, workers := range []int{1, 4} {
			ends, elapsed, pos, engaged := run(true, workers)
			if !engaged {
				t.Fatalf("timeWeights=%v workers=%d: parallel engine did not engage", timeWeights, workers)
			}
			if elapsed != refElapsed {
				t.Errorf("timeWeights=%v workers=%d: elapsed = %v, sequential %v", timeWeights, workers, elapsed, refElapsed)
			}
			if len(ends) != len(refEnds) {
				t.Fatalf("timeWeights=%v workers=%d: %d step ends, sequential %d", timeWeights, workers, len(ends), len(refEnds))
			}
			for i := range ends {
				if ends[i] != refEnds[i] {
					t.Errorf("timeWeights=%v workers=%d: step %d ended at %v, sequential %v", timeWeights, workers, i, ends[i], refEnds[i])
				}
			}
			for i := range refPos {
				if pos[i] != refPos[i] {
					t.Fatalf("timeWeights=%v workers=%d: body %d position diverged", timeWeights, workers, i)
				}
			}
		}
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
