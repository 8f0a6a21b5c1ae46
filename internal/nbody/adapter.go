package nbody

import (
	"fmt"
	"sync"

	"ompsscluster/internal/core"
	"ompsscluster/internal/nanos"
	"ompsscluster/internal/simtime"
)

// AdapterConfig parameterises a cluster run of the Barnes–Hut code.
type AdapterConfig struct {
	// Bodies is the total body count.
	Bodies int
	// Steps is the number of timesteps.
	Steps int
	// ChunksPerRank is the number of force tasks each apprank submits
	// per step (the paper's "single offloadable task that calculates the
	// forces on a number of bodies", replicated over chunks).
	ChunksPerRank int
	// CostPerInteraction converts tree-traversal interaction counts into
	// nominal task time.
	CostPerInteraction simtime.Duration
	// TreeCostPerBody is the per-body cost of the (non-offloadable)
	// tree-construction task each rank runs per step.
	TreeCostPerBody simtime.Duration
	// Theta is the opening angle.
	Theta float64
	// DT overrides the leapfrog timestep (default 1e-3). Larger steps
	// make the distribution evolve faster, so ORB's stale weights (from
	// the previous step) produce more fine-grained imbalance.
	DT float64
	// TimeWeights makes ORB weigh bodies by measured execution time
	// (interaction count scaled by the executing rank's home-node speed)
	// instead of raw interaction counts. On a heterogeneous machine this
	// makes ORB chase the slow node — shrinking the slow ranks' share,
	// then growing it back — an oscillation that leaves residual
	// fine-grained imbalance for DLB to absorb.
	TimeWeights bool
	// Seed initializes the body distribution.
	Seed int64
	// Trajectories, when non-nil, shares the physics with every other
	// run of the same Bodies, Steps, Theta, DT and Seed.
	Trajectories *Store
}

// ClusterSim couples the real Barnes–Hut physics with the simulated
// MPI+OmpSs-2@Cluster runtime: every timestep each apprank recomputes the
// ORB decomposition (replicated, as in the original code), reads the real
// interaction counts of its bodies from the run's Trajectory, and submits
// force tasks whose durations are those counts scaled by
// CostPerInteraction. ORB balances interaction counts, so on a machine
// with a slow node the slow ranks still receive equal work — the
// imbalance the paper's Figure 6(c) studies.
type ClusterSim struct {
	cfg  AdapterConfig
	traj *Trajectory

	weights []float64 // per-body ORB weights from the last step

	// mu guards the once-per-step ORB decomposition, which ranks on
	// different host workers of the partitioned engine reach concurrently.
	// Its inputs are complete before any rank can reach it, so which rank
	// computes it (a wake-order accident) is unobservable.
	mu        sync.Mutex
	orbStep   int            // step the cached assignment belongs to
	orbAssign []int          // cached ORB assignment
	stepEnds  []simtime.Time // per-step completion times (rank 0)
}

// NewClusterSim builds the coupled simulation. Its physics comes from
// cfg.Trajectories, or from a private trajectory when that is nil.
func NewClusterSim(cfg AdapterConfig) *ClusterSim {
	if cfg.Bodies <= 0 || cfg.Steps <= 0 || cfg.ChunksPerRank <= 0 || cfg.CostPerInteraction <= 0 {
		panic("nbody: Bodies, Steps, ChunksPerRank and CostPerInteraction must be positive")
	}
	cs := &ClusterSim{
		cfg:     cfg,
		traj:    cfg.Trajectories.Get(cfg),
		weights: make([]float64, cfg.Bodies),
		orbStep: -1,
	}
	for i := range cs.weights {
		cs.weights[i] = 1
	}
	return cs
}

// orb returns the ORB assignment for the given step, computing it once
// per step (every rank would compute the identical replicated
// decomposition) from the step's post-integration positions.
func (cs *ClusterSim) orb(step, parts int) []int {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	if cs.orbStep != step {
		pos, _ := cs.traj.Step(step)
		cs.orbAssign = ORB(pos, cs.weights, parts)
		cs.orbStep = step
	}
	return cs.orbAssign
}

// Main returns the SPMD main function.
func (cs *ClusterSim) Main() func(app *core.App) {
	return func(app *core.App) {
		rank := app.Rank()
		parts := app.NumRanks()
		treeRegion := app.Alloc(int64(cs.cfg.Bodies) * 8)
		posRegion := app.Alloc(int64(cs.cfg.Bodies) * 24)
		chunkRegions := make([]nanos.Region, cs.cfg.ChunksPerRank)
		for i := range chunkRegions {
			chunkRegions[i] = app.Alloc(64 << 10)
		}
		for step := 0; step < cs.cfg.Steps; step++ {
			assign := cs.orb(step, parts)
			var mine []int
			for i, p := range assign {
				if p == rank {
					mine = append(mine, i)
				}
			}
			// Real physics: this rank's bodies' interaction counts from
			// the trajectory. The rank also stamps its own bodies' ORB
			// weights here, before the step's allgather, so the weights
			// are complete — and identical regardless of post-collective
			// wake order — by the time any rank computes the next step's
			// decomposition.
			_, counts := cs.traj.Step(step)
			speed := 1.0 // count weights: division by 1 is exact
			if cs.cfg.TimeWeights {
				// Time-scaled: interaction count over the executing
				// rank's home-node speed.
				speed = app.NodeSpeed()
			}
			rankInteractions := 0
			for _, i := range mine {
				rankInteractions += counts[i]
				cs.weights[i] = float64(counts[i]) / speed
			}
			// Tree construction runs as a non-offloadable task at home: it
			// consumes the previous step's force outputs (pulling any
			// remotely computed forces back, as the original code's
			// exchange does) and publishes the new tree and positions.
			treeAcc := []nanos.Access{
				{Region: treeRegion, Mode: nanos.Out},
				{Region: posRegion, Mode: nanos.Out},
			}
			for _, cr := range chunkRegions {
				treeAcc = append(treeAcc, nanos.Access{Region: cr, Mode: nanos.In})
			}
			app.Submit(core.TaskSpec{
				Label:       "bh-tree",
				Work:        cs.cfg.TreeCostPerBody * simtime.Duration(cs.cfg.Bodies),
				Accesses:    treeAcc,
				Offloadable: false,
			})
			// Force tasks: contiguous chunks of this rank's bodies, task
			// time proportional to the measured interaction counts.
			nchunks := cs.cfg.ChunksPerRank
			for c := 0; c < nchunks; c++ {
				loC := len(mine) * c / nchunks
				hiC := len(mine) * (c + 1) / nchunks
				inter := 0
				for _, i := range mine[loC:hiC] {
					inter += counts[i]
				}
				// Out on the chunk: each step's forces overwrite dead
				// data, so the freshly built home-resident tree drives
				// the locality decision, exactly as after the original
				// code's position exchange.
				app.Submit(core.TaskSpec{
					Label: fmt.Sprintf("bh-force-%d", c),
					Work:  simtime.Duration(inter) * cs.cfg.CostPerInteraction,
					Accesses: []nanos.Access{
						{Region: chunkRegions[c], Mode: nanos.Out},
						{Region: treeRegion, Mode: nanos.In},
					},
					Offloadable: true,
				})
			}
			app.TaskWait()
			// Exchange updated positions (the allgather of the original
			// code).
			app.Comm().Allgather(rankInteractions, int64(cs.cfg.Bodies*24/parts))
			if rank == 0 {
				cs.stepEnds = append(cs.stepEnds, app.Now())
			}
		}
	}
}

// StepEnds returns the per-step completion times observed by rank 0.
// Valid after the run; a ClusterSim must not be reused across runs.
func (cs *ClusterSim) StepEnds() []simtime.Time {
	return append([]simtime.Time(nil), cs.stepEnds...)
}
