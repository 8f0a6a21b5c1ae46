package nbody

import (
	"fmt"
	"sync"
)

// Trajectory is the physics of one n-body configuration: body positions
// and per-body interaction counts, step by step. Which rank evaluates a
// body's force changes task timing, never the force, so runs with the
// same physics share one Trajectory. Steps are integrated, and
// count-weighted ORB decompositions computed, lazily, under the lock, by
// the first caller that needs them; returned slices are read-only.
type Trajectory struct {
	mu     sync.Mutex
	sys    *System  // state at the start of step len(counts)
	pos    [][]Vec3 // pos[k]: positions at the start of step k, k <= steps
	counts [][]int  // counts[k]: interaction counts of step k's forces
	steps  int
	orbs   map[orbKey][]int // count-weighted ORB assignments
}

// orbKey names one count-weighted ORB decomposition of a trajectory.
type orbKey struct{ step, parts int }

// Step returns the positions at the start of step k and the interaction
// counts of that step's force evaluation, 0 <= k < Steps.
func (t *Trajectory) Step(k int) (pos []Vec3, counts []int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.integrate(k)
	return t.pos[k], t.counts[k]
}

// integrate runs the force evaluations up to and including step k's. The
// caller holds t.mu.
func (t *Trajectory) integrate(k int) {
	if k < 0 || k >= t.steps {
		panic(fmt.Sprintf("nbody: step %d outside a %d-step trajectory", k, t.steps))
	}
	for len(t.counts) <= k {
		acc, counts := t.sys.ComputeForces()
		t.sys.Step(acc)
		t.counts = append(t.counts, counts)
		t.pos = append(t.pos, t.sys.positions())
	}
}

// CountORB returns the ORB decomposition into parts of step k's
// positions, weighted by step k-1's interaction counts (uniformly at step
// 0): the decomposition every count-weighted run of this physics computes
// at step k. It is computed once per (k, parts); the returned slice is
// read-only.
func (t *Trajectory) CountORB(k, parts int) []int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.integrate(k)
	key := orbKey{k, parts}
	if a, ok := t.orbs[key]; ok {
		return a
	}
	var w []float64 // nil weighs every body 1
	if k > 0 {
		w = make([]float64, len(t.pos[k]))
		for i, c := range t.counts[k-1] {
			w[i] = float64(c)
		}
	}
	a := ORB(t.pos[k], w, parts)
	t.orbs[key] = a
	return a
}

// Final returns the positions after the last step.
func (t *Trajectory) Final() []Vec3 {
	t.Step(t.steps - 1) // integrates the last step, completing pos
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.pos[t.steps]
}

// trajKey is everything the integration depends on. ChunksPerRank, the
// cost fields, TimeWeights and node speeds shape ORB and task durations
// only.
type trajKey struct {
	bodies, steps int
	theta, dt     float64
	seed          int64
}

// Store shares trajectories between runs, as expander.Store shares
// helper graphs: one per physics key. It is safe for concurrent use; a
// nil *Store gives every run a private trajectory.
type Store struct {
	mu  sync.Mutex
	mem map[trajKey]*Trajectory
}

// NewStore returns an empty store.
func NewStore() *Store { return &Store{mem: make(map[trajKey]*Trajectory)} }

// Get returns the trajectory of cfg's physics, creating it (without
// integrating anything) on first use.
func (s *Store) Get(cfg AdapterConfig) *Trajectory {
	k := trajKey{cfg.Bodies, cfg.Steps, cfg.Theta, cfg.DT, cfg.Seed}
	if k.theta == 0 {
		k.theta = 0.5
	}
	if k.dt <= 0 {
		k.dt = defaultDT
	}
	if s != nil {
		s.mu.Lock()
		defer s.mu.Unlock()
		if t, ok := s.mem[k]; ok {
			return t
		}
	}
	sys := NewRandomSphere(k.bodies, k.seed)
	sys.Theta, sys.DT = k.theta, k.dt
	t := &Trajectory{sys: sys, pos: [][]Vec3{sys.positions()}, steps: k.steps, orbs: make(map[orbKey][]int)}
	if s != nil {
		s.mem[k] = t
	}
	return t
}
