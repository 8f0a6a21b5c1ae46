package nbody

import (
	"fmt"
	"sync"
)

// Trajectory is the physics of one n-body configuration: body positions
// and per-body interaction counts, step by step. Which rank evaluates a
// body's force changes task timing, never the force, so runs with the
// same physics share one Trajectory. Steps are integrated lazily, under
// the lock, by the first caller that needs them; returned slices are
// read-only.
type Trajectory struct {
	mu     sync.Mutex
	sys    *System  // state at the start of step len(counts)
	pos    [][]Vec3 // pos[k]: positions at the start of step k, k <= steps
	counts [][]int  // counts[k]: interaction counts of step k's forces
	steps  int
}

// Step returns the positions at the start of step k and the interaction
// counts of that step's force evaluation, 0 <= k < Steps.
func (t *Trajectory) Step(k int) (pos []Vec3, counts []int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if k < 0 || k >= t.steps {
		panic(fmt.Sprintf("nbody: step %d outside a %d-step trajectory", k, t.steps))
	}
	for len(t.counts) <= k {
		acc, counts := t.sys.ComputeForces()
		t.sys.Step(acc)
		t.counts = append(t.counts, counts)
		t.pos = append(t.pos, t.sys.positions())
	}
	return t.pos[k], t.counts[k]
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
	t := &Trajectory{sys: sys, pos: [][]Vec3{sys.positions()}, steps: k.steps}
	if s != nil {
		s.mem[k] = t
	}
	return t
}
