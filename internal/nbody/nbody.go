// Package nbody implements a real 3-D Barnes–Hut n-body simulation — the
// application used in §6.2/§7.1 of the paper (a parallel Barnes–Hut code
// with Orthogonal Recursive Bisection, after Barkman's implementation and
// Salmon's thesis).
//
// The package contains genuine physics: octree construction, θ-criterion
// force evaluation with Plummer softening, leapfrog integration, direct
// O(n²) summation (the verification baseline), and an ORB partitioner
// that splits bodies across ranks by work weight. The cluster adapter in
// adapter.go drives the simulated runtime with per-chunk interaction
// counts as task durations, read from a Trajectory (trajectory.go) that
// integrates the physics once and shares it between runs.
package nbody

import (
	"fmt"
	"math"
	"math/rand"
)

// Vec3 is a 3-component vector.
type Vec3 [3]float64

// Add returns v + o.
func (v Vec3) Add(o Vec3) Vec3 { return Vec3{v[0] + o[0], v[1] + o[1], v[2] + o[2]} }

// Sub returns v - o.
func (v Vec3) Sub(o Vec3) Vec3 { return Vec3{v[0] - o[0], v[1] - o[1], v[2] - o[2]} }

// Scale returns v * s.
func (v Vec3) Scale(s float64) Vec3 { return Vec3{v[0] * s, v[1] * s, v[2] * s} }

// Dot returns the dot product.
func (v Vec3) Dot(o Vec3) float64 { return v[0]*o[0] + v[1]*o[1] + v[2]*o[2] }

// Norm returns the Euclidean length.
func (v Vec3) Norm() float64 { return math.Sqrt(v.Dot(v)) }

// Body is a point mass.
type Body struct {
	Pos  Vec3
	Vel  Vec3
	Mass float64
}

// System is an n-body simulation state.
type System struct {
	Bodies []Body
	// Theta is the Barnes–Hut opening angle (0 degenerates to exact
	// summation).
	Theta float64
	// G is the gravitational constant (1 in simulation units).
	G float64
	// DT is the leapfrog timestep.
	DT float64
	// Eps is the Plummer softening length.
	Eps float64
}

// defaultDT is the leapfrog timestep of a new system.
const defaultDT = 1e-3

// NewRandomSphere builds a system of n bodies uniformly distributed in a
// unit sphere with small random velocities and equal masses summing to 1.
func NewRandomSphere(n int, seed int64) *System {
	if n <= 0 {
		panic(fmt.Sprintf("nbody: %d bodies", n))
	}
	rng := rand.New(rand.NewSource(seed))
	s := &System{
		Bodies: make([]Body, n),
		Theta:  0.5,
		G:      1,
		DT:     defaultDT,
		Eps:    1e-2,
	}
	for i := range s.Bodies {
		var p Vec3
		for {
			p = Vec3{2*rng.Float64() - 1, 2*rng.Float64() - 1, 2*rng.Float64() - 1}
			if p.Dot(p) <= 1 {
				break
			}
		}
		s.Bodies[i] = Body{
			Pos:  p,
			Vel:  Vec3{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}.Scale(0.05),
			Mass: 1 / float64(n),
		}
	}
	return s
}

// accel returns the softened gravitational acceleration contribution on a
// body at pos from a point mass m at q.
func (s *System) accel(pos Vec3, m float64, q Vec3) Vec3 {
	d := q.Sub(pos)
	return pull(d, d.Dot(d), s.Eps*s.Eps, s.G*m)
}

// pull returns the softened gravitational acceleration towards a point
// mass at offset d, given d2 = d·d, the squared softening length eps2 and
// gm = G·m.
func pull(d Vec3, d2, eps2, gm float64) Vec3 {
	r2 := d2 + eps2
	inv := 1 / (r2 * math.Sqrt(r2))
	return d.Scale(gm * inv)
}

// DirectForce computes the exact O(n) acceleration on body i by direct
// summation over all other bodies.
func (s *System) DirectForce(i int) Vec3 {
	var a Vec3
	for j := range s.Bodies {
		if j == i {
			continue
		}
		a = a.Add(s.accel(s.Bodies[i].Pos, s.Bodies[j].Mass, s.Bodies[j].Pos))
	}
	return a
}

// Step advances the system one leapfrog (kick-drift) step using the given
// per-body accelerations.
func (s *System) Step(acc []Vec3) {
	if len(acc) != len(s.Bodies) {
		panic("nbody: acceleration vector length mismatch")
	}
	for i := range s.Bodies {
		b := &s.Bodies[i]
		b.Vel = b.Vel.Add(acc[i].Scale(s.DT))
		b.Pos = b.Pos.Add(b.Vel.Scale(s.DT))
	}
}

// positions returns a copy of the body positions.
func (s *System) positions() []Vec3 {
	pos := make([]Vec3, len(s.Bodies))
	for i, b := range s.Bodies {
		pos[i] = b.Pos
	}
	return pos
}

// Momentum returns the total linear momentum.
func (s *System) Momentum() Vec3 {
	var p Vec3
	for _, b := range s.Bodies {
		p = p.Add(b.Vel.Scale(b.Mass))
	}
	return p
}

// Energy returns the total energy (kinetic + softened potential),
// computed exactly in O(n2).
func (s *System) Energy() float64 {
	e := 0.0
	for i, b := range s.Bodies {
		e += 0.5 * b.Mass * b.Vel.Dot(b.Vel)
		for j := i + 1; j < len(s.Bodies); j++ {
			d := s.Bodies[j].Pos.Sub(b.Pos)
			r := math.Sqrt(d.Dot(d) + s.Eps*s.Eps)
			e -= s.G * b.Mass * s.Bodies[j].Mass / r
		}
	}
	return e
}
