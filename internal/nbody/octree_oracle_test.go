package nbody

import (
	"math"
	"math/rand"
	"testing"
)

// This file keeps the pointer octree that the flat Octree replaced, as
// its differential oracle: the build and the force walk are unchanged
// apart from type and function names, so FuzzForces can demand that the
// flat tree reproduces them bit for bit.

// ptrCell is one octree node: either an internal node with children, a leaf
// holding one body, or empty.
type ptrCell struct {
	center   Vec3
	half     float64 // half the cell edge length
	mass     float64
	com      Vec3 // center of mass (weighted sum during build)
	body     int  // body index for single-body leaves, -1 otherwise
	children *[8]*ptrCell
	nbodies  int
}

// ptrOctree is a Barnes–Hut spatial tree over a snapshot of body positions.
type ptrOctree struct {
	sys  *System
	root *ptrCell
}

// buildPtrTree constructs the octree for the current body positions.
func buildPtrTree(s *System) *ptrOctree {
	t := &ptrOctree{sys: s}
	if len(s.Bodies) == 0 {
		return t
	}
	// Bounding cube.
	lo, hi := s.Bodies[0].Pos, s.Bodies[0].Pos
	for _, b := range s.Bodies[1:] {
		for k := 0; k < 3; k++ {
			lo[k] = math.Min(lo[k], b.Pos[k])
			hi[k] = math.Max(hi[k], b.Pos[k])
		}
	}
	half := 0.0
	var center Vec3
	for k := 0; k < 3; k++ {
		center[k] = 0.5 * (lo[k] + hi[k])
		half = math.Max(half, 0.5*(hi[k]-lo[k]))
	}
	half += 1e-12 // keep boundary bodies strictly inside
	t.root = &ptrCell{center: center, half: half, body: -1}
	for i := range s.Bodies {
		t.insert(t.root, i, 0)
	}
	t.finalize(t.root)
	return t
}

// insert places body i into the subtree rooted at c.
func (t *ptrOctree) insert(c *ptrCell, i int, depth int) {
	b := &t.sys.Bodies[i]
	c.mass += b.Mass
	c.com = c.com.Add(b.Pos.Scale(b.Mass))
	c.nbodies++
	if c.nbodies == 1 {
		c.body = i
		return
	}
	if c.children == nil {
		if depth >= maxDepth {
			// Coincident points: keep as a multi-body leaf; force
			// evaluation falls back to the aggregated mass.
			c.body = -1
			return
		}
		// Split: push the resident body down.
		old := c.body
		c.body = -1
		c.children = new([8]*ptrCell)
		t.pushDown(c, old, depth)
	}
	if depth >= maxDepth {
		return
	}
	t.pushDown(c, i, depth)
}

// pushDown inserts body i into the proper child of c, creating it if
// needed. It does not touch c's own aggregates.
func (t *ptrOctree) pushDown(c *ptrCell, i, depth int) {
	pos := t.sys.Bodies[i].Pos
	oct := 0
	var off Vec3
	for k := 0; k < 3; k++ {
		if pos[k] >= c.center[k] {
			oct |= 1 << k
			off[k] = c.half / 2
		} else {
			off[k] = -c.half / 2
		}
	}
	ch := c.children[oct]
	if ch == nil {
		ch = &ptrCell{center: c.center.Add(off), half: c.half / 2, body: -1}
		c.children[oct] = ch
	}
	t.insert(ch, i, depth+1)
}

// finalize converts weighted position sums into centers of mass.
func (t *ptrOctree) finalize(c *ptrCell) {
	if c == nil {
		return
	}
	if c.mass > 0 {
		c.com = c.com.Scale(1 / c.mass)
	}
	if c.children != nil {
		for _, ch := range c.children {
			t.finalize(ch)
		}
	}
}

// ForceOn evaluates the Barnes–Hut acceleration on body i and returns it
// together with the number of interactions (body-body or body-cell) the
// traversal performed. The interaction count is the work measure the
// cluster adapter and the ORB partitioner consume.
func (t *ptrOctree) ForceOn(i int) (Vec3, int) {
	if t.root == nil {
		return Vec3{}, 0
	}
	return t.force(t.root, i)
}

func (t *ptrOctree) force(c *ptrCell, i int) (Vec3, int) {
	s := t.sys
	if c.nbodies == 0 {
		return Vec3{}, 0
	}
	if c.body == i && c.nbodies == 1 {
		return Vec3{}, 0
	}
	pos := s.Bodies[i].Pos
	d := c.com.Sub(pos)
	dist := d.Norm()
	// Leaf with a single body, multi-body degenerate leaf, or a cell far
	// enough away per the theta criterion: one interaction.
	open := c.children != nil && (dist == 0 || 2*c.half/dist >= s.Theta)
	if !open {
		if c.body == i {
			return Vec3{}, 0
		}
		m := c.mass
		q := c.com
		if c.nbodies == 1 || (c.children == nil && c.body == -1) {
			// Exclude self-contribution from a degenerate leaf that
			// contains body i.
			if c.children == nil && c.body == -1 && t.containsBody(c, pos) {
				m -= s.Bodies[i].Mass
				if m <= 0 {
					return Vec3{}, 0
				}
			}
		}
		return s.accel(pos, m, q), 1
	}
	var a Vec3
	count := 0
	for _, ch := range c.children {
		if ch == nil {
			continue
		}
		fa, n := t.force(ch, i)
		a = a.Add(fa)
		count += n
	}
	return a, count
}

// containsBody reports whether the position lies within the cell bounds
// (used only for degenerate coincident-point leaves).
func (t *ptrOctree) containsBody(c *ptrCell, pos Vec3) bool {
	for k := 0; k < 3; k++ {
		if pos[k] < c.center[k]-c.half || pos[k] > c.center[k]+c.half {
			return false
		}
	}
	return true
}

// fuzzThetas are the opening angles FuzzForces draws from. A negative
// theta opens every cell, as zero does.
var fuzzThetas = []float64{-0.5, 0, 0.3, 0.5, 0.8, 2}

// fuzzSystem generates a system of 1 to 600 bodies from seed: a uniform
// sphere, clusters of coincident and near-coincident points deep enough to
// end in maxDepth leaves, or a lattice whose points sit on cell boundaries, at an extent
// between 1e-6 and 1e6. The shape is seed mod 3 and the theta index
// (seed/3) mod 6, so seeds 0 to 17 cover every pair.
func fuzzSystem(seed int64) *System {
	u := uint64(seed)
	rng := rand.New(rand.NewSource(seed))
	extent := math.Pow(10, float64(rng.Intn(13)-6))
	eps := extent * []float64{1e-2, 1e-4, 0}[rng.Intn(3)]
	s := &System{Theta: fuzzThetas[(u/3)%6], G: 1, DT: 1e-3, Eps: eps}
	n := 1 + rng.Intn(600)
	var origin Vec3
	for k := range origin {
		origin[k] = extent * 1e3 * (2*rng.Float64() - 1) * float64(rng.Intn(2))
	}
	uniform := func() Vec3 {
		for {
			p := Vec3{2*rng.Float64() - 1, 2*rng.Float64() - 1, 2*rng.Float64() - 1}
			if p.Dot(p) <= 1 {
				return origin.Add(p.Scale(extent))
			}
		}
	}
	// The first cluster sits near zero, where a maxDepth cell is still
	// many floats wide, so its self-exclusion box decides.
	centers := []Vec3{Vec3{rng.Float64(), rng.Float64(), rng.Float64()}.Scale(extent * 1e-8)}
	for c := rng.Intn(8); c > 0; c-- {
		centers = append(centers, uniform())
	}
	for i := 0; i < n; i++ {
		var p Vec3
		switch u % 3 {
		case 0:
			p = uniform()
		case 1:
			if rng.Intn(4) == 0 {
				p = uniform()
			} else {
				p = centers[rng.Intn(len(centers))]
				if rng.Intn(4) == 0 {
					// Near-coincident: one coordinate a float away.
					k := rng.Intn(3)
					p[k] = math.Nextafter(p[k], math.Inf(2*rng.Intn(2)-1))
				}
			}
		case 2:
			for k := range p {
				p[k] = origin[k] + extent*float64(rng.Intn(9)-4)/4
			}
		}
		m := 1 / float64(n)
		if rng.Intn(2) == 0 {
			m *= rng.Float64() + 0.5
		}
		vel := Vec3{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}.Scale(extent)
		s.Bodies = append(s.Bodies, Body{Pos: p, Vel: vel, Mass: m})
	}
	return s
}

// FuzzForces requires the flat octree to reproduce the pointer octree
// bit for bit: every body's acceleration and interaction count, over
// three integrated steps.
func FuzzForces(f *testing.F) {
	for seed := int64(0); seed < 24; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		s := fuzzSystem(seed)
		for step := 0; step < 3; step++ {
			flat, ptr := s.BuildTree(), buildPtrTree(s)
			acc := make([]Vec3, len(s.Bodies))
			for i := range s.Bodies {
				a, n := flat.ForceOn(i)
				want, wantN := ptr.ForceOn(i)
				for k := 0; k < 3; k++ {
					if math.Float64bits(a[k]) != math.Float64bits(want[k]) {
						t.Fatalf("seed %d step %d body %d: acceleration %v, pointer tree %v",
							seed, step, i, a, want)
					}
				}
				if n != wantN {
					t.Fatalf("seed %d step %d body %d: %d interactions, pointer tree %d",
						seed, step, i, n, wantN)
				}
				acc[i] = a
			}
			s.Step(acc)
		}
	})
}
