package nbody

import "math"

// cell is one octree node: either an internal node with children, a leaf
// holding one body, or empty.
type cell struct {
	center   Vec3
	half     float64 // half the cell edge length
	mass     float64
	com      Vec3 // center of mass (weighted sum during build)
	body     int  // body index for single-body leaves, -1 otherwise
	children *[8]*cell
	nbodies  int
}

// Octree is a Barnes–Hut spatial tree over a snapshot of body positions.
type Octree struct {
	sys  *System
	root *cell
}

// BuildTree constructs the octree for the current body positions.
func (s *System) BuildTree() *Octree {
	t := &Octree{sys: s}
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
	t.root = &cell{center: center, half: half, body: -1}
	for i := range s.Bodies {
		t.insert(t.root, i, 0)
	}
	t.finalize(t.root)
	return t
}

// maxDepth bounds pathological coincident-point recursion.
const maxDepth = 64

// insert places body i into the subtree rooted at c.
func (t *Octree) insert(c *cell, i int, depth int) {
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
		c.children = new([8]*cell)
		t.pushDown(c, old, depth)
	}
	if depth >= maxDepth {
		return
	}
	t.pushDown(c, i, depth)
}

// pushDown inserts body i into the proper child of c, creating it if
// needed. It does not touch c's own aggregates.
func (t *Octree) pushDown(c *cell, i, depth int) {
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
		ch = &cell{center: c.center.Add(off), half: c.half / 2, body: -1}
		c.children[oct] = ch
	}
	t.insert(ch, i, depth+1)
}

// finalize converts weighted position sums into centers of mass.
func (t *Octree) finalize(c *cell) {
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
func (t *Octree) ForceOn(i int) (Vec3, int) {
	if t.root == nil {
		return Vec3{}, 0
	}
	return t.force(t.root, i)
}

func (t *Octree) force(c *cell, i int) (Vec3, int) {
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
func (t *Octree) containsBody(c *cell, pos Vec3) bool {
	for k := 0; k < 3; k++ {
		if pos[k] < c.center[k]-c.half || pos[k] > c.center[k]+c.half {
			return false
		}
	}
	return true
}

// ComputeForces evaluates all accelerations with the tree, returning the
// accelerations and per-body interaction counts.
func (s *System) ComputeForces() ([]Vec3, []int) {
	t := s.BuildTree()
	acc := make([]Vec3, len(s.Bodies))
	counts := make([]int, len(s.Bodies))
	for i := range s.Bodies {
		acc[i], counts[i] = t.ForceOn(i)
	}
	return acc, counts
}
