package nbody

import (
	"fmt"
	"math"
)

// cell is one entry of an Octree's traversal array: everything the force
// walk reads of a node, in 72 bytes. A cell without children is a leaf
// holding one body, or several coincident ones past maxDepth.
type cell struct {
	com     Vec3 // center of mass
	mass    float64
	twoHalf float64 // the cell edge length, 2·half
	// lo and hi bracket the squared distance (2·half/Theta)² at which the
	// opening criterion flips: below lo the cell surely opens, above hi it
	// surely does not, and in between the walk evaluates the criterion
	// exactly.
	lo, hi  float64
	body    int32 // body index for single-body leaves, -1 otherwise
	nbodies int32
	// first is the index of the first of the nchild contiguous children;
	// in a coincident-point leaf it indexes Octree.boxes instead.
	first  int32
	nchild int32
}

// box is the geometry of a cell. Once the tree is built, only the
// self-exclusion test of coincident-point leaves reads it, so only those
// leaves keep theirs, beside the cells.
type box struct {
	center Vec3
	half   float64 // half the cell edge length
}

// Octree is a Barnes–Hut spatial tree over a snapshot of body positions,
// stored flat: cells[0] is the root, and the children of every cell are
// contiguous and in octant order. Theta, G and Eps are read when the tree
// is built.
type Octree struct {
	sys   *System
	cells []cell
	boxes []box // geometry of the coincident-point leaves
	theta float64
	g     float64
	eps2  float64 // Eps²
}

// maxDepth bounds pathological coincident-point recursion.
const maxDepth = 64

// BuildTree constructs the octree for the current body positions, top
// down and breadth first: each cell's bodies, kept in ascending index
// order, are split stably among its octants, and the cells of the
// non-empty octants are appended together. Every cell sums its bodies'
// masses and weighted positions in index order, exactly as inserting the
// bodies one at a time would.
func (s *System) BuildTree() *Octree {
	t := &Octree{sys: s, theta: s.Theta, g: s.G, eps2: s.Eps * s.Eps}
	n := len(s.Bodies)
	if n == 0 {
		return t
	}
	if n > math.MaxInt32 {
		panic(fmt.Sprintf("nbody: %d bodies overflow the octree index", n))
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

	// perm holds every cell's bodies contiguously; oct and tmp are
	// scratch for splitting a cell's run of it.
	perm, tmp, oct := make([]int32, n), make([]int32, n), make([]uint8, n)
	for i := range perm {
		perm[i] = int32(i)
	}
	// A uniform distribution needs about two cells per body.
	t.cells = make([]cell, 1, 2*n+n/4+8)
	spans := make([]span, 1, cap(t.cells)) // spans[j] is the build state of cells[j]
	t.cells[0].nbodies = int32(n)
	spans[0].box = box{center: center, half: half}
	for j := 0; j < len(t.cells); j++ {
		sp := spans[j]
		c := &t.cells[j]
		ids := perm[sp.start : sp.start+c.nbodies]
		for _, i := range ids {
			b := &s.Bodies[i]
			c.mass += b.Mass
			c.com = c.com.Add(b.Pos.Scale(b.Mass))
		}
		if c.mass > 0 {
			c.com = c.com.Scale(1 / c.mass)
		}
		c.twoHalf = 2 * sp.half
		c.body = -1
		switch {
		case len(ids) == 1:
			c.body = ids[0]
		case sp.depth >= maxDepth:
			// Coincident points: keep as a multi-body leaf; force
			// evaluation falls back to the aggregated mass.
			c.first = int32(len(t.boxes))
			t.boxes = append(t.boxes, sp.box)
		default:
			c.lo, c.hi = openBand(c.twoHalf, t.theta)
			// Split: a stable counting sort of the bodies by octant.
			var start [9]int32
			for k, i := range ids {
				o := sp.octantOf(s.Bodies[i].Pos)
				oct[sp.start+int32(k)] = o
				start[o+1]++
			}
			for o := 0; o < 8; o++ {
				start[o+1] += start[o]
			}
			next := start
			for k, i := range ids {
				o := oct[sp.start+int32(k)]
				tmp[sp.start+next[o]] = i
				next[o]++
			}
			copy(ids, tmp[sp.start:sp.start+c.nbodies])
			first := len(t.cells)
			if first > math.MaxInt32-8 {
				panic("nbody: octree cell index overflow")
			}
			for o := 0; o < 8; o++ {
				if k := start[o+1] - start[o]; k > 0 {
					t.cells = append(t.cells, cell{nbodies: k})
					spans = append(spans, span{box: sp.child(o), start: sp.start + start[o], depth: sp.depth + 1})
				}
			}
			t.cells[j].first, t.cells[j].nchild = int32(first), int32(len(t.cells)-first)
		}
	}
	return t
}

// span is a cell's build state: its geometry, the start of its bodies'
// run in the permutation, and its depth.
type span struct {
	box
	start, depth int32
}

// octantOf returns the octant of the box holding pos: bit k is set when
// pos lies in the upper half along axis k.
func (g box) octantOf(pos Vec3) uint8 {
	var o uint8
	for k := 0; k < 3; k++ {
		if pos[k] >= g.center[k] {
			o |= 1 << k
		}
	}
	return o
}

// child returns the geometry of the box's octant o.
func (g box) child(o int) box {
	var off Vec3
	for k := 0; k < 3; k++ {
		if o&(1<<k) != 0 {
			off[k] = g.half / 2
		} else {
			off[k] = -g.half / 2
		}
	}
	return box{center: g.center.Add(off), half: g.half / 2}
}

// bandFloor keeps every quantity of the opening band far from subnormal
// numbers, where relative rounding error is unbounded.
const bandFloor = 0x1p-1000

// openBand returns the squared distances between which the opening
// criterion of a cell of edge twoHalf must be evaluated exactly. The
// exact test, dist == 0 || twoHalf/dist >= theta with dist = sqrt(d²),
// rounds twice, about 2e-16 relative; the band spans ±1e-9 around
// r = twoHalf²/theta², so outside it d² < r decides the test the same
// way. Where theta is not positive, or a quantity is outside the normal
// range, the band is everything and the exact test always runs.
func openBand(twoHalf, theta float64) (lo, hi float64) {
	num, den := twoHalf*twoHalf, theta*theta
	r := num / den
	if theta > 0 && num >= bandFloor && den >= bandFloor && r >= bandFloor && r <= math.MaxFloat64 {
		return r * (1 - 1e-9), r * (1 + 1e-9)
	}
	return math.Inf(-1), math.Inf(1)
}

// ForceOn evaluates the Barnes–Hut acceleration on body i and returns it
// together with the number of interactions (body-body or body-cell) the
// traversal performed. The interaction count is the work measure the
// cluster adapter and the ORB partitioner consume.
func (t *Octree) ForceOn(i int) (Vec3, int) {
	if len(t.cells) == 0 {
		return Vec3{}, 0
	}
	return t.force(0, int32(i), t.sys.Bodies[i].Pos)
}

// force returns the acceleration on body i, at pos, from the subtree
// rooted at cells[j], and its interaction count. Each subtree sums its
// children in octant order from zero, so the result is bit-for-bit that
// of a pointer-linked tree walk.
func (t *Octree) force(j, i int32, pos Vec3) (Vec3, int) {
	c := &t.cells[j]
	if c.nchild == 0 {
		// Leaf with a single body, or a multi-body degenerate leaf.
		if c.body == i {
			return Vec3{}, 0
		}
		m := c.mass
		if c.body < 0 && t.boxes[c.first].contains(pos) {
			// Exclude self-contribution from a degenerate leaf that
			// contains body i.
			m -= t.sys.Bodies[i].Mass
			if m <= 0 {
				return Vec3{}, 0
			}
		}
		d := c.com.Sub(pos)
		return pull(d, d.Dot(d), t.eps2, t.g*m), 1
	}
	d := c.com.Sub(pos)
	d2 := d.Dot(d)
	// A cell far enough away per the theta criterion: one interaction.
	far := d2 > c.hi
	if !far && !(d2 < c.lo) {
		dist := math.Sqrt(d2)
		far = !(dist == 0 || c.twoHalf/dist >= t.theta)
	}
	if far {
		return pull(d, d2, t.eps2, t.g*c.mass), 1
	}
	var a Vec3
	count := 0
	for k := c.first; k < c.first+c.nchild; k++ {
		fa, n := t.force(k, i, pos)
		a = a.Add(fa)
		count += n
	}
	return a, count
}

// contains reports whether the position lies within the box.
func (b box) contains(pos Vec3) bool {
	for k := 0; k < 3; k++ {
		if pos[k] < b.center[k]-b.half || pos[k] > b.center[k]+b.half {
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
