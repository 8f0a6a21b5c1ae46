package nbody

import (
	"fmt"
	"sort"
)

// ORB partitions bodies into parts groups by Orthogonal Recursive
// Bisection: at each level the current group is split along its widest
// spatial axis so that the work weight is divided in proportion to the
// number of ranks on each side. This is the application-level load
// balancing the paper's n-body code performs every timestep — note that
// it balances *work*, not *time*, so it cannot compensate for a slow
// node (§7.1).
//
// It returns assign with assign[i] in [0, parts) for every body.
func ORB(pos []Vec3, weights []float64, parts int) []int {
	if parts <= 0 {
		panic(fmt.Sprintf("nbody: ORB into %d parts", parts))
	}
	if weights != nil && len(weights) != len(pos) {
		panic("nbody: ORB weights length mismatch")
	}
	assign := make([]int, len(pos))
	idx := make([]int, len(pos))
	for i := range idx {
		idx[i] = i
	}
	w := func(i int) float64 {
		if weights == nil {
			return 1
		}
		// Zero-weight bodies still need a home; give them a floor so
		// splits remain meaningful.
		if weights[i] <= 0 {
			return 1e-12
		}
		return weights[i]
	}
	var rec func(ids []int, firstPart, nParts int)
	rec = func(ids []int, firstPart, nParts int) {
		if nParts == 1 {
			for _, i := range ids {
				assign[i] = firstPart
			}
			return
		}
		// Widest axis of the bounding box.
		axis := widestAxis(pos, ids)
		sort.Slice(ids, func(a, b int) bool {
			if pos[ids[a]][axis] != pos[ids[b]][axis] {
				return pos[ids[a]][axis] < pos[ids[b]][axis]
			}
			return ids[a] < ids[b]
		})
		leftParts := nParts / 2
		total := 0.0
		for _, i := range ids {
			total += w(i)
		}
		target := total * float64(leftParts) / float64(nParts)
		// Find the cut achieving the target weight on the left.
		acc := 0.0
		cut := 0
		for cut < len(ids)-1 && acc+w(ids[cut]) <= target {
			acc += w(ids[cut])
			cut++
		}
		// Guarantee progress: each side gets at least one body when
		// possible.
		if cut == 0 && len(ids) > 1 {
			cut = 1
		}
		rec(ids[:cut], firstPart, leftParts)
		rec(ids[cut:], firstPart+leftParts, nParts-leftParts)
	}
	rec(idx, 0, parts)
	return assign
}

// widestAxis returns the axis with the largest coordinate spread.
func widestAxis(pos []Vec3, ids []int) int {
	if len(ids) == 0 {
		return 0
	}
	lo, hi := pos[ids[0]], pos[ids[0]]
	for _, i := range ids[1:] {
		for k := 0; k < 3; k++ {
			if pos[i][k] < lo[k] {
				lo[k] = pos[i][k]
			}
			if pos[i][k] > hi[k] {
				hi[k] = pos[i][k]
			}
		}
	}
	axis := 0
	best := hi[0] - lo[0]
	for k := 1; k < 3; k++ {
		if hi[k]-lo[k] > best {
			best = hi[k] - lo[k]
			axis = k
		}
	}
	return axis
}
