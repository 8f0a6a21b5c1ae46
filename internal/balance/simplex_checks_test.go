package balance

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func simplexSolveOK(t *testing.T, p *simplexProblem) *simplexSolution {
	t.Helper()
	s, err := p.solve()
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if s.Status != simplexOptimal {
		t.Fatalf("status = %v, want optimal", s.Status)
	}
	return s
}

func simplexApprox(a, b float64) bool { return math.Abs(a-b) < 1e-6 }

func TestSimplexSimpleMaximization(t *testing.T) {
	// max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18  => x=2, y=6, obj=36.
	// As minimization of -(3x + 5y).
	p := newSimplexProblem(2)
	p.setObjective([]float64{-3, -5})
	p.addConstraint([]float64{1, 0}, relLE, 4)
	p.addConstraint([]float64{0, 2}, relLE, 12)
	p.addConstraint([]float64{3, 2}, relLE, 18)
	s := simplexSolveOK(t, p)
	if !simplexApprox(s.X[0], 2) || !simplexApprox(s.X[1], 6) || !simplexApprox(s.Objective, -36) {
		t.Fatalf("x = %v, obj = %v; want [2 6], -36", s.X, s.Objective)
	}
}

func TestSimplexEqualityConstraint(t *testing.T) {
	// min x + 2y s.t. x + y = 10, x <= 4  => x=4, y=6, obj=16.
	p := newSimplexProblem(2)
	p.setObjective([]float64{1, 2})
	p.addConstraint([]float64{1, 1}, relEQ, 10)
	p.addConstraint([]float64{1, 0}, relLE, 4)
	s := simplexSolveOK(t, p)
	if !simplexApprox(s.X[0], 4) || !simplexApprox(s.X[1], 6) || !simplexApprox(s.Objective, 16) {
		t.Fatalf("x = %v, obj = %v; want [4 6], 16", s.X, s.Objective)
	}
}

func TestSimplexGEConstraint(t *testing.T) {
	// min 2x + 3y s.t. x + y >= 5, x >= 1  => x=5, y=0, obj=10.
	p := newSimplexProblem(2)
	p.setObjective([]float64{2, 3})
	p.addConstraint([]float64{1, 1}, relGE, 5)
	p.addConstraint([]float64{1, 0}, relGE, 1)
	s := simplexSolveOK(t, p)
	if !simplexApprox(s.Objective, 10) {
		t.Fatalf("obj = %v, want 10 (x=%v)", s.Objective, s.X)
	}
}

func TestSimplexNegativeRHS(t *testing.T) {
	// min x s.t. -x <= -3  (i.e. x >= 3) => x=3.
	p := newSimplexProblem(1)
	p.setObjective([]float64{1})
	p.addConstraint([]float64{-1}, relLE, -3)
	s := simplexSolveOK(t, p)
	if !simplexApprox(s.X[0], 3) {
		t.Fatalf("x = %v, want 3", s.X)
	}
}

func TestSimplexInfeasible(t *testing.T) {
	p := newSimplexProblem(1)
	p.setObjective([]float64{1})
	p.addConstraint([]float64{1}, relGE, 5)
	p.addConstraint([]float64{1}, relLE, 3)
	s, err := p.solve()
	if err == nil || s.Status != simplexInfeasible {
		t.Fatalf("status = %v, err = %v; want infeasible", s.Status, err)
	}
}

func TestSimplexUnbounded(t *testing.T) {
	p := newSimplexProblem(2)
	p.setObjective([]float64{-1, 0}) // maximize x with no upper bound
	p.addConstraint([]float64{0, 1}, relLE, 1)
	s, err := p.solve()
	if err == nil || s.Status != simplexUnbounded {
		t.Fatalf("status = %v, err = %v; want unbounded", s.Status, err)
	}
}

func TestSimplexDegenerate(t *testing.T) {
	// A classic degenerate LP; Bland's rule must terminate.
	// min -0.75x4 + 150x5 - 0.02x6 + 6x7 (Beale's cycling example).
	p := newSimplexProblem(4)
	p.setObjective([]float64{-0.75, 150, -0.02, 6})
	p.addConstraint([]float64{0.25, -60, -0.04, 9}, relLE, 0)
	p.addConstraint([]float64{0.5, -90, -0.02, 3}, relLE, 0)
	p.addConstraint([]float64{0, 0, 1, 0}, relLE, 1)
	s := simplexSolveOK(t, p)
	if !simplexApprox(s.Objective, -0.05) {
		t.Fatalf("obj = %v, want -0.05", s.Objective)
	}
}

func TestSimplexRedundantEqualities(t *testing.T) {
	// x + y = 4 stated twice; min x => x=0, y=4.
	p := newSimplexProblem(2)
	p.setObjective([]float64{1, 0})
	p.addConstraint([]float64{1, 1}, relEQ, 4)
	p.addConstraint([]float64{2, 2}, relEQ, 8)
	s := simplexSolveOK(t, p)
	if !simplexApprox(s.X[0], 0) || !simplexApprox(s.X[1], 4) {
		t.Fatalf("x = %v, want [0 4]", s.X)
	}
}

func TestSimplexZeroObjectiveFeasibilityCheck(t *testing.T) {
	// Pure feasibility: any x with x1 + x2 >= 2, x1 <= 1, x2 <= 2.
	p := newSimplexProblem(2)
	p.addConstraint([]float64{1, 1}, relGE, 2)
	p.addConstraint([]float64{1, 0}, relLE, 1)
	p.addConstraint([]float64{0, 1}, relLE, 2)
	s := simplexSolveOK(t, p)
	if s.X[0]+s.X[1] < 2-1e-9 || s.X[0] > 1+1e-9 || s.X[1] > 2+1e-9 {
		t.Fatalf("returned infeasible point %v", s.X)
	}
}

func TestSimplexAllocationShapedProblem(t *testing.T) {
	// A miniature of the paper's core-allocation LP at fixed t:
	// workers w0 (apprank 0 on node 0), w1 (apprank 0 on node 1),
	// w2 (apprank 1 on node 1). Node capacities 4 and 4.
	// Apprank 0 needs >= 6 cores, apprank 1 needs >= 2.
	// Minimize offloaded cores (w1).
	p := newSimplexProblem(3)
	p.setObjective([]float64{0, 1, 0})
	p.addConstraint([]float64{1, 0, 0}, relLE, 4) // node 0 capacity
	p.addConstraint([]float64{0, 1, 1}, relLE, 4) // node 1 capacity
	p.addConstraint([]float64{1, 1, 0}, relGE, 6) // apprank 0 demand
	p.addConstraint([]float64{0, 0, 1}, relGE, 2) // apprank 1 demand
	for i := 0; i < 3; i++ {
		coef := make([]float64, 3)
		coef[i] = 1
		p.addConstraint(coef, relGE, 1) // every worker owns >= 1 core
	}
	s := simplexSolveOK(t, p)
	if !simplexApprox(s.X[0], 4) || !simplexApprox(s.X[1], 2) || !simplexApprox(s.X[2], 2) {
		t.Fatalf("x = %v, want [4 2 2]", s.X)
	}
}

func TestSimplexInputValidationPanics(t *testing.T) {
	for _, fn := range []func(){
		func() { newSimplexProblem(0) },
		func() { newSimplexProblem(2).setObjective([]float64{1}) },
		func() { newSimplexProblem(2).addConstraint([]float64{1}, relLE, 0) },
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

// TestQuickFeasibleBoundedLP builds random LPs that are feasible and
// bounded by construction (box constraints plus random LE cuts that keep
// the origin feasible) and checks that the solver's optimum is no worse
// than a cloud of random feasible points.
func TestSimplexQuickFeasibleBoundedLP(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(4)
		p := newSimplexProblem(n)
		c := make([]float64, n)
		for i := range c {
			c[i] = rng.Float64()*4 - 2
		}
		p.setObjective(c)
		// Box: x_i <= 10 keeps the problem bounded in every direction
		// that decreases the objective... except negative c with x free
		// upward; box handles it.
		for i := 0; i < n; i++ {
			coef := make([]float64, n)
			coef[i] = 1
			p.addConstraint(coef, relLE, 10)
		}
		// Random cuts a.x <= b with b >= 0 keep the origin feasible.
		cuts := rng.Intn(4)
		type cut struct {
			coef []float64
			rhs  float64
		}
		var cutList []cut
		for k := 0; k < cuts; k++ {
			coef := make([]float64, n)
			for i := range coef {
				coef[i] = rng.Float64()*2 - 1
			}
			rhs := rng.Float64() * 5
			p.addConstraint(coef, relLE, rhs)
			cutList = append(cutList, cut{coef, rhs})
		}
		s, err := p.solve()
		if err != nil || s.Status != simplexOptimal {
			return false
		}
		// The optimum must be feasible.
		for i := 0; i < n; i++ {
			if s.X[i] < -1e-7 || s.X[i] > 10+1e-7 {
				return false
			}
		}
		for _, cu := range cutList {
			dot := 0.0
			for i := range cu.coef {
				dot += cu.coef[i] * s.X[i]
			}
			if dot > cu.rhs+1e-6 {
				return false
			}
		}
		// And at least as good as random feasible samples.
		for trial := 0; trial < 200; trial++ {
			x := make([]float64, n)
			for i := range x {
				x[i] = rng.Float64() * 10
			}
			ok := true
			for _, cu := range cutList {
				dot := 0.0
				for i := range cu.coef {
					dot += cu.coef[i] * x[i]
				}
				if dot > cu.rhs {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			obj := 0.0
			for i := range x {
				obj += c[i] * x[i]
			}
			if obj < s.Objective-1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
