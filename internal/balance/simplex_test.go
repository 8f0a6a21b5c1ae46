package balance

// A dense two-phase primal simplex solver for small linear programs. It
// stands in for CVXOPT in the simplex oracle (oracle_test.go), which
// solves the paper's core-allocation LP of §5.4.2 with it. Problems are
// stated as
//
//	minimize    c.x
//	subject to  A x {<=,=,>=} b,   x >= 0.
//
// Bland's pivoting rule is used throughout, which guarantees termination
// (no cycling) at the cost of speed — irrelevant at this scale.

import (
	"errors"
	"fmt"
	"math"
)

// simplexRel is a constraint relation.
type simplexRel int

// Constraint relations.
const (
	relLE simplexRel = iota // <=
	relGE                   // >=
	relEQ                   // =
)

func (r simplexRel) String() string {
	switch r {
	case relLE:
		return "<="
	case relGE:
		return ">="
	case relEQ:
		return "="
	}
	return fmt.Sprintf("simplexRel(%d)", int(r))
}

// simplexStatus is the outcome of solve.
type simplexStatus int

// Solver outcomes.
const (
	simplexOptimal simplexStatus = iota
	simplexInfeasible
	simplexUnbounded
)

func (s simplexStatus) String() string {
	switch s {
	case simplexOptimal:
		return "optimal"
	case simplexInfeasible:
		return "infeasible"
	case simplexUnbounded:
		return "unbounded"
	}
	return fmt.Sprintf("simplexStatus(%d)", int(s))
}

// errSimplexNotSolved reports that the problem has no optimal solution.
var errSimplexNotSolved = errors.New("simplex: no optimal solution")

type simplexConstraint struct {
	coef []float64
	rel  simplexRel
	rhs  float64
}

// simplexProblem is a linear program under construction.
type simplexProblem struct {
	nvars int
	c     []float64
	cons  []simplexConstraint
}

// newSimplexProblem creates a problem with nvars non-negative variables and a
// zero objective.
func newSimplexProblem(nvars int) *simplexProblem {
	if nvars <= 0 {
		panic("simplex: non-positive variable count")
	}
	return &simplexProblem{nvars: nvars, c: make([]float64, nvars)}
}

// setObjective sets the minimization objective coefficients.
func (p *simplexProblem) setObjective(c []float64) {
	if len(c) != p.nvars {
		panic(fmt.Sprintf("simplex: objective has %d coefficients, want %d", len(c), p.nvars))
	}
	copy(p.c, c)
}

// addConstraint appends the constraint coef.x rel rhs.
func (p *simplexProblem) addConstraint(coef []float64, rel simplexRel, rhs float64) {
	if len(coef) != p.nvars {
		panic(fmt.Sprintf("simplex: constraint has %d coefficients, want %d", len(coef), p.nvars))
	}
	p.cons = append(p.cons, simplexConstraint{coef: append([]float64(nil), coef...), rel: rel, rhs: rhs})
}

// simplexSolution is the result of solve.
type simplexSolution struct {
	Status    simplexStatus
	X         []float64 // variable values (valid when Status == simplexOptimal)
	Objective float64   // c.x at the optimum
}

const simplexEps = 1e-9

// solve runs two-phase simplex and returns the solution. The error is
// non-nil exactly when Status != simplexOptimal.
func (p *simplexProblem) solve() (*simplexSolution, error) {
	t := newSimplexTableau(p)
	// Phase 1: minimize the sum of artificial variables.
	if t.nart > 0 {
		t.setPhase1Objective()
		if status := t.iterate(); status == simplexUnbounded {
			// Phase 1 is bounded below by 0; this cannot happen.
			return &simplexSolution{Status: simplexInfeasible}, fmt.Errorf("simplex: %w (phase-1 unbounded)", errSimplexNotSolved)
		}
		if t.objectiveValue() > 1e-7 {
			return &simplexSolution{Status: simplexInfeasible}, fmt.Errorf("simplex: %w (infeasible)", errSimplexNotSolved)
		}
		t.driveOutArtificials()
	}
	// Phase 2: original objective.
	t.setPhase2Objective(p.c)
	if status := t.iterate(); status == simplexUnbounded {
		return &simplexSolution{Status: simplexUnbounded}, fmt.Errorf("simplex: %w (unbounded)", errSimplexNotSolved)
	}
	x := t.extract(p.nvars)
	obj := 0.0
	for i, ci := range p.c {
		obj += ci * x[i]
	}
	return &simplexSolution{Status: simplexOptimal, X: x, Objective: obj}, nil
}

// simplexTableau is the dense simplex tableau. Columns are ordered: original
// variables, slack/surplus variables, artificial variables, rhs.
type simplexTableau struct {
	m, n    int // constraints, total columns excluding rhs
	norig   int
	nart    int
	artCol0 int         // first artificial column
	a       [][]float64 // m rows x (n+1); last column is rhs
	obj     []float64   // n+1 entries; reduced costs and objective value
	basis   []int       // basic variable (column) of each row
	phase2  bool        // artificials frozen
}

func newSimplexTableau(p *simplexProblem) *simplexTableau {
	m := len(p.cons)
	// Count slack/surplus and artificial columns. Rows with negative rhs
	// are negated, which flips LE<->GE; both need one slack either way.
	nslack, nart := 0, 0
	for _, c := range p.cons {
		rel := c.rel
		if c.rhs < 0 {
			switch rel {
			case relLE:
				rel = relGE
			case relGE:
				rel = relLE
			}
		}
		switch rel {
		case relLE:
			nslack++
		case relGE:
			nslack++
			nart++
		case relEQ:
			nart++
		}
	}
	n := p.nvars + nslack + nart
	t := &simplexTableau{
		m: m, n: n, norig: p.nvars, nart: nart,
		artCol0: p.nvars + nslack,
		a:       make([][]float64, m),
		obj:     make([]float64, n+1),
		basis:   make([]int, m),
	}
	slack := p.nvars
	art := t.artCol0
	for i, c := range p.cons {
		row := make([]float64, n+1)
		coef := c.coef
		rhs := c.rhs
		rel := c.rel
		sign := 1.0
		if rhs < 0 {
			sign = -1.0
			rhs = -rhs
			switch rel {
			case relLE:
				rel = relGE
			case relGE:
				rel = relLE
			}
		}
		for j, v := range coef {
			row[j] = sign * v
		}
		row[n] = rhs
		switch rel {
		case relLE:
			row[slack] = 1
			t.basis[i] = slack
			slack++
		case relGE:
			row[slack] = -1
			slack++
			row[art] = 1
			t.basis[i] = art
			art++
		case relEQ:
			row[art] = 1
			t.basis[i] = art
			art++
		}
		t.a[i] = row
	}
	return t
}

// setPhase1Objective installs minimize sum(artificials), expressed in terms
// of the current (artificial) basis.
func (t *simplexTableau) setPhase1Objective() {
	for j := range t.obj {
		t.obj[j] = 0
	}
	for j := t.artCol0; j < t.artCol0+t.nart; j++ {
		t.obj[j] = 1
	}
	// Price out the basic artificials: subtract their rows.
	for i, b := range t.basis {
		if b >= t.artCol0 {
			for j := 0; j <= t.n; j++ {
				t.obj[j] -= t.a[i][j]
			}
		}
	}
}

// setPhase2Objective installs minimize c.x priced out against the current
// basis; artificial columns are frozen (treated as forbidden to enter).
func (t *simplexTableau) setPhase2Objective(c []float64) {
	t.phase2 = true
	for j := range t.obj {
		t.obj[j] = 0
	}
	for j := 0; j < t.norig; j++ {
		t.obj[j] = c[j]
	}
	for i, b := range t.basis {
		cb := 0.0
		if b < t.norig {
			cb = c[b]
		}
		if cb != 0 {
			for j := 0; j <= t.n; j++ {
				t.obj[j] -= cb * t.a[i][j]
			}
		}
	}
}

// objectiveValue returns the current objective value (phase-1 form stores
// -value in the rhs entry).
func (t *simplexTableau) objectiveValue() float64 { return -t.obj[t.n] }

// forbidden reports whether column j may not enter the basis (artificials
// in phase 2).
func (t *simplexTableau) forbidden(j int, phase2 bool) bool {
	return phase2 && j >= t.artCol0 && j < t.artCol0+t.nart
}

// iterate runs simplex pivots (Bland's rule) until optimal or unbounded.
// Phase is inferred: after setPhase2Objective artificials are frozen.
func (t *simplexTableau) iterate() simplexStatus {
	phase2 := t.phase2
	for iter := 0; ; iter++ {
		if iter > 100000 {
			panic("simplex: iteration limit exceeded (cycling despite Bland's rule?)")
		}
		// Entering column: smallest index with negative reduced cost.
		enter := -1
		for j := 0; j < t.n; j++ {
			if t.forbidden(j, phase2) {
				continue
			}
			if t.obj[j] < -simplexEps {
				enter = j
				break
			}
		}
		if enter < 0 {
			return simplexOptimal
		}
		// Leaving row: min ratio, ties broken by smallest basis index.
		leave := -1
		best := math.Inf(1)
		for i := 0; i < t.m; i++ {
			if t.a[i][enter] > simplexEps {
				ratio := t.a[i][t.n] / t.a[i][enter]
				if ratio < best-simplexEps || (ratio < best+simplexEps && (leave < 0 || t.basis[i] < t.basis[leave])) {
					best = ratio
					leave = i
				}
			}
		}
		if leave < 0 {
			return simplexUnbounded
		}
		t.pivot(leave, enter)
	}
}

func (t *simplexTableau) pivot(row, col int) {
	p := t.a[row][col]
	for j := 0; j <= t.n; j++ {
		t.a[row][j] /= p
	}
	for i := 0; i < t.m; i++ {
		if i == row {
			continue
		}
		f := t.a[i][col]
		if f == 0 {
			continue
		}
		for j := 0; j <= t.n; j++ {
			t.a[i][j] -= f * t.a[row][j]
		}
	}
	f := t.obj[col]
	if f != 0 {
		for j := 0; j <= t.n; j++ {
			t.obj[j] -= f * t.a[row][j]
		}
	}
	t.basis[row] = col
}

// driveOutArtificials pivots basic artificial variables out of the basis
// where possible (degenerate rows) so phase 2 starts clean.
func (t *simplexTableau) driveOutArtificials() {
	for i := 0; i < t.m; i++ {
		if t.basis[i] < t.artCol0 {
			continue
		}
		// Find any non-artificial column with a non-zero entry.
		swapped := false
		for j := 0; j < t.artCol0; j++ {
			if math.Abs(t.a[i][j]) > simplexEps {
				t.pivot(i, j)
				swapped = true
				break
			}
		}
		if !swapped {
			// Redundant row: the artificial stays basic at value ~0,
			// which is harmless because its column is frozen in phase 2.
			continue
		}
	}
}

// extract reads the values of the first nvars variables from the tableau.
func (t *simplexTableau) extract(nvars int) []float64 {
	x := make([]float64, nvars)
	for i, b := range t.basis {
		if b < nvars {
			x[b] = t.a[i][t.n]
			if x[b] < 0 && x[b] > -1e-7 {
				x[b] = 0
			}
		}
	}
	return x
}
