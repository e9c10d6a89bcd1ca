package lp

import (
	"errors"
	"math"
	"testing"
)

// TestBealeDegenerateCycle solves Beale's classical cycling example.
// Under the pure largest-reduced-cost (Dantzig) rule with
// smallest-index ratio ties, the simplex revisits the same degenerate
// bases forever; the solver must escape via its Bland's-rule
// switchover and still reach the known optimum of −1/20, both with no
// upper bounds and with slack ones.
func TestBealeDegenerateCycle(t *testing.T) {
	p := &Problem{
		NumVars:   4,
		Objective: []float64{-0.75, 150, -0.02, 6},
	}
	p.AddConstraint(LE, 0,
		Term{Var: 0, Coef: 0.25}, Term{Var: 1, Coef: -60},
		Term{Var: 2, Coef: -0.04}, Term{Var: 3, Coef: 9})
	p.AddConstraint(LE, 0,
		Term{Var: 0, Coef: 0.5}, Term{Var: 1, Coef: -90},
		Term{Var: 2, Coef: -0.02}, Term{Var: 3, Coef: 3})
	p.AddConstraint(LE, 1, Term{Var: 2, Coef: 1})

	for _, upper := range [][]float64{nil, {1e6, 1e6, 1e6, 1e6}} {
		sol, err := coldSolve(p, upper)
		if err != nil {
			t.Fatal(err)
		}
		if sol.Status != Optimal || math.Abs(sol.Objective-(-0.05)) > 1e-9 {
			t.Fatalf("upper %v: status %v objective %v, want optimal -0.05", upper, sol.Status, sol.Objective)
		}
	}
}

// TestBoundedUpperBoundOptimum drives the solver to solutions that
// sit on variable upper bounds, which only the bound-flip machinery
// (nonbasic-at-upper, flip without basis change) can reach: no
// constraint row limits the variables, so a simplex that only knows
// lower bounds would declare the problem unbounded.
func TestBoundedUpperBoundOptimum(t *testing.T) {
	// Pure bound flips: maximize x0+x1+x2 under a capacity that never
	// binds; every variable must land exactly on its upper bound.
	p := &Problem{NumVars: 3, Objective: []float64{-1, -1, -1}}
	p.AddConstraint(LE, 10,
		Term{Var: 0, Coef: 1}, Term{Var: 1, Coef: 1}, Term{Var: 2, Coef: 1})
	sol, err := coldSolve(p, []float64{1, 2, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal {
		t.Fatalf("status %v, want optimal", sol.Status)
	}
	want := []float64{1, 2, 0.5}
	for j, w := range want {
		if math.Abs(sol.X[j]-w) > 1e-9 {
			t.Fatalf("x[%d]=%v, want %v (upper bound)", j, sol.X[j], w)
		}
	}

	// Mixed: the capacity binds, so one variable is basic strictly
	// between its bounds while the cheaper ones saturate their uppers.
	p2 := &Problem{NumVars: 3, Objective: []float64{-3, -2, -1}}
	p2.AddConstraint(LE, 2,
		Term{Var: 0, Coef: 1}, Term{Var: 1, Coef: 1}, Term{Var: 2, Coef: 1})
	sol2, err := coldSolve(p2, []float64{1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if sol2.Status != Optimal || math.Abs(sol2.Objective-(-5)) > 1e-9 {
		t.Fatalf("status %v objective %v, want optimal -5", sol2.Status, sol2.Objective)
	}
	if math.Abs(sol2.X[0]-1) > 1e-9 || math.Abs(sol2.X[1]-1) > 1e-9 || math.Abs(sol2.X[2]) > 1e-9 {
		t.Fatalf("x=%v, want [1 1 0]", sol2.X)
	}

	// A GE row that forces a variable onto its upper bound through
	// phase 1: x0+x1 ≥ 3 with uppers 2 and 1 admits only x=(2,1).
	p3 := &Problem{NumVars: 2, Objective: []float64{1, 1}}
	p3.AddConstraint(GE, 3, Term{Var: 0, Coef: 1}, Term{Var: 1, Coef: 1})
	sol3, err := coldSolve(p3, []float64{2, 1})
	if err != nil {
		t.Fatal(err)
	}
	if sol3.Status != Optimal {
		t.Fatalf("status %v, want optimal", sol3.Status)
	}
	if math.Abs(sol3.X[0]-2) > 1e-9 || math.Abs(sol3.X[1]-1) > 1e-9 {
		t.Fatalf("x=%v, want [2 1]", sol3.X)
	}

	// Tightening the uppers below the requirement must flip the answer
	// to infeasible, not clamp silently.
	sol4, err := coldSolve(p3, []float64{1.5, 1})
	if err != nil {
		t.Fatal(err)
	}
	if sol4.Status != Infeasible {
		t.Fatalf("status %v, want infeasible (uppers sum to 2.5 < 3)", sol4.Status)
	}
}

// TestIterationLimitSurfaces forces the pivot budget to one iteration
// and checks the simplex surfaces ErrIterationLimit instead of
// returning a half-optimized point as optimal.
func TestIterationLimitSurfaces(t *testing.T) {
	defer func(old int) { debugIterBudget = old }(debugIterBudget)

	// Needs at least two pivots: two GE rows on disjoint variables, so
	// phase 1 alone exceeds the single-iteration budget.
	p := &Problem{NumVars: 2, Objective: []float64{1, 1}}
	p.AddConstraint(GE, 1, Term{Var: 0, Coef: 1})
	p.AddConstraint(GE, 1, Term{Var: 1, Coef: 1})

	debugIterBudget = 1
	_, err := coldSolve(p, []float64{5, 5})
	if !errors.Is(err, ErrIterationLimit) {
		t.Fatalf("err = %v, want ErrIterationLimit", err)
	}
	debugIterBudget = 0

	// Sanity: with the budget restored it solves.
	sol, err := coldSolve(p, []float64{5, 5})
	if err != nil || sol.Status != Optimal || math.Abs(sol.Objective-2) > 1e-9 {
		t.Fatalf("restored solve = %+v, %v; want optimal objective 2", sol, err)
	}
}
