package lp

import (
	"math"
	"math/rand"
	"testing"
)

func TestSolveBoundedSimple(t *testing.T) {
	// max x+y s.t. x+y <= 3, x ≤ 1, y ≤ 1 (bounds) — optimum 2.
	p := &Problem{NumVars: 2, Objective: []float64{-1, -1}}
	p.AddConstraint(LE, 3, Term{0, 1}, Term{1, 1})
	s, err := coldSolve(p, []float64{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != Optimal || !approx(s.Objective, -2) {
		t.Fatalf("got %v obj=%f X=%v, want optimal -2", s.Status, s.Objective, s.X)
	}
}

func TestSolveBoundedBindingConstraintNotBounds(t *testing.T) {
	// max x+y s.t. x+y ≤ 1.2 with x,y ≤ 1: constraint binds first.
	p := &Problem{NumVars: 2, Objective: []float64{-1, -1}}
	p.AddConstraint(LE, 1.2, Term{0, 1}, Term{1, 1})
	s, err := coldSolve(p, []float64{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != Optimal || !approx(s.Objective, -1.2) {
		t.Fatalf("got %v obj=%f, want -1.2", s.Status, s.Objective)
	}
}

func TestSolveBoundedEquality(t *testing.T) {
	// x + y = 1.5 with binaries relaxed to [0,1]: feasible (e.g. 1, .5).
	p := &Problem{NumVars: 2}
	p.AddConstraint(EQ, 1.5, Term{0, 1}, Term{1, 1})
	s, err := coldSolve(p, []float64{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != Optimal {
		t.Fatalf("status %v, want optimal", s.Status)
	}
	if !approx(s.X[0]+s.X[1], 1.5) {
		t.Errorf("x+y = %f", s.X[0]+s.X[1])
	}
	for _, v := range s.X {
		if v < -1e-9 || v > 1+1e-9 {
			t.Errorf("bound violated: %v", s.X)
		}
	}
}

func TestSolveBoundedInfeasibleByBounds(t *testing.T) {
	// x + y = 3 with x,y ≤ 1 is infeasible.
	p := &Problem{NumVars: 2}
	p.AddConstraint(EQ, 3, Term{0, 1}, Term{1, 1})
	s, err := coldSolve(p, []float64{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != Infeasible {
		t.Fatalf("status %v, want infeasible", s.Status)
	}
}

func TestSolveBoundedUnbounded(t *testing.T) {
	p := &Problem{NumVars: 1, Objective: []float64{-1}}
	s, err := coldSolve(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != Unbounded {
		t.Fatalf("status %v, want unbounded", s.Status)
	}
}

func TestSolveBoundedZeroUpper(t *testing.T) {
	// A variable pinned at 0 by its bound.
	p := &Problem{NumVars: 2, Objective: []float64{-5, -1}}
	p.AddConstraint(LE, 10, Term{0, 1}, Term{1, 1})
	s, err := coldSolve(p, []float64{0, math.Inf(1)})
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != Optimal || !approx(s.X[0], 0) || !approx(s.X[1], 10) {
		t.Fatalf("got %v X=%v, want x0=0 x1=10", s.Status, s.X)
	}
}

func TestSolveBoundedRejectsBadInput(t *testing.T) {
	p := &Problem{NumVars: 2}
	if _, err := coldSolve(p, []float64{1}); err == nil {
		t.Error("short upper accepted")
	}
	if _, err := coldSolve(p, []float64{1, -2}); err == nil {
		t.Error("negative upper accepted")
	}
}

// TestSolveBoundedQuickAgainstRowBounds: on random problems, the
// bounded-variable simplex agrees with the row-based formulation
// solved by the dense reference simplex.
func TestSolveBoundedQuickAgainstRowBounds(t *testing.T) {
	for seed := int64(0); seed < 120; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(5)
		p := &Problem{NumVars: n, Objective: make([]float64, n)}
		upper := make([]float64, n)
		for j := 0; j < n; j++ {
			p.Objective[j] = float64(rng.Intn(11) - 5)
			upper[j] = float64(1 + rng.Intn(4))
		}
		for r := 0; r < 1+rng.Intn(4); r++ {
			var terms []Term
			for j := 0; j < n; j++ {
				if rng.Intn(2) == 0 {
					terms = append(terms, Term{j, float64(rng.Intn(7) - 3)})
				}
			}
			if len(terms) == 0 {
				continue
			}
			sense := []Sense{LE, GE, EQ}[rng.Intn(3)]
			p.AddConstraint(sense, float64(rng.Intn(9)-2), terms...)
		}

		// Reference: dense simplex with explicit bound rows.
		ref := Problem{NumVars: n, Objective: p.Objective,
			Constraints: append([]Constraint(nil), p.Constraints...)}
		for j := 0; j < n; j++ {
			ref.AddConstraint(LE, upper[j], Term{j, 1})
		}
		want, err := denseSolve(&ref)
		if err != nil {
			t.Fatalf("seed %d: reference: %v", seed, err)
		}
		got, err := coldSolve(p, upper)
		if err != nil {
			t.Fatalf("seed %d: bounded: %v", seed, err)
		}
		if got.Status != want.Status {
			t.Fatalf("seed %d: status %v vs reference %v", seed, got.Status, want.Status)
		}
		if got.Status != Optimal {
			continue
		}
		if math.Abs(got.Objective-want.Objective) > 1e-6 {
			t.Errorf("seed %d: objective %f vs reference %f (X=%v refX=%v)",
				seed, got.Objective, want.Objective, got.X, want.X)
		}
		// Solution must satisfy constraints and bounds.
		for j, v := range got.X {
			if v < -1e-7 || v > upper[j]+1e-7 {
				t.Errorf("seed %d: bound violated: x%d=%f ∉ [0,%f]", seed, j, v, upper[j])
			}
		}
		for _, c := range p.Constraints {
			var lhs float64
			for _, term := range c.Terms {
				lhs += term.Coef * got.X[term.Var]
			}
			switch c.Sense {
			case LE:
				if lhs > c.RHS+1e-6 {
					t.Errorf("seed %d: LE violated", seed)
				}
			case GE:
				if lhs < c.RHS-1e-6 {
					t.Errorf("seed %d: GE violated", seed)
				}
			case EQ:
				if math.Abs(lhs-c.RHS) > 1e-6 {
					t.Errorf("seed %d: EQ violated", seed)
				}
			}
		}
	}
}
