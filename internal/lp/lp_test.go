package lp

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func approx(a, b float64) bool { return math.Abs(a-b) < 1e-6 }

// coldSolve solves p from scratch through the production entry point:
// the first Solve of a fresh NodeSolver is the cold two-phase bounded
// simplex.
func coldSolve(p *Problem, upper []float64) (*Solution, error) {
	ns, err := NewNodeSolver(p, upper)
	if err != nil {
		return nil, err
	}
	return ns.Solve(nil)
}

func TestSolveSimpleMax(t *testing.T) {
	// max x+y s.t. x+2y<=4, 3x+y<=6  => min -(x+y).
	// Optimum at x=1.6, y=1.2, value 2.8.
	p := &Problem{NumVars: 2, Objective: []float64{-1, -1}}
	p.AddConstraint(LE, 4, Term{0, 1}, Term{1, 2})
	p.AddConstraint(LE, 6, Term{0, 3}, Term{1, 1})
	s, err := coldSolve(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != Optimal {
		t.Fatalf("status = %v", s.Status)
	}
	if !approx(s.Objective, -2.8) {
		t.Errorf("objective = %f, want -2.8 (x=%v)", s.Objective, s.X)
	}
}

func TestSolveEquality(t *testing.T) {
	// min x+y s.t. x+y = 5, x <= 2  => x=2? No: min x+y with x+y=5 is 5.
	p := &Problem{NumVars: 2, Objective: []float64{1, 1}}
	p.AddConstraint(EQ, 5, Term{0, 1}, Term{1, 1})
	p.AddConstraint(LE, 2, Term{0, 1})
	s, err := coldSolve(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != Optimal || !approx(s.Objective, 5) {
		t.Fatalf("got %v obj=%f, want optimal 5", s.Status, s.Objective)
	}
	if s.X[0] > 2+1e-9 {
		t.Errorf("x = %f violates x<=2", s.X[0])
	}
	if !approx(s.X[0]+s.X[1], 5) {
		t.Errorf("x+y = %f, want 5", s.X[0]+s.X[1])
	}
}

func TestSolveGE(t *testing.T) {
	// min 2x+3y s.t. x+y >= 10, x >= 2. Optimum x=10 (y=0): 20? Check:
	// cost of x is 2 < 3, so push x: x=10,y=0 satisfies both, obj 20.
	p := &Problem{NumVars: 2, Objective: []float64{2, 3}}
	p.AddConstraint(GE, 10, Term{0, 1}, Term{1, 1})
	p.AddConstraint(GE, 2, Term{0, 1})
	s, err := coldSolve(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != Optimal || !approx(s.Objective, 20) {
		t.Fatalf("got %v obj=%f X=%v, want optimal 20", s.Status, s.Objective, s.X)
	}
}

func TestSolveInfeasible(t *testing.T) {
	p := &Problem{NumVars: 1, Objective: []float64{1}}
	p.AddConstraint(GE, 5, Term{0, 1})
	p.AddConstraint(LE, 3, Term{0, 1})
	s, err := coldSolve(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != Infeasible {
		t.Fatalf("status = %v, want infeasible", s.Status)
	}
}

func TestSolveUnbounded(t *testing.T) {
	// min -x with only x >= 0: unbounded below.
	p := &Problem{NumVars: 1, Objective: []float64{-1}}
	p.AddConstraint(GE, 0, Term{0, 1})
	s, err := coldSolve(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != Unbounded {
		t.Fatalf("status = %v, want unbounded", s.Status)
	}
}

func TestSolveNegativeRHS(t *testing.T) {
	// x - y <= -2 with min x+y: normalized internally to y - x >= 2.
	// Optimum x=0, y=2.
	p := &Problem{NumVars: 2, Objective: []float64{1, 1}}
	p.AddConstraint(LE, -2, Term{0, 1}, Term{1, -1})
	s, err := coldSolve(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != Optimal || !approx(s.Objective, 2) {
		t.Fatalf("got %v obj=%f X=%v, want optimal 2", s.Status, s.Objective, s.X)
	}
}

func TestSolveDegenerate(t *testing.T) {
	// A classically degenerate LP (redundant constraints at the optimum).
	p := &Problem{NumVars: 2, Objective: []float64{-1, -1}}
	p.AddConstraint(LE, 1, Term{0, 1})
	p.AddConstraint(LE, 1, Term{1, 1})
	p.AddConstraint(LE, 2, Term{0, 1}, Term{1, 1})
	s, err := coldSolve(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != Optimal || !approx(s.Objective, -2) {
		t.Fatalf("got %v obj=%f, want optimal -2", s.Status, s.Objective)
	}
}

func TestSolveZeroObjectiveFeasibility(t *testing.T) {
	// Pure feasibility problem (paper MILP1 style): nil objective.
	p := &Problem{NumVars: 2}
	p.AddConstraint(EQ, 1, Term{0, 1}, Term{1, 1})
	p.AddConstraint(LE, 0.6, Term{0, 1})
	s, err := coldSolve(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != Optimal {
		t.Fatalf("status = %v, want optimal", s.Status)
	}
	if !approx(s.X[0]+s.X[1], 1) {
		t.Errorf("x+y = %f, want 1", s.X[0]+s.X[1])
	}
}

func TestSolveRejectsBadInput(t *testing.T) {
	p := &Problem{NumVars: 1, Objective: []float64{1, 2}}
	if _, err := coldSolve(p, nil); err == nil {
		t.Error("mismatched objective length accepted")
	}
	p2 := &Problem{NumVars: 1}
	p2.AddConstraint(LE, 1, Term{5, 1})
	if _, err := coldSolve(p2, nil); err == nil {
		t.Error("out-of-range variable accepted")
	}
}

func TestSolveEmptyProblem(t *testing.T) {
	s, err := coldSolve(&Problem{NumVars: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != Optimal || s.X[0] != 0 || s.X[1] != 0 {
		t.Fatalf("empty problem: got %v %v", s.Status, s.X)
	}
}

// Property: for random feasible assignment-like LPs the solution
// satisfies every constraint within tolerance.
func TestSolveQuickFeasibilityRespected(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(5)
		p := &Problem{NumVars: n, Objective: make([]float64, n)}
		for j := range p.Objective {
			p.Objective[j] = rng.Float64()*4 - 1
		}
		// Box constraints keep it bounded and feasible (0 is feasible).
		for j := 0; j < n; j++ {
			p.AddConstraint(LE, 1+rng.Float64()*5, Term{j, 1})
		}
		for r := 0; r < 1+rng.Intn(4); r++ {
			var terms []Term
			for j := 0; j < n; j++ {
				if rng.Intn(2) == 0 {
					terms = append(terms, Term{j, rng.Float64() * 3})
				}
			}
			if len(terms) == 0 {
				continue
			}
			p.AddConstraint(LE, rng.Float64()*10, terms...)
		}
		s, err := coldSolve(p, nil)
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		if s.Status != Optimal {
			t.Logf("seed %d: status %v", seed, s.Status)
			return false
		}
		for _, c := range p.Constraints {
			var lhs float64
			for _, term := range c.Terms {
				lhs += term.Coef * s.X[term.Var]
			}
			switch c.Sense {
			case LE:
				if lhs > c.RHS+1e-6 {
					return false
				}
			case GE:
				if lhs < c.RHS-1e-6 {
					return false
				}
			case EQ:
				if math.Abs(lhs-c.RHS) > 1e-6 {
					return false
				}
			}
		}
		for _, x := range s.X {
			if x < -1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestSenseString(t *testing.T) {
	if LE.String() != "<=" || GE.String() != ">=" || EQ.String() != "=" {
		t.Error("Sense.String mismatch")
	}
	if Optimal.String() != "optimal" || Infeasible.String() != "infeasible" || Unbounded.String() != "unbounded" {
		t.Error("Status.String mismatch")
	}
}
