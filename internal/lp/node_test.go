package lp

import (
	"math"
	"math/rand"
	"testing"
)

// fixProblem folds upper bounds and a fix set into a fresh Problem for
// the dense reference simplex: bounds become explicit x ≤ u rows, and
// fixed variables keep their column but are pinned by equality rows.
// This gives an independent reference for what NodeSolver should
// compute.
func fixProblem(p *Problem, upper []float64, fixes []Fix) *Problem {
	q := &Problem{NumVars: p.NumVars, Objective: p.Objective}
	q.Constraints = append(q.Constraints, p.Constraints...)
	for j, u := range upper {
		q.AddConstraint(LE, u, Term{Var: j, Coef: 1})
	}
	for _, fx := range fixes {
		q.AddConstraint(EQ, fx.Val, Term{Var: fx.Var, Coef: 1})
	}
	return q
}

// randomBinaryProblem builds a small random LP over binary-bounded
// variables, shaped like the MILP relaxations the solver serves:
// cover rows (GE), capacity rows (LE), and linking equalities.
func randomBinaryProblem(rng *rand.Rand) (*Problem, []float64) {
	n := 4 + rng.Intn(6)
	p := &Problem{NumVars: n}
	if rng.Intn(2) == 0 {
		obj := make([]float64, n)
		for j := range obj {
			obj[j] = float64(rng.Intn(7) - 3)
		}
		p.Objective = obj
	}
	rows := 2 + rng.Intn(5)
	for r := 0; r < rows; r++ {
		var terms []Term
		for j := 0; j < n; j++ {
			if rng.Intn(2) == 0 {
				terms = append(terms, Term{Var: j, Coef: float64(1 + rng.Intn(3))})
			}
		}
		if len(terms) == 0 {
			terms = append(terms, Term{Var: rng.Intn(n), Coef: 1})
		}
		switch rng.Intn(3) {
		case 0:
			p.AddConstraint(GE, float64(1+rng.Intn(2)), terms...)
		case 1:
			p.AddConstraint(LE, float64(1+rng.Intn(4)), terms...)
		default:
			p.AddConstraint(EQ, float64(1+rng.Intn(2)), terms...)
		}
	}
	upper := make([]float64, n)
	for j := range upper {
		upper[j] = 1
	}
	return p, upper
}

// TestNodeSolverMatchesDense drives a NodeSolver through random
// branch-and-bound-like fix sequences and cross-checks every node
// against the dense reference simplex on the equivalent folded
// problem. The sequences deliberately mix supersets (diving),
// rollbacks (sibling nodes), and value changes so both the warm and
// cold paths run.
func TestNodeSolverMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 1000; trial++ {
		p, upper := randomBinaryProblem(rng)
		ns, err := NewNodeSolver(p, upper)
		if err != nil {
			t.Fatalf("trial %d: NewNodeSolver: %v", trial, err)
		}
		var fixes []Fix
		for step := 0; step < 12; step++ {
			// Mutate the fix set: push, pop, or flip.
			switch {
			case len(fixes) == 0 || rng.Intn(3) == 0:
				v := rng.Intn(p.NumVars)
				dup := false
				for _, fx := range fixes {
					if fx.Var == v {
						dup = true
					}
				}
				if !dup {
					fixes = append(fixes, Fix{Var: v, Val: float64(rng.Intn(2))})
				}
			case rng.Intn(2) == 0:
				fixes = fixes[:len(fixes)-1]
			default:
				i := rng.Intn(len(fixes))
				fixes[i].Val = 1 - fixes[i].Val
			}

			got, err := ns.Solve(fixes)
			if err != nil {
				t.Fatalf("trial %d step %d: NodeSolver.Solve: %v", trial, step, err)
			}
			want, err := denseSolve(fixProblem(p, upper, fixes))
			if err != nil {
				t.Fatalf("trial %d step %d: denseSolve: %v", trial, step, err)
			}
			if got.Status != want.Status {
				t.Fatalf("trial %d step %d fixes %v: status %v, want %v",
					trial, step, fixes, got.Status, want.Status)
			}
			if got.Status != Optimal {
				continue
			}
			if p.Objective != nil && math.Abs(got.Objective-want.Objective) > 1e-6 {
				t.Fatalf("trial %d step %d fixes %v: objective %v, want %v",
					trial, step, fixes, got.Objective, want.Objective)
			}
			// The solution must satisfy bounds, fixes, and constraints.
			for j, xj := range got.X {
				if xj < -1e-7 || xj > upper[j]+1e-7 {
					t.Fatalf("trial %d step %d: x[%d]=%v outside [0,%v]", trial, step, j, xj, upper[j])
				}
			}
			for _, fx := range fixes {
				if math.Abs(got.X[fx.Var]-fx.Val) > 1e-7 {
					t.Fatalf("trial %d step %d: x[%d]=%v, fixed to %v", trial, step, fx.Var, got.X[fx.Var], fx.Val)
				}
			}
			for ci, c := range p.Constraints {
				var lhs float64
				for _, tm := range c.Terms {
					lhs += tm.Coef * got.X[tm.Var]
				}
				viol := false
				switch c.Sense {
				case LE:
					viol = lhs > c.RHS+1e-6
				case GE:
					viol = lhs < c.RHS-1e-6
				case EQ:
					viol = math.Abs(lhs-c.RHS) > 1e-6
				}
				if viol {
					t.Fatalf("trial %d step %d: constraint %d violated: lhs=%v rhs=%v sense=%v",
						trial, step, ci, lhs, c.RHS, c.Sense)
				}
			}
		}
	}
}

// TestNodeSolverWarmPathRuns guards against the warm path silently
// degrading into cold solves on the easiest possible diving sequence.
func TestNodeSolverWarmPathRuns(t *testing.T) {
	p := &Problem{NumVars: 6}
	p.AddConstraint(GE, 2, Term{Var: 0, Coef: 1}, Term{Var: 1, Coef: 1}, Term{Var: 2, Coef: 1})
	p.AddConstraint(GE, 2, Term{Var: 3, Coef: 1}, Term{Var: 4, Coef: 1}, Term{Var: 5, Coef: 1})
	p.AddConstraint(LE, 4, Term{Var: 0, Coef: 1}, Term{Var: 1, Coef: 1}, Term{Var: 2, Coef: 1},
		Term{Var: 3, Coef: 1}, Term{Var: 4, Coef: 1}, Term{Var: 5, Coef: 1})
	upper := []float64{1, 1, 1, 1, 1, 1}
	ns, err := NewNodeSolver(p, upper)
	if err != nil {
		t.Fatal(err)
	}
	var fixes []Fix
	for v := 0; v < 4; v++ {
		fixes = append(fixes, Fix{Var: v, Val: 1})
		if _, err := ns.Solve(fixes); err != nil {
			t.Fatalf("solve with %d fixes: %v", len(fixes), err)
		}
	}
	warm, cold := ns.Stats()
	if cold != 1 || warm != 3 {
		t.Fatalf("stats warm=%d cold=%d, want warm=3 cold=1 (first solve cold, dives warm)", warm, cold)
	}
}

// TestNodeSolverColdFallback forces the dual pass to give up via the
// debug iteration budget and checks the solver still answers correctly
// through the cold path.
func TestNodeSolverColdFallback(t *testing.T) {
	defer func(old int) { debugDualBudget = old }(debugDualBudget)

	p := &Problem{NumVars: 4}
	p.AddConstraint(GE, 2, Term{Var: 0, Coef: 1}, Term{Var: 1, Coef: 1}, Term{Var: 2, Coef: 1}, Term{Var: 3, Coef: 1})
	p.AddConstraint(LE, 3, Term{Var: 0, Coef: 1}, Term{Var: 1, Coef: 1}, Term{Var: 2, Coef: 1}, Term{Var: 3, Coef: 1})
	upper := []float64{1, 1, 1, 1}
	ns, err := NewNodeSolver(p, upper)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ns.Solve(nil); err != nil {
		t.Fatal(err)
	}
	debugDualBudget = 1 // dual pass exhausts instantly → cold fallback
	sol, err := ns.Solve([]Fix{{Var: 0, Val: 0}, {Var: 1, Val: 0}})
	debugDualBudget = 0
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal {
		t.Fatalf("status %v, want optimal", sol.Status)
	}
	if sol.X[2]+sol.X[3] < 2-1e-7 {
		t.Fatalf("cover constraint unmet: %v", sol.X)
	}
}
