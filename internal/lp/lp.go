// Package lp implements a two-phase bounded-variable simplex solver
// for linear programs in the form
//
//	minimize    c·x
//	subject to  a_r·x {≤,≥,=} b_r   for each constraint r
//	            0 ≤ x_j ≤ u_j
//
// Its one entry point, NodeSolver, solves the family of relaxations a
// branch-and-bound search derives from one base problem by pinning
// variables, warm-starting each solve from the previous basis. It is
// the LP engine under the MILP solver in internal/milp, which together
// substitute for the CPLEX package the paper uses to solve its
// crossbar-design MILPs (paper Section 6). Problem sizes there are
// small (the largest STbus crossbar has 32 targets), so a dense
// tableau is appropriate.
package lp

import (
	"errors"
	"fmt"
)

// Sense is the relation of a constraint row to its right-hand side.
type Sense int

const (
	// LE is a_r·x ≤ b_r.
	LE Sense = iota
	// GE is a_r·x ≥ b_r.
	GE
	// EQ is a_r·x = b_r.
	EQ
)

func (s Sense) String() string {
	switch s {
	case LE:
		return "<="
	case GE:
		return ">="
	case EQ:
		return "="
	}
	return fmt.Sprintf("Sense(%d)", int(s))
}

// Term is one coefficient of a sparse constraint row.
type Term struct {
	Var  int
	Coef float64
}

// Constraint is a sparse constraint row.
type Constraint struct {
	Terms []Term
	Sense Sense
	RHS   float64
}

// Problem is an LP in minimization form. Variables are implicitly
// non-negative; upper bounds are passed to NewNodeSolver alongside.
type Problem struct {
	NumVars     int
	Objective   []float64 // length NumVars; nil means the zero objective
	Constraints []Constraint
}

// AddConstraint appends a constraint built from (var, coef) pairs.
func (p *Problem) AddConstraint(sense Sense, rhs float64, terms ...Term) {
	p.Constraints = append(p.Constraints, Constraint{Terms: terms, Sense: sense, RHS: rhs})
}

// Status is the outcome of a solve.
type Status int

const (
	// Optimal means an optimal basic feasible solution was found.
	Optimal Status = iota
	// Infeasible means the constraints admit no solution.
	Infeasible
	// Unbounded means the objective decreases without bound.
	Unbounded
)

func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	}
	return fmt.Sprintf("Status(%d)", int(s))
}

// Solution holds the result of a solve.
type Solution struct {
	Status    Status
	X         []float64 // variable values when Status == Optimal
	Objective float64   // c·x when Status == Optimal
	// Iterations counts the simplex basis changes (primal and dual
	// pivots) spent producing this solution — the per-solve work metric
	// the MILP layer aggregates into its milp.lp_iterations metric.
	Iterations int64
}

const eps = 1e-9

// ErrIterationLimit is returned when the simplex fails to converge
// within the iteration budget (indicative of numerical trouble).
var ErrIterationLimit = errors.New("lp: simplex iteration limit exceeded")

// ErrInterrupted is returned when a NodeSolver's Interrupt callback
// asked a running simplex pass to stop. The solve's intermediate state
// is discarded (the solver re-anchors cold on the next call), so an
// interrupted solver remains usable.
var ErrInterrupted = errors.New("lp: solve interrupted")

// debugIterBudget, when positive, overrides the pivot budget of the
// primal simplex loops. debugDualBudget does the same for the
// NodeSolver's dual-simplex pass. They exist purely so tests can force
// the ErrIterationLimit and warm-start fallback paths on small
// problems.
var (
	debugIterBudget = 0
	debugDualBudget = 0
)

var errUnbounded = errors.New("lp: unbounded")
