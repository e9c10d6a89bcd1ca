// Package oracle is the literal form of the paper's two MILPs (Eq. 3–9
// for feasibility, plus Eq. 11 for the binding) solved with the
// generic branch and bound of internal/milp over the simplex of
// internal/lp. It plays the role CPLEX plays in the paper, as a
// reference only: tests compare the specialized search in
// internal/core against it, and no production build imports it.
//
// The oracle is written to be independent of the code it checks. It
// states Eq. 4 over every window with traffic (not core's
// Pareto-reduced set), and its design loop searches the bus count from
// one (not from core's analytic lower bound), so a fault in either of
// those core shortcuts shows up as a disagreement.
package oracle

import (
	"context"
	"fmt"

	"repro/internal/lp"
	"repro/internal/milp"
	"repro/internal/trace"
)

// Formulation is the paper's MILP (Eq. 3–9, plus Eq. 11 in binding
// mode) over a fixed bus count, expressed for the internal solver.
// Variable layout:
//
//	x_{i,k}  — binding variables (Definition 3), binary
//	sb_{i,j,k}, s_{i,j} — sharing variables (Definition 4), binary,
//	           materialized only for pairs that need them (conflict
//	           pairs always; positive-overlap pairs in binding mode)
//	maxov    — continuous objective variable (binding mode only)
type Formulation struct {
	Problem  *milp.Problem
	NumBuses int
	nT       int
	// MaxovIdx is the maxov variable index, or -1 in feasibility mode.
	MaxovIdx int
}

// xIdx maps (receiver, bus) to the x variable index; the x variables
// come first, receiver-major.
func (f *Formulation) xIdx(i, k int) int { return i*f.NumBuses + k }

type pairIJ struct{ i, j int }

// Formulator holds the bus-count-independent part of the formulation
// for one analysis: the busy windows and the conflict matrix. A design
// probes several bus counts against the same analysis, and ForBusCount
// builds the rows of one count.
type Formulator struct {
	a         *trace.Analysis
	conflicts [][]bool
	maxPerBus int
	// cols are the windows with traffic and vals their loads:
	// vals[w*nT+i] is receiver i's load in window cols[w]
	// (trace.Analysis.Comm.DenseColumns). Each is one Eq. 4 row per bus.
	cols []int
	vals []int64
}

// NewFormulator prepares the formulation of the given analysis and
// conflict matrix with at most maxPerBus receivers per bus (paper
// maxtb; values outside [1, receivers] mean no cap).
func NewFormulator(a *trace.Analysis, conflicts [][]bool, maxPerBus int) *Formulator {
	if maxPerBus <= 0 || maxPerBus > a.NumReceivers {
		maxPerBus = a.NumReceivers
	}
	cols, vals := a.Comm.DenseColumns()
	return &Formulator{a: a, conflicts: conflicts, maxPerBus: maxPerBus, cols: cols, vals: vals}
}

// pairs returns the receiver pairs that need sharing variables:
// conflict pairs, plus positive-overlap pairs in binding mode.
func (f *Formulator) pairs(optimize bool) []pairIJ {
	nT := f.a.NumReceivers
	var pairs []pairIJ
	for i := 0; i < nT; i++ {
		for j := i + 1; j < nT; j++ {
			if f.conflicts[i][j] || (optimize && f.a.OM.At(i, j) > 0) {
				pairs = append(pairs, pairIJ{i, j})
			}
		}
	}
	return pairs
}

// ForBusCount builds the MILP for one candidate bus count.
func (f *Formulator) ForBusCount(numBuses int, optimize bool) *Formulation {
	a := f.a
	nT := a.NumReceivers
	nB := numBuses
	pairs := f.pairs(optimize)

	numX := nT * nB
	numSB := len(pairs) * nB
	numS := len(pairs)
	numVars := numX + numSB + numS
	maxovIdx := -1
	if optimize {
		maxovIdx = numVars
		numVars++
	}

	x := func(i, k int) int { return i*nB + k }
	sb := func(p, k int) int { return numX + p*nB + k }
	sv := func(p int) int { return numX + numSB + p }

	prob := &milp.Problem{
		LP:     lp.Problem{NumVars: numVars},
		Binary: make([]bool, numVars),
	}
	for v := 0; v < numX+numSB+numS; v++ {
		prob.Binary[v] = true
	}
	if optimize {
		obj := make([]float64, numVars)
		obj[maxovIdx] = 1
		prob.LP.Objective = obj
	}

	// Eq. 3: each receiver on exactly one bus.
	for i := 0; i < nT; i++ {
		terms := make([]lp.Term, nB)
		for k := 0; k < nB; k++ {
			terms[k] = lp.Term{Var: x(i, k), Coef: 1}
		}
		prob.LP.AddConstraint(lp.EQ, 1, terms...)
	}

	// Eq. 4: per-window per-bus bandwidth, over every window with
	// traffic (an idle window loads no bus).
	for w, m := range f.cols {
		ws := a.WindowLen(m)
		for k := 0; k < nB; k++ {
			var terms []lp.Term
			for i := 0; i < nT; i++ {
				if c := f.vals[w*nT+i]; c > 0 {
					terms = append(terms, lp.Term{Var: x(i, k), Coef: float64(c)})
				}
			}
			prob.LP.AddConstraint(lp.LE, float64(ws), terms...)
		}
	}

	// Eq. 5: linearized sharing variables.
	for p, pr := range pairs {
		for k := 0; k < nB; k++ {
			// x_ik + x_jk - sb_ijk <= 1
			prob.LP.AddConstraint(lp.LE, 1,
				lp.Term{Var: x(pr.i, k), Coef: 1},
				lp.Term{Var: x(pr.j, k), Coef: 1},
				lp.Term{Var: sb(p, k), Coef: -1})
			// 0.5 x_ik + 0.5 x_jk - sb_ijk >= 0
			prob.LP.AddConstraint(lp.GE, 0,
				lp.Term{Var: x(pr.i, k), Coef: 0.5},
				lp.Term{Var: x(pr.j, k), Coef: 0.5},
				lp.Term{Var: sb(p, k), Coef: -1})
		}
	}

	// Eq. 6: s_ij = Σ_k sb_ijk.
	for p := range pairs {
		terms := []lp.Term{{Var: sv(p), Coef: 1}}
		for k := 0; k < nB; k++ {
			terms = append(terms, lp.Term{Var: sb(p, k), Coef: -1})
		}
		prob.LP.AddConstraint(lp.EQ, 0, terms...)
	}

	// Eq. 7: conflicting pairs never share (c_ij × s_ij = 0).
	for p, pr := range pairs {
		if f.conflicts[pr.i][pr.j] {
			prob.LP.AddConstraint(lp.EQ, 0, lp.Term{Var: sv(p), Coef: 1})
		}
	}

	// Eq. 8: at most maxtb receivers per bus.
	if f.maxPerBus < nT {
		for k := 0; k < nB; k++ {
			terms := make([]lp.Term, nT)
			for i := 0; i < nT; i++ {
				terms[i] = lp.Term{Var: x(i, k), Coef: 1}
			}
			prob.LP.AddConstraint(lp.LE, float64(f.maxPerBus), terms...)
		}
	}

	// Eq. 11: per-bus aggregate overlap bounded by maxov. The paper
	// sums om_{i,j} over ordered pairs; summing unordered pairs halves
	// the objective without changing the argmin.
	if optimize {
		for k := 0; k < nB; k++ {
			terms := []lp.Term{{Var: maxovIdx, Coef: -1}}
			for p, pr := range pairs {
				if om := a.OM.At(pr.i, pr.j); om > 0 {
					terms = append(terms, lp.Term{Var: sb(p, k), Coef: float64(om)})
				}
			}
			if len(terms) > 1 {
				prob.LP.AddConstraint(lp.LE, 0, terms...)
			}
		}
	}

	// Symmetry breaking. Buses are interchangeable, so these rows are
	// not in the paper; both kinds are sound — they remove only
	// permuted copies of solutions, never the canonical representative
	// — and because the binding objective maxov is invariant under bus
	// relabeling they are valid in binding mode too.
	//
	// Weak rows: x_{i,k} = 0 for k > i (receiver i may only use buses
	// 0..i).
	for i := 0; i < nT && i < nB; i++ {
		for k := i + 1; k < nB; k++ {
			prob.LP.AddConstraint(lp.EQ, 0, lp.Term{Var: x(i, k), Coef: 1})
		}
	}
	if optimize {
		// Canonical-ordering rows: x_{i,k} ≤ Σ_{j<i} x_{j,k−1} for
		// k ≥ 1 — bus k may only be opened by receiver i if bus k−1
		// was opened by an earlier receiver. Together with the weak
		// rows this admits exactly the bindings whose buses are
		// labeled in order of their minimal member (empty buses last),
		// one representative per orbit of the k! bus permutations.
		// They are deliberately NOT emitted for feasibility probes: an
		// exhaustive optimality search profits from pruning symmetric
		// subtrees, but a first-feasible dive only needs ANY solution,
		// and the extra rows slow the dive several-fold.
		for i := 1; i < nT; i++ {
			for k := 1; k < nB && k <= i; k++ {
				terms := []lp.Term{{Var: x(i, k), Coef: 1}}
				for j := 0; j < i; j++ {
					terms = append(terms, lp.Term{Var: x(j, k-1), Coef: -1})
				}
				prob.LP.AddConstraint(lp.LE, 0, terms...)
			}
		}
	}

	return &Formulation{Problem: prob, NumBuses: nB, nT: nT, MaxovIdx: maxovIdx}
}

// Formulate builds the MILP for one candidate bus count. Callers that
// probe several bus counts for the same analysis should construct a
// Formulator once and use ForBusCount.
func Formulate(a *trace.Analysis, conflicts [][]bool, numBuses, maxPerBus int, optimize bool) *Formulation {
	return NewFormulator(a, conflicts, maxPerBus).ForBusCount(numBuses, optimize)
}

// Extract reads the receiver→bus binding out of a MILP solution.
func (f *Formulation) Extract(x []float64) ([]int, error) {
	busOf := make([]int, f.nT)
	for i := 0; i < f.nT; i++ {
		busOf[i] = -1
		for k := 0; k < f.NumBuses; k++ {
			if x[f.xIdx(i, k)] > 0.5 {
				if busOf[i] != -1 {
					return nil, fmt.Errorf("oracle: receiver %d bound to two buses", i)
				}
				busOf[i] = k
			}
		}
		if busOf[i] == -1 {
			return nil, fmt.Errorf("oracle: receiver %d unbound in MILP solution", i)
		}
	}
	return busOf, nil
}

// Probe solves the formulation for one bus count: the first feasible
// binding, or with optimize the binding of least maximum bus overlap.
// busOf is nil when the count is infeasible; nodes counts the MILP
// search nodes.
func (f *Formulator) Probe(ctx context.Context, numBuses int, optimize bool) (busOf []int, nodes int, err error) {
	fm := f.ForBusCount(numBuses, optimize)
	sol, err := milp.SolveCtx(ctx, fm.Problem, milp.Options{FirstFeasible: !optimize})
	if err != nil {
		return nil, 0, fmt.Errorf("oracle: MILP solve (%d buses): %w", numBuses, err)
	}
	if sol.Status != lp.Optimal {
		return nil, sol.Nodes, nil
	}
	busOf, err = fm.Extract(sol.X)
	return busOf, sol.Nodes, err
}
