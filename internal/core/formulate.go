package core

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"repro/internal/ds"
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
	// xIdx maps (receiver, bus) to the x variable index.
	xIdx func(i, k int) int
	// MaxovIdx is the maxov variable index, or -1 in feasibility mode.
	MaxovIdx int

	// Retained for Inject: the materialized sharing pairs, their
	// variable index mappings, and the aggregate overlap matrix.
	pairs []pairIJ
	sbIdx func(p, k int) int
	sIdx  func(p int) int
	om    *ds.SymMatrix
}

type pairIJ struct{ i, j int }

// Formulator caches the bus-count-independent skeleton of the MILP
// formulation for one analysis: the Pareto-reduced window set and the
// sharing-pair selections. A design run probes several bus counts
// against the same analysis, and ForBusCount only materializes the
// bus-count-dependent constraint rows. The pair selections are built
// lazily under sync.Once: a canceled portfolio contestant can still be
// reading them when the next probe starts.
type Formulator struct {
	a         *trace.Analysis
	conflicts [][]bool
	maxPerBus int

	// The reduced windows (reduceWindows): ws[k] is window k's length
	// and comm[i][k] receiver i's load in it. busyWindows counts the
	// reduced windows with traffic, each of which is one Eq. 4 row per
	// bus.
	ws          []int64
	comm        [][]int64
	busyWindows int

	// Pair selection differs between feasibility (conflict pairs only)
	// and binding (plus positive-overlap pairs); index by optimize.
	oncePairs [2]sync.Once
	pairs     [2][]pairIJ
}

// NewFormulator prepares the shared skeleton for the given analysis
// and conflict matrix. The pair selections are computed on first use
// and reused by every subsequent ForBusCount call.
func NewFormulator(a *trace.Analysis, conflicts [][]bool, maxPerBus int) *Formulator {
	return newAssignProblem(a, conflicts, maxPerBus, 0).formulator(a)
}

// formulator builds the Formulator over the window reduction p already
// holds; a is the analysis p was built from.
func (p *assignProblem) formulator(a *trace.Analysis) *Formulator {
	f := &Formulator{a: a, conflicts: p.conflict, maxPerBus: p.maxPerBus, ws: p.ws, comm: p.comm}
	for k := range p.ws {
		for i := range p.comm {
			if p.comm[i][k] > 0 {
				f.busyWindows++
				break
			}
		}
	}
	return f
}

func (f *Formulator) pairsFor(optimize bool) []pairIJ {
	idx := 0
	if optimize {
		idx = 1
	}
	f.oncePairs[idx].Do(func() {
		nT := f.a.NumReceivers
		var pairs []pairIJ
		for i := 0; i < nT; i++ {
			for j := i + 1; j < nT; j++ {
				if f.conflicts[i][j] || (optimize && f.a.OM.At(i, j) > 0) {
					pairs = append(pairs, pairIJ{i, j})
				}
			}
		}
		f.pairs[idx] = pairs
	})
	return f.pairs[idx]
}

// ForBusCount materializes the MILP for one candidate bus count. The
// windowed bandwidth constraints use the Pareto-reduced window set
// (dominated windows cannot be binding).
func (f *Formulator) ForBusCount(numBuses int, optimize bool) *Formulation {
	a := f.a
	nT := a.NumReceivers
	nB := numBuses
	pairs := f.pairsFor(optimize)

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

	// Eq. 4: per-window per-bus bandwidth.
	for wi, ws := range f.ws {
		for k := 0; k < nB; k++ {
			var terms []lp.Term
			for i := 0; i < nT; i++ {
				if c := f.comm[i][wi]; c > 0 {
					terms = append(terms, lp.Term{Var: x(i, k), Coef: float64(c)})
				}
			}
			if len(terms) > 0 {
				prob.LP.AddConstraint(lp.LE, float64(ws), terms...)
			}
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
		// and on the benchprobs instances the extra rows slow the dive
		// several-fold (12 receivers: 27 vs 6 nodes; 32 receivers: 35
		// vs 6).
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

	return &Formulation{
		Problem:  prob,
		NumBuses: nB,
		nT:       nT,
		xIdx:     x,
		MaxovIdx: maxovIdx,
		pairs:    pairs,
		sbIdx:    sb,
		sIdx:     sv,
		om:       a.OM,
	}
}

// size returns the constraint and variable counts of
// ForBusCount(numBuses, optimize) without building it.
func (f *Formulator) size(numBuses int, optimize bool) (rows, cols int) {
	nT, nB := f.a.NumReceivers, numBuses
	pairs := f.pairsFor(optimize)
	cols = nT*nB + len(pairs)*nB + len(pairs)
	rows = nT + f.busyWindows*nB + 2*len(pairs)*nB + len(pairs) // Eq. 3–6
	for _, pr := range pairs {
		if f.conflicts[pr.i][pr.j] {
			rows++ // Eq. 7
		}
	}
	if f.maxPerBus < nT {
		rows += nB // Eq. 8
	}
	for i := 0; i < nT && i < nB; i++ {
		rows += nB - i - 1 // weak symmetry rows
	}
	if optimize {
		cols++ // maxov
		for _, pr := range pairs {
			if f.a.OM.At(pr.i, pr.j) > 0 {
				rows += nB // Eq. 11
				break
			}
		}
		for i := 1; i < nT; i++ {
			rows += min(nB-1, i) // canonical-ordering rows
		}
	}
	return rows, cols
}

// Inject converts a receiver→bus binding into a complete solution
// vector for this formulation, suitable as milp.Options.Incumbent. The
// binding is relabeled to the canonical bus ordering (buses numbered by
// first appearance in receiver order) so the vector satisfies the
// symmetry-breaking rows; relabeling changes neither feasibility nor
// the maxov objective, which is invariant under bus permutation. Only
// the shape is validated here — constraint satisfaction is the MILP
// solver's job (it re-checks any incumbent before trusting it).
func (f *Formulation) Inject(busOf []int) ([]float64, error) {
	if len(busOf) != f.nT {
		return nil, fmt.Errorf("core: binding covers %d receivers, formulation has %d", len(busOf), f.nT)
	}
	relabel := make([]int, f.NumBuses)
	for k := range relabel {
		relabel[k] = -1
	}
	canon := make([]int, f.nT)
	next := 0
	for i, b := range busOf {
		if b < 0 || b >= f.NumBuses {
			return nil, fmt.Errorf("core: receiver %d on bus %d outside [0,%d)", i, b, f.NumBuses)
		}
		if relabel[b] == -1 {
			relabel[b] = next
			next++
		}
		canon[i] = relabel[b]
	}
	x := make([]float64, f.Problem.LP.NumVars)
	for i, k := range canon {
		x[f.xIdx(i, k)] = 1
	}
	per := make([]int64, f.NumBuses)
	for p, pr := range f.pairs {
		if canon[pr.i] != canon[pr.j] {
			continue
		}
		k := canon[pr.i]
		x[f.sbIdx(p, k)] = 1
		x[f.sIdx(p)] = 1
		per[k] += f.om.At(pr.i, pr.j)
	}
	if f.MaxovIdx >= 0 {
		var maxov int64
		for _, v := range per {
			if v > maxov {
				maxov = v
			}
		}
		x[f.MaxovIdx] = float64(maxov)
	}
	return x, nil
}

// Formulate builds the MILP for one candidate bus count. Callers that
// probe several bus counts for the same analysis should construct a
// Formulator once and use ForBusCount, which reuses the
// analysis-dependent skeleton.
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
					return nil, fmt.Errorf("core: receiver %d bound to two buses", i)
				}
				busOf[i] = k
			}
		}
		if busOf[i] == -1 {
			return nil, fmt.Errorf("core: receiver %d unbound in MILP solution", i)
		}
	}
	return busOf, nil
}

// solveFormulated runs one bus-count probe against a shared
// Formulator. A cancellation of the underlying MILP search is
// re-labeled with the design-path sentinel so errors.Is(err,
// ErrCanceled) holds for every engine.
func solveFormulated(ctx context.Context, fr *Formulator, numBuses int, optimize bool, solver milp.Options) (*assignResult, error) {
	f := fr.ForBusCount(numBuses, optimize)
	solver.FirstFeasible = !optimize
	sol, err := milp.SolveCtx(ctx, f.Problem, solver)
	if err != nil {
		if errors.Is(err, milp.ErrCanceled) {
			return nil, fmt.Errorf("core: MILP solve (%d buses): %w: %w", numBuses, ErrCanceled, err)
		}
		return nil, fmt.Errorf("core: MILP solve (%d buses): %w", numBuses, err)
	}
	res := &assignResult{nodes: int64(sol.Nodes)}
	if sol.Status != lp.Optimal {
		return res, nil // infeasible for this bus count
	}
	busOf, err := f.Extract(sol.X)
	if err != nil {
		return nil, err
	}
	res.feasible = true
	res.busOf = busOf
	res.maxOverlap = MaxOverlapOfMatrix(fr.a.OM, numBuses, busOf)
	return res, nil
}

// solveMILP runs the MILP formulation for one bus count with
// a fresh Formulator — the compatibility entry point for callers that
// probe a single count.
func solveMILP(ctx context.Context, a *trace.Analysis, conflicts [][]bool, numBuses, maxPerBus int, optimize bool) (*assignResult, error) {
	fr := NewFormulator(a, conflicts, maxPerBus)
	return solveFormulated(ctx, fr, numBuses, optimize, milp.Options{})
}
