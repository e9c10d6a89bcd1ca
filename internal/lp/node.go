package lp

import (
	"errors"
	"fmt"
	"math"
)

// Fix pins one variable to an exact value for a node solve.
type Fix struct {
	Var int
	Val float64
}

// NodeSolver solves the family of LP relaxations that a branch-and-
// bound search derives from one base problem: the constraint matrix,
// senses and bounds never change, only a per-node set of variable
// fixings does. Solve(nil) on a fresh solver is the plain cold
// two-phase bounded simplex; later solves avoid the two per-node costs
// of re-solving every relaxation from scratch:
//
//   - Allocation: the tableau, basis, price row and solution buffers
//     are owned by the solver and reused across every node.
//   - Cold starts: after a solve, the tableau holds an optimal basis.
//     The next node's fixings are applied as bound shifts on nonbasic
//     columns (or left to a dual-simplex pass when the variable is
//     basic), and feasibility is restored by dual-simplex pivots from
//     the previous basis instead of re-running Phase 1 from scratch.
//
// Warm starts are strictly an optimization: any numerical trouble
// (stalled dual pass, iteration limit) falls back to a cold two-phase
// solve of the same node, and every 64th warm solve is re-anchored
// with a cold solve to bound drift of the incrementally maintained
// tableau. Results are deterministic for a given call sequence.
//
// The returned Solution's X slice is owned by the solver and is only
// valid until the next Solve call; callers keep what they need by
// copying.
type NodeSolver struct {
	p     *Problem
	n     int // structural variables
	m     int // constraint rows
	upper []float64

	// Immutable base image, built once.
	baseRows [][]float64 // m × n structural coefficients (dense)
	baseRHS  []float64
	sense    []Sense
	slackCol []int // per row; -1 for EQ rows
	artCol   []int // per row: every row owns an artificial column
	numCols  int
	artStart int

	// Scratch state reused across solves.
	t       boundedTableau
	costs   []float64 // phase-2 cost row over all columns
	z       []float64
	cb      []float64
	xOut    []float64
	ready   bool // scratch holds a consistent basis to warm-start from
	sinceRe int  // warm solves since the last cold re-anchor
	fixed   []int
	mark    []int
	markVal []float64
	epoch   int

	// Per-dual-pass flip accounting (see dualSimplex).
	flipMark  []int
	flipCnt   []int
	flipEpoch int

	// Interrupt, when set, is polled every few pivots of every simplex
	// pass; returning true makes the in-flight Solve return
	// ErrInterrupted promptly instead of running the pass to completion
	// (a single pass on a large node can take minutes). Callers set it
	// once after construction — typically to a context-cancellation
	// check — and must not change it while a Solve is in flight.
	Interrupt func() bool
	stopped   bool // an interrupt fired during the current Solve

	// Stats observe how many node solves took each path.
	warm, cold int64
	dualPivots int64
}

// resyncEvery bounds how many consecutive warm solves may reuse the
// incrementally updated tableau before a cold solve re-anchors it
// against numerical drift.
const resyncEvery = 64

// NewNodeSolver validates p and precomputes the dense base image the
// per-node tableau is rebuilt from. upper[j] bounds variable j from
// above: nil means all variables unbounded, and math.Inf(1) entries
// are unbounded variables.
func NewNodeSolver(p *Problem, upper []float64) (*NodeSolver, error) {
	if p.NumVars < 0 {
		return nil, errors.New("lp: negative variable count")
	}
	if p.Objective != nil && len(p.Objective) != p.NumVars {
		return nil, fmt.Errorf("lp: objective has %d coefficients, want %d", len(p.Objective), p.NumVars)
	}
	if upper != nil && len(upper) != p.NumVars {
		return nil, fmt.Errorf("lp: upper has %d entries, want %d", len(upper), p.NumVars)
	}
	for _, c := range p.Constraints {
		for _, t := range c.Terms {
			if t.Var < 0 || t.Var >= p.NumVars {
				return nil, fmt.Errorf("lp: constraint references variable %d outside [0,%d)", t.Var, p.NumVars)
			}
		}
	}
	n := p.NumVars
	m := len(p.Constraints)
	s := &NodeSolver{
		p:        p,
		n:        n,
		m:        m,
		upper:    make([]float64, n),
		baseRows: make([][]float64, m),
		baseRHS:  make([]float64, m),
		sense:    make([]Sense, m),
		slackCol: make([]int, m),
		artCol:   make([]int, m),
	}
	for j := 0; j < n; j++ {
		s.upper[j] = math.Inf(1)
	}
	if upper != nil {
		copy(s.upper, upper)
		for j, u := range upper {
			if u < 0 {
				return nil, fmt.Errorf("lp: negative upper bound on variable %d", j)
			}
		}
	}
	// Column layout: structural | slack/surplus (LE and GE rows) |
	// artificial (every row). Giving every row an artificial keeps the
	// column layout identical for every node, whatever sign the fixed
	// variables push a row's effective RHS to.
	col := n
	backing := make([]float64, m*n)
	for i, c := range p.Constraints {
		row := backing[i*n : (i+1)*n]
		for _, term := range c.Terms {
			row[term.Var] += term.Coef
		}
		s.baseRows[i] = row
		s.baseRHS[i] = c.RHS
		s.sense[i] = c.Sense
		if c.Sense == EQ {
			s.slackCol[i] = -1
		} else {
			s.slackCol[i] = col
			col++
		}
	}
	s.artStart = col
	for i := range p.Constraints {
		s.artCol[i] = col
		col++
	}
	s.numCols = col

	// Scratch tableau and buffers.
	t := &s.t
	t.m = m
	t.numCols = col
	t.artStart = s.artStart
	t.rows = make([][]float64, m)
	tb := make([]float64, m*col)
	for i := 0; i < m; i++ {
		t.rows[i] = tb[i*col : (i+1)*col]
	}
	t.xB = make([]float64, m)
	t.basis = make([]int, m)
	t.isBasic = make([]bool, col)
	t.atUpper = make([]bool, col)
	t.upper = make([]float64, col)
	t.noEnter = make([]bool, col)
	t.fixVal = make([]float64, col)

	s.costs = make([]float64, col)
	if p.Objective != nil {
		copy(s.costs[:n], p.Objective)
	} else {
		// A problem with no objective is fully dual-degenerate: every
		// dual-simplex ratio ties at zero and the warm-restart pass has
		// no progress measure, so it wanders (classical cycling on
		// degenerate polytopes). Since any feasible point is acceptable,
		// steer the simplex with a small deterministic perturbation
		// objective instead. Positive costs on bounded-below columns
		// keep phase 2 bounded; reported Solution.Objective still comes
		// from p.Objective, so callers observe a zero objective.
		for j := 0; j < n; j++ {
			h := uint64(j)*0x9e3779b97f4a7c15 + 0x632be59bd9b4e019
			h ^= h >> 29
			s.costs[j] = 1e-3 * (1 + float64(h%4096)/4096)
		}
	}
	s.z = make([]float64, col)
	s.cb = make([]float64, m)
	s.xOut = make([]float64, n)
	s.mark = make([]int, n)
	s.markVal = make([]float64, n)
	s.flipMark = make([]int, col)
	s.flipCnt = make([]int, col)
	return s, nil
}

// Stats reports how many node solves ran warm (dual-simplex restart
// from the previous basis) and cold (full two-phase solve).
func (s *NodeSolver) Stats() (warm, cold int64) { return s.warm, s.cold }

// DualPivots reports the total dual-simplex pivots across all warm
// solves — the per-node work metric the warm start exists to shrink.
func (s *NodeSolver) DualPivots() int64 { return s.dualPivots }

// Solve optimizes the base problem with the given variables pinned.
// Fixing values must lie within the variable's [0, upper] range; for
// the MILP use they are always 0 or 1. The fixes slice is not retained.
//
// The solver warm-starts from the basis of the previous Solve call
// whenever it can and silently falls back to a cold two-phase solve
// otherwise, so callers may pass any fix set in any order.
func (s *NodeSolver) Solve(fixes []Fix) (*Solution, error) {
	for _, fx := range fixes {
		if fx.Var < 0 || fx.Var >= s.n {
			return nil, fmt.Errorf("lp: fix references variable %d outside [0,%d)", fx.Var, s.n)
		}
		if fx.Val < -eps || fx.Val > s.upper[fx.Var]+eps {
			return nil, fmt.Errorf("lp: fix pins variable %d to %v outside [0,%v]", fx.Var, fx.Val, s.upper[fx.Var])
		}
	}
	before := s.t.pivots
	s.t.interrupt = s.Interrupt
	s.stopped = false
	if s.ready && s.sinceRe < resyncEvery {
		if sol, ok := s.solveWarm(fixes); ok {
			s.warm++
			s.sinceRe++
			sol.Iterations = s.t.pivots - before
			return sol, nil
		}
		if s.stopped {
			// An interrupted warm pass must not fall back to a cold solve
			// — the caller asked to stop, not to try harder. ready is
			// already false, so the next Solve re-anchors cold.
			return nil, ErrInterrupted
		}
	}
	s.cold++
	s.sinceRe = 0
	sol, err := s.solveCold(fixes)
	if sol != nil {
		sol.Iterations = s.t.pivots - before
	}
	return sol, err
}

// --- warm path ---

// solveWarm transforms the scratch tableau from the previous node's
// fix set to the requested one, restores primal feasibility with dual
// simplex, and (when there is an objective) re-optimizes with primal
// phase-2 pivots. ok=false means the caller must fall back to a cold
// solve; the scratch state is then rebuilt from the base image, so no
// consistency is lost.
func (s *NodeSolver) solveWarm(fixes []Fix) (*Solution, bool) {
	t := &s.t
	// Diff the live fix set against the requested one.
	s.epoch++
	for _, fx := range fixes {
		s.mark[fx.Var] = s.epoch
		s.markVal[fx.Var] = fx.Val
	}
	keep := s.fixed[:0]
	for _, v := range s.fixed {
		if s.mark[v] != s.epoch {
			// Unfix: the column keeps its current value (fixVal when
			// nonbasic — the atUpper flag of a fixed column is not
			// trustworthy, pivots set it from collapsed bounds), so the
			// point stays consistent; only its bounds relax.
			if !t.isBasic[v] {
				t.atUpper[v] = t.fixVal[v] == t.upper[v] && t.fixVal[v] != 0
			}
			t.fixVal[v] = math.NaN()
			t.noEnter[v] = false
			continue
		}
		keep = append(keep, v)
		if want := s.markVal[v]; t.fixVal[v] != want {
			s.shiftFixed(v, want)
		}
	}
	s.fixed = keep
	for _, fx := range fixes {
		if t.isFixed(fx.Var) {
			continue
		}
		t.noEnter[fx.Var] = true
		s.shiftFixed(fx.Var, fx.Val)
		s.fixed = append(s.fixed, fx.Var)
	}

	// Restore primal feasibility from the shifted basis.
	s.refreshZ()
	switch s.dualSimplex() {
	case dualInfeasible:
		return &Solution{Status: Infeasible}, true
	case dualStalled:
		s.ready = false
		return nil, false
	case dualInterrupted:
		s.ready = false
		s.stopped = true
		return nil, false
	}
	// Dual pivots restored feasibility; primal phase-2 pivots from this
	// (feasible) basis restore optimality — which also keeps the basis
	// dual feasible for the NEXT node's dual pass. Phase 1 is skipped
	// entirely; that is the point of the warm start.
	if err := t.run(s.costs); err != nil {
		if errors.Is(err, errUnbounded) {
			return &Solution{Status: Unbounded}, true
		}
		if errors.Is(err, ErrInterrupted) {
			s.stopped = true
		}
		s.ready = false
		return nil, false
	}
	return s.extract(), true
}

// shiftFixed pins column v to val. Nonbasic columns move in a single
// bound shift (xB absorbs the move through the current B⁻¹A column);
// basic columns are only re-pinned — the next dual-simplex pass prices
// them out toward the pinned value.
func (s *NodeSolver) shiftFixed(v int, val float64) {
	t := &s.t
	if !t.isBasic[v] {
		cur := t.nbValue(v)
		if t.isFixed(v) {
			cur = t.fixVal[v]
		}
		if d := val - cur; d != 0 {
			col := v
			for i := 0; i < t.m; i++ {
				if y := t.rows[i][col]; y != 0 {
					t.xB[i] -= y * d
				}
			}
		}
		t.atUpper[v] = val == t.upper[v] && val != 0
	}
	t.fixVal[v] = val
}

type dualStatus int

const (
	dualFeasible dualStatus = iota
	dualInfeasible
	dualStalled
	dualInterrupted
)

// dualSimplex pivots until every basic variable is back inside its
// effective bounds. Leaving row: largest violation (ties: smallest row
// index). Entering column: smallest |z_j|/|a_lj| among sign-admissible
// nonbasic columns (ties: smallest column index), which preserves dual
// feasibility when the starting basis is dual feasible — in particular
// always for the zero objective of the feasibility MILPs. A row with
// no admissible column proves the node infeasible. The pass gives up
// (dualStalled) after a budget proportional to the tableau size; the
// caller then re-solves cold, so correctness never depends on it.
func (s *NodeSolver) dualSimplex() dualStatus {
	t := &s.t
	const feasTol = 1e-7
	maxIters := 2 * (t.m + t.numCols + 100)
	if debugDualBudget > 0 {
		maxIters = debugDualBudget
	}
	// Bound flips carry no progress measure: a flip changes neither the
	// basis nor the dual objective, so flips alone can ping-pong between
	// rows forever (pivots cannot — each strictly improves the perturbed
	// dual objective). Each column therefore gets at most two flips per
	// pass; beyond that it is pass-locally retired from entering, which
	// forces real pivots. The retirement is tracked with the solver's
	// epoch trick so no per-pass clearing is needed.
	s.flipEpoch++
	barredByFlips := false
	for iter := 0; iter < maxIters; iter++ {
		if t.interrupted(iter) {
			return dualInterrupted
		}
		// Most-violated basic variable.
		l, worst, above := -1, feasTol, false
		for i := 0; i < t.m; i++ {
			b := t.basis[i]
			if d := t.loCol(b) - t.xB[i]; d > worst {
				l, worst, above = i, d, false
			}
			if d := t.xB[i] - t.upCol(b); d > worst {
				l, worst, above = i, d, true
			}
		}
		if l == -1 {
			return dualFeasible
		}
		target := t.loCol(t.basis[l])
		if above {
			target = t.upCol(t.basis[l])
		}
		need := t.xB[l] - target
		row := t.rows[l]
		entering := -1
		bestRatio := math.Inf(1)
		bestMag := 0.0
		for j := 0; j < t.artStart; j++ {
			if t.isBasic[j] || t.barred(j) || t.isFixed(j) {
				continue
			}
			a := row[j]
			if a > -eps && a < eps {
				continue
			}
			// Below its lower bound the basic variable must rise, above
			// its upper bound it must fall; which nonbasic moves help
			// depends on their own bound side.
			var admissible bool
			if !above {
				admissible = (!t.atUpper[j] && a < 0) || (t.atUpper[j] && a > 0)
			} else {
				admissible = (!t.atUpper[j] && a > 0) || (t.atUpper[j] && a < 0)
			}
			if !admissible {
				continue
			}
			if s.flipMark[j] == s.flipEpoch && s.flipCnt[j] >= 2 {
				// Flip-retired this pass. An admissible column was skipped,
				// so an empty scan below is a stall, not an infeasibility
				// certificate.
				barredByFlips = true
				continue
			}
			mag := math.Abs(a)
			ratio := math.Abs(s.z[j]) / mag
			// Strictly smallest reduced-cost ratio: the textbook dual
			// ratio test, which preserves dual feasibility of the basis —
			// so the primal clean-up pass after this one has (near)
			// nothing left to do. The cost perturbation installed by
			// NewNodeSolver for objective-free problems keeps the ratios
			// distinct, so ties are rare; break them toward the largest
			// pivot magnitude for numerical stability.
			better := ratio < bestRatio-eps
			if !better && ratio < bestRatio+eps {
				better = mag > bestMag
			}
			if better {
				bestRatio = ratio
				bestMag = mag
				entering = j
			}
		}
		if entering == -1 {
			if barredByFlips {
				return dualStalled
			}
			return dualInfeasible
		}
		delta := need / row[entering]
		// Bound flip: the admissibility rules make delta move the
		// entering column into its range, but if the full pivot would
		// overshoot its opposite bound, move it bound-to-bound instead —
		// an O(m) update with no basis change that still shrinks the
		// violation. Without this, every overshoot manufactures a fresh
		// violation and the pass zigzags.
		if rng := t.upCol(entering) - t.loCol(entering); !math.IsInf(rng, 1) && math.Abs(delta) > rng+eps {
			d := rng
			if delta < 0 {
				d = -rng
			}
			if d != 0 {
				for i := 0; i < t.m; i++ {
					if y := t.rows[i][entering]; y != 0 {
						t.xB[i] -= y * d
					}
				}
			}
			t.atUpper[entering] = !t.atUpper[entering]
			if s.flipMark[entering] != s.flipEpoch {
				s.flipMark[entering] = s.flipEpoch
				s.flipCnt[entering] = 0
			}
			s.flipCnt[entering]++
			continue
		}
		enterVal := t.nbValue(entering) + delta
		for i := 0; i < t.m; i++ {
			if i == l {
				continue
			}
			if y := t.rows[i][entering]; y != 0 {
				t.xB[i] -= y * delta
			}
		}
		leavingCol := t.basis[l]
		s.dualPivots++
		t.pivot(l, entering, enterVal)
		if t.isFixed(leavingCol) {
			t.atUpper[leavingCol] = t.fixVal[leavingCol] == t.upper[leavingCol] && t.fixVal[leavingCol] != 0
		} else {
			t.atUpper[leavingCol] = above
		}
		// Maintain the price row across the pivot.
		if f := s.z[entering]; f != 0 {
			nrow := t.rows[l]
			for j := 0; j < t.artStart; j++ {
				s.z[j] -= f * nrow[j]
			}
			s.z[entering] = 0
		}
	}
	return dualStalled
}

// refreshZ recomputes the reduced-cost row for the phase-2 costs.
func (s *NodeSolver) refreshZ() {
	t := &s.t
	cb := s.cb
	any := false
	for i, bv := range t.basis {
		cb[i] = s.costs[bv]
		if cb[i] != 0 {
			any = true
		}
	}
	for j := 0; j < t.artStart; j++ {
		v := s.costs[j]
		if any {
			for i := 0; i < t.m; i++ {
				if cb[i] != 0 {
					v -= cb[i] * t.rows[i][j]
				}
			}
		}
		s.z[j] = v
	}
}

// --- cold path ---

// solveCold rebuilds the tableau from the base image with the fixings
// folded in and runs the ordinary two-phase bounded simplex.
func (s *NodeSolver) solveCold(fixes []Fix) (*Solution, error) {
	t := &s.t
	s.ready = false

	// Reset column state.
	for j := 0; j < t.numCols; j++ {
		t.isBasic[j] = false
		t.atUpper[j] = false
		t.noEnter[j] = false
		t.fixVal[j] = math.NaN()
		t.upper[j] = math.Inf(1)
	}
	copy(t.upper, s.upper)
	for j := s.artStart; j < t.numCols; j++ {
		t.noEnter[j] = true // artificials may leave but never re-enter
	}
	s.fixed = s.fixed[:0]
	for _, fx := range fixes {
		t.fixVal[fx.Var] = fx.Val
		t.noEnter[fx.Var] = true
		t.atUpper[fx.Var] = fx.Val == t.upper[fx.Var] && fx.Val != 0
		s.fixed = append(s.fixed, fx.Var)
	}

	// Rebuild rows. Each row is normalized so the initial basic column
	// (slack where possible, artificial otherwise) has coefficient +1
	// and a non-negative starting value, accounting for the fixed
	// variables' contributions.
	anyArt := false
	for i := 0; i < t.m; i++ {
		row := t.rows[i]
		copy(row[:s.n], s.baseRows[i])
		for j := s.n; j < t.artStart; j++ {
			row[j] = 0
		}
		eff := s.baseRHS[i]
		for _, fx := range fixes {
			if fx.Val != 0 {
				eff -= row[fx.Var] * fx.Val
			}
		}
		sense := s.sense[i]
		if eff < 0 {
			for j := 0; j < s.n; j++ {
				row[j] = -row[j]
			}
			eff = -eff
			switch sense {
			case LE:
				sense = GE
			case GE:
				sense = LE
			}
		}
		if sc := s.slackCol[i]; sc >= 0 {
			if sense == LE {
				row[sc] = 1
			} else {
				row[sc] = -1
			}
		}
		// The artificial's unit coefficient is implied: its column lies
		// beyond t.artStart and is never read, so only basis/xB record it.
		if sense == LE {
			t.basis[i] = s.slackCol[i]
		} else {
			t.basis[i] = s.artCol[i]
			anyArt = true
		}
		t.xB[i] = eff
		t.isBasic[t.basis[i]] = true
	}

	// Phase 1: price out the artificial columns.
	if anyArt {
		if err := t.run(t.phase1Costs()); err != nil {
			if errors.Is(err, errUnbounded) {
				// Phase 1 is bounded below by zero; treat as numerical
				// trouble rather than misreporting the problem.
				return nil, ErrIterationLimit
			}
			return nil, err
		}
		if t.phase1Value() > 1e-7 {
			// Infeasible node. Do NOT pinArtificials here: its degenerate
			// pivots assume artificial levels ≈ 0, and pivoting out a
			// positive-level artificial would desynchronize xB from the
			// tableau. Clamping the artificial bounds to zero keeps the
			// state point-consistent; the residual basic artificials are
			// then plain bound violations, exactly what the next node's
			// warm dual-simplex pass knows how to repair (or turn into an
			// infeasibility certificate).
			for j := s.artStart; j < t.numCols; j++ {
				t.upper[j] = 0
				t.atUpper[j] = false
			}
			s.ready = true
			s.refreshZ()
			return &Solution{Status: Infeasible}, nil
		}
		t.pinArtificials()
	} else {
		for j := s.artStart; j < t.numCols; j++ {
			t.upper[j] = 0
		}
	}

	// Phase 2.
	if err := t.run(s.costs); err != nil {
		if errors.Is(err, errUnbounded) {
			return &Solution{Status: Unbounded}, nil
		}
		return nil, err
	}
	s.ready = true
	s.refreshZ()
	return s.extract(), nil
}

// extract reads the current tableau into the reusable Solution.
func (s *NodeSolver) extract() *Solution {
	t := &s.t
	x := s.xOut
	for j := 0; j < s.n; j++ {
		switch {
		case t.isFixed(j) && !t.isBasic[j]:
			x[j] = t.fixVal[j]
		case !t.isBasic[j] && t.atUpper[j]:
			x[j] = t.upper[j]
		default:
			x[j] = 0
		}
	}
	for i, bv := range t.basis {
		if bv < s.n {
			x[bv] = t.xB[i]
		}
	}
	var obj float64
	if s.p.Objective != nil {
		for j := 0; j < s.n; j++ {
			obj += s.p.Objective[j] * x[j]
		}
	}
	return &Solution{Status: Optimal, X: x, Objective: obj}
}
