package lp

import "math"

// boundedTableau is the bounded-variable simplex working state behind
// NodeSolver. rows holds B⁻¹A (no RHS column); basic values are carried
// in xB. Nonbasic variables sit at 0 (their lower bound) or at
// upper[j]. Two overlays carry a node's fix set without rewriting the
// constraint rows: noEnter marks columns that may never be chosen as an
// entering column (artificial variables and branch-fixed binaries), and
// fixVal pins a column to an exact value — its effective bounds
// collapse to [fixVal, fixVal].
//
// Row operations only keep the leading artStart columns current. The
// artificial columns are barred from entering for the solver's whole
// lifetime, so their tableau entries are dead — only their basis
// membership and xB values matter — and skipping them removes an
// m-sized block from every pivot's row arithmetic.
type boundedTableau struct {
	m, numCols int
	artStart   int
	rows       [][]float64
	xB         []float64
	basis      []int
	isBasic    []bool
	atUpper    []bool // for nonbasic columns
	upper      []float64
	noEnter    []bool    // columns barred from entering the basis
	fixVal     []float64 // NaN = free; otherwise the pinned value
	pivots     int64     // basis changes performed over the tableau's lifetime
	// interrupt, when non-nil, is polled every few simplex iterations;
	// returning true aborts the pass with ErrInterrupted. A single LP on
	// a large node can run for minutes, so without a pivot-level poll a
	// canceled caller (a losing portfolio contestant, say) would stay
	// wedged until the pass finished on its own.
	interrupt func() bool
}

// interruptCheckMask throttles the interrupt poll to every 64 simplex
// iterations: each iteration already costs O(m·artStart) row arithmetic,
// so the poll is noise, but checking every iteration would still put a
// branch + indirect call in the hottest loop for nothing.
const interruptCheckMask = 63

func (t *boundedTableau) interrupted(iter int) bool {
	return iter&interruptCheckMask == interruptCheckMask && t.interrupt != nil && t.interrupt()
}

// isFixed reports whether column j is pinned to an exact value.
func (t *boundedTableau) isFixed(j int) bool {
	return !math.IsNaN(t.fixVal[j])
}

// loCol / upCol are the effective bounds of column j: [0, upper[j]]
// normally, collapsed to the pinned value for fixed columns.
func (t *boundedTableau) loCol(j int) float64 {
	if t.isFixed(j) {
		return t.fixVal[j]
	}
	return 0
}

func (t *boundedTableau) upCol(j int) float64 {
	if t.isFixed(j) {
		return t.fixVal[j]
	}
	return t.upper[j]
}

// nbValue is the value a nonbasic column currently sits at.
func (t *boundedTableau) nbValue(j int) float64 {
	if t.atUpper[j] {
		return t.upper[j]
	}
	return 0
}

func (t *boundedTableau) barred(j int) bool {
	return t.noEnter[j]
}

func (t *boundedTableau) phase1Costs() []float64 {
	costs := make([]float64, t.numCols)
	for j := t.artStart; j < t.numCols; j++ {
		costs[j] = 1
	}
	return costs
}

func (t *boundedTableau) phase1Value() float64 {
	var v float64
	for i, bv := range t.basis {
		if bv >= t.artStart {
			v += t.xB[i]
		}
	}
	return v
}

// pinArtificials freezes artificial variables at zero after phase 1:
// nonbasic artificials get upper bound 0; basic ones (at level 0 after
// a feasible phase 1) are pivoted out where possible.
func (t *boundedTableau) pinArtificials() {
	for i := 0; i < t.m; i++ {
		if t.basis[i] < t.artStart {
			continue
		}
		// Degenerate pivot: swap in any nonbasic structural/slack
		// column; the entering variable keeps its current bound value
		// (the artificial leaves at level ≈ 0, so nothing moves).
		for j := 0; j < t.artStart; j++ {
			if !t.isBasic[j] && !t.barred(j) && math.Abs(t.rows[i][j]) > eps {
				val := 0.0
				if t.atUpper[j] {
					val = t.upper[j]
				}
				t.pivot(i, j, val)
				break
			}
		}
	}
	// Freeze every artificial at zero — including any still basic in a
	// redundant row, which the ratio test then holds at level 0.
	for j := t.artStart; j < t.numCols; j++ {
		t.upper[j] = 0
		t.atUpper[j] = false
	}
}

// run iterates bounded-variable pivots to optimality for the costs.
func (t *boundedTableau) run(costs []float64) error {
	maxIters := 1000 * (t.m + t.numCols + 10)
	blandAfter := 20 * (t.m + t.numCols + 10)
	if debugIterBudget > 0 {
		maxIters = debugIterBudget
	}
	z := make([]float64, t.numCols)
	refresh := func() {
		// z_j = c_j − c_B·B⁻¹A_j.
		cb := make([]float64, t.m)
		any := false
		for i, bv := range t.basis {
			cb[i] = costs[bv]
			if cb[i] != 0 {
				any = true
			}
		}
		for j := 0; j < t.artStart; j++ {
			v := costs[j]
			if any {
				for i := 0; i < t.m; i++ {
					if cb[i] != 0 {
						v -= cb[i] * t.rows[i][j]
					}
				}
			}
			z[j] = v
		}
	}
	refresh()
	const refreshEvery = 256

	// eligible reports whether nonbasic column j can improve the
	// objective, and the movement direction (+1 from lower, −1 from
	// upper).
	eligible := func(j int) (float64, bool) {
		if t.isBasic[j] || t.barred(j) {
			return 0, false
		}
		if !t.atUpper[j] && z[j] < -eps {
			return 1, true
		}
		if t.atUpper[j] && z[j] > eps {
			return -1, true
		}
		return 0, false
	}

	for iter := 0; iter < maxIters; iter++ {
		if t.interrupted(iter) {
			return ErrInterrupted
		}
		if iter%refreshEvery == refreshEvery-1 {
			refresh()
		}
		entering, dir := -1, 0.0
		if iter < blandAfter {
			best := eps
			for j := 0; j < t.artStart; j++ {
				if d, ok := eligible(j); ok && math.Abs(z[j]) > best {
					best = math.Abs(z[j])
					entering, dir = j, d
				}
			}
		} else {
			for j := 0; j < t.artStart; j++ {
				if d, ok := eligible(j); ok {
					entering, dir = j, d
					break
				}
			}
		}
		if entering == -1 {
			refresh()
			for j := 0; j < t.artStart; j++ {
				if d, ok := eligible(j); ok {
					entering, dir = j, d
					break
				}
			}
			if entering == -1 {
				return nil
			}
		}

		// Ratio test: the entering variable moves by step ≥ 0 in
		// direction dir; basic variable i changes by −dir·y_i·step.
		step := t.upper[entering] // bound-to-bound flip distance
		leaving := -1
		leavingToUpper := false
		for i := 0; i < t.m; i++ {
			y := t.rows[i][entering]
			if math.Abs(y) <= eps {
				continue
			}
			delta := -dir * y // d(xB_i)/d(step)
			var limit float64
			var hitsUpper bool
			if delta < 0 {
				limit = (t.xB[i] - t.loCol(t.basis[i])) / -delta // falls to its lower bound
				hitsUpper = false
			} else {
				ub := t.upCol(t.basis[i])
				if math.IsInf(ub, 1) {
					continue
				}
				limit = (ub - t.xB[i]) / delta // rises to its upper bound
				hitsUpper = true
			}
			if limit < -eps {
				limit = 0
			}
			if limit < step-eps || (limit < step+eps && (leaving == -1 || t.basis[i] < t.basis[leaving])) {
				if limit < 0 {
					limit = 0
				}
				step = limit
				leaving = i
				leavingToUpper = hitsUpper
			}
		}
		if math.IsInf(step, 1) {
			return errUnbounded
		}

		if leaving == -1 {
			// Bound-to-bound flip: the entering variable swaps bounds
			// without a basis change.
			for i := 0; i < t.m; i++ {
				t.xB[i] += -dir * t.rows[i][entering] * step
			}
			t.atUpper[entering] = !t.atUpper[entering]
			continue
		}

		// Update basic values, then pivot.
		for i := 0; i < t.m; i++ {
			t.xB[i] += -dir * t.rows[i][entering] * step
		}
		enterVal := 0.0
		if t.atUpper[entering] {
			enterVal = t.upper[entering]
		}
		enterVal += dir * step

		leavingCol := t.basis[leaving]
		t.pivot(leaving, entering, enterVal)
		t.atUpper[leavingCol] = leavingToUpper

		// Maintain the price row.
		f := z[entering]
		if f != 0 {
			row := t.rows[leaving]
			for j := 0; j < t.artStart; j++ {
				z[j] -= f * row[j]
			}
			z[entering] = 0
		}
	}
	return ErrIterationLimit
}

// pivot makes column e basic in row l with value val.
func (t *boundedTableau) pivot(l, e int, val float64) {
	t.pivots++
	leavingCol := t.basis[l]
	row := t.rows[l]
	inv := 1.0 / row[e]
	for j := 0; j < t.artStart; j++ {
		row[j] *= inv
	}
	row[e] = 1
	for i := 0; i < t.m; i++ {
		if i == l {
			continue
		}
		f := t.rows[i][e]
		if f == 0 {
			continue
		}
		other := t.rows[i]
		for j := 0; j < t.artStart; j++ {
			other[j] -= f * row[j]
		}
		other[e] = 0
	}
	t.isBasic[leavingCol] = false
	t.isBasic[e] = true
	t.basis[l] = e
	t.xB[l] = val
}
