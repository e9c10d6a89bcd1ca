package lp

import (
	"errors"
	"fmt"
	"math"
)

// denseSolve is the dense two-phase tableau simplex on p, with upper
// bounds expressed as explicit constraint rows. It shares no code with
// the bounded-variable NodeSolver beyond the Problem types, which makes
// it the independent reference the NodeSolver tests check against.
func denseSolve(p *Problem) (*Solution, error) {
	if p.NumVars < 0 {
		return nil, errors.New("lp: negative variable count")
	}
	if p.Objective != nil && len(p.Objective) != p.NumVars {
		return nil, fmt.Errorf("lp: objective has %d coefficients, want %d", len(p.Objective), p.NumVars)
	}
	for _, c := range p.Constraints {
		for _, t := range c.Terms {
			if t.Var < 0 || t.Var >= p.NumVars {
				return nil, fmt.Errorf("lp: constraint references variable %d outside [0,%d)", t.Var, p.NumVars)
			}
		}
	}

	t := newTableau(p)
	// Phase 1: minimize the sum of artificial variables.
	if t.numArtificial > 0 {
		if err := t.runSimplex(t.phase1Costs()); err != nil {
			return nil, err
		}
		if t.objectiveValue(t.phase1Costs()) > 1e-7 {
			return &Solution{Status: Infeasible}, nil
		}
		t.driveOutArtificials()
	}
	// Phase 2: minimize the real objective.
	costs := make([]float64, t.numCols)
	for j := 0; j < p.NumVars && p.Objective != nil; j++ {
		costs[j] = p.Objective[j]
	}
	if err := t.runSimplex(costs); err != nil {
		if errors.Is(err, errUnbounded) {
			return &Solution{Status: Unbounded}, nil
		}
		return nil, err
	}
	x := make([]float64, p.NumVars)
	for i, bv := range t.basis {
		if bv < p.NumVars {
			x[bv] = t.rhs(i)
		}
	}
	var obj float64
	for j := 0; j < p.NumVars && p.Objective != nil; j++ {
		obj += p.Objective[j] * x[j]
	}
	return &Solution{Status: Optimal, X: x, Objective: obj}, nil
}

// tableau is the dense simplex working state: m constraint rows over
// structural + slack/surplus + artificial columns, plus the RHS column.
type tableau struct {
	m, numCols    int // numCols excludes the RHS column
	numStructural int
	numArtificial int
	rows          [][]float64 // m rows, each numCols+1 wide (last = RHS)
	basis         []int       // basis[i] = column basic in row i
	artStart      int         // first artificial column index
}

func (t *tableau) rhs(i int) float64 { return t.rows[i][t.numCols] }

func newTableau(p *Problem) *tableau {
	m := len(p.Constraints)
	// Count auxiliary columns.
	numSlack := 0
	numArt := 0
	for _, c := range p.Constraints {
		rhs, sense := c.RHS, c.Sense
		if rhs < 0 {
			// Normalizing to a non-negative RHS flips the sense.
			switch sense {
			case LE:
				sense = GE
			case GE:
				sense = LE
			}
		}
		switch sense {
		case LE:
			numSlack++ // slack enters the basis directly
		case GE:
			numSlack++ // surplus
			numArt++
		case EQ:
			numArt++
		}
	}
	numCols := p.NumVars + numSlack + numArt
	t := &tableau{
		m:             m,
		numCols:       numCols,
		numStructural: p.NumVars,
		numArtificial: numArt,
		rows:          make([][]float64, m),
		basis:         make([]int, m),
		artStart:      p.NumVars + numSlack,
	}
	slackCol := p.NumVars
	artCol := t.artStart
	for i, c := range p.Constraints {
		row := make([]float64, numCols+1)
		sign := 1.0
		sense := c.Sense
		if c.RHS < 0 {
			sign = -1.0
			switch sense {
			case LE:
				sense = GE
			case GE:
				sense = LE
			}
		}
		for _, term := range c.Terms {
			row[term.Var] += sign * term.Coef
		}
		row[numCols] = sign * c.RHS
		switch sense {
		case LE:
			row[slackCol] = 1
			t.basis[i] = slackCol
			slackCol++
		case GE:
			row[slackCol] = -1
			slackCol++
			row[artCol] = 1
			t.basis[i] = artCol
			artCol++
		case EQ:
			row[artCol] = 1
			t.basis[i] = artCol
			artCol++
		}
		t.rows[i] = row
	}
	return t
}

func (t *tableau) phase1Costs() []float64 {
	costs := make([]float64, t.numCols)
	for j := t.artStart; j < t.numCols; j++ {
		costs[j] = 1
	}
	return costs
}

// objectiveValue returns c_B · x_B for the current basis.
func (t *tableau) objectiveValue(costs []float64) float64 {
	var v float64
	for i, bv := range t.basis {
		v += costs[bv] * t.rhs(i)
	}
	return v
}

// reducedCost returns c_j - c_B·B⁻¹A_j for column j.
func (t *tableau) reducedCost(costs []float64, j int) float64 {
	v := costs[j]
	for i, bv := range t.basis {
		if costs[bv] != 0 {
			v -= costs[bv] * t.rows[i][j]
		}
	}
	return v
}

// runSimplex iterates pivots until optimality for the given costs.
// It uses Dantzig's rule, switching to Bland's rule (which cannot
// cycle) once the iteration count grows suspicious. The price row of
// reduced costs is maintained incrementally across pivots (refreshed
// periodically against numerical drift) so entering-column selection
// costs O(n) instead of O(m·n).
func (t *tableau) runSimplex(costs []float64) error {
	// Dantzig's rule makes rapid progress but can stall on degenerate
	// vertices; switch to Bland's rule (provably finite) early enough
	// that the remaining budget is effectively unbounded for it.
	maxIters := 1000 * (t.m + t.numCols + 10)
	blandAfter := 20 * (t.m + t.numCols + 10)
	if debugIterBudget > 0 {
		maxIters = debugIterBudget
	}
	z := make([]float64, t.numCols)
	refresh := func() {
		for j := 0; j < t.numCols; j++ {
			z[j] = t.reducedCost(costs, j)
		}
	}
	refresh()
	const refreshEvery = 256
	for iter := 0; iter < maxIters; iter++ {
		if iter%refreshEvery == refreshEvery-1 {
			refresh()
		}
		entering := -1
		if iter < blandAfter {
			best := -eps
			for j := 0; j < t.numCols; j++ {
				if z[j] < best {
					best = z[j]
					entering = j
				}
			}
		} else {
			for j := 0; j < t.numCols; j++ {
				if z[j] < -eps {
					entering = j
					break
				}
			}
		}
		if entering == -1 {
			// Verify against exactly recomputed reduced costs before
			// declaring optimality (the incremental row may drift).
			refresh()
			for j := 0; j < t.numCols; j++ {
				if z[j] < -eps {
					entering = j
					break
				}
			}
			if entering == -1 {
				return nil // optimal
			}
		}
		// Ratio test; ties broken by smallest basis index (Bland-safe).
		leaving := -1
		bestRatio := math.Inf(1)
		for i := 0; i < t.m; i++ {
			a := t.rows[i][entering]
			if a > eps {
				ratio := t.rhs(i) / a
				if ratio < bestRatio-eps || (ratio < bestRatio+eps && (leaving == -1 || t.basis[i] < t.basis[leaving])) {
					bestRatio = ratio
					leaving = i
				}
			}
		}
		if leaving == -1 {
			return errUnbounded
		}
		t.pivot(leaving, entering)
		// Update the price row: the pivot row is normalized, so
		// z' = z - z[e]·row_l.
		f := z[entering]
		if f != 0 {
			row := t.rows[leaving]
			for j := 0; j < t.numCols; j++ {
				z[j] -= f * row[j]
			}
			z[entering] = 0
		}
	}
	return ErrIterationLimit
}

// pivot makes column e basic in row l.
func (t *tableau) pivot(l, e int) {
	row := t.rows[l]
	pv := row[e]
	inv := 1.0 / pv
	for j := range row {
		row[j] *= inv
	}
	row[e] = 1 // exact
	for i := 0; i < t.m; i++ {
		if i == l {
			continue
		}
		f := t.rows[i][e]
		if f == 0 {
			continue
		}
		other := t.rows[i]
		for j := range other {
			other[j] -= f * row[j]
		}
		other[e] = 0 // exact
	}
	t.basis[l] = e
}

// driveOutArtificials pivots any artificial variables remaining in the
// basis at level zero out of it, so phase 2 cannot reactivate them.
func (t *tableau) driveOutArtificials() {
	for i := 0; i < t.m; i++ {
		if t.basis[i] < t.artStart {
			continue
		}
		// Find any non-artificial column with a nonzero entry to pivot in.
		pivoted := false
		for j := 0; j < t.artStart; j++ {
			if math.Abs(t.rows[i][j]) > eps {
				t.pivot(i, j)
				pivoted = true
				break
			}
		}
		if !pivoted {
			// Row is redundant (all-zero over structural columns);
			// neutralize it so the artificial stays pinned at zero.
			for j := range t.rows[i] {
				t.rows[i][j] = 0
			}
			t.rows[i][t.basis[i]] = 1
		}
	}
	// Forbid artificials from re-entering by zeroing their columns.
	for i := 0; i < t.m; i++ {
		for j := t.artStart; j < t.numCols; j++ {
			if t.basis[i] != j {
				t.rows[i][j] = 0
			}
		}
	}
}
