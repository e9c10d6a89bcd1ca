// Package milp implements a branch-and-bound solver for mixed integer
// linear programs whose integer variables are binary (0/1), layered on
// the simplex solver in internal/lp. Together with internal/lp it
// substitutes for the CPLEX package used by the paper: the crossbar
// feasibility MILP (paper Eq. 10) and binding MILP (paper Eq. 11) use
// only binary integer variables (x_{i,k}, sb_{i,j,k}, s_{i,j}) plus the
// continuous maxov objective variable. Its one client is the test-only
// oracle (internal/oracle); no production build links it.
//
// Binary bounds are enforced by the bounded-variable simplex (no
// explicit 0/1 rows). The search keeps one lp.NodeSolver for the whole
// tree: a node is the base problem plus a variable-fixing overlay,
// solved warm from the previous node's basis (dual-simplex
// reoptimization) with scratch buffers reused throughout — no per-node
// problem copies.
package milp

import (
	"context"
	"errors"
	"fmt"
	"math"

	"repro/internal/lp"
)

// Problem is an LP plus binary integrality requirements.
type Problem struct {
	LP lp.Problem
	// Binary[v] marks variable v as required to take value 0 or 1.
	// The solver bounds the variable to [0,1] internally.
	Binary []bool
}

// Options tunes the branch-and-bound search.
type Options struct {
	// MaxNodes bounds the number of explored nodes (0 means a generous
	// default). Exceeding it returns ErrNodeLimit.
	MaxNodes int
	// FirstFeasible stops at the first integral solution instead of
	// proving optimality — the mode used for the paper's feasibility
	// MILP, which has no objective function. The search then runs
	// depth-first, diving on the branch nearest the relaxation value,
	// which both finds integral points quickly and keeps consecutive
	// node LPs one fix apart so warm starts are cheap.
	FirstFeasible bool
}

// Solution is the result of a MILP solve.
type Solution struct {
	Status    lp.Status
	X         []float64
	Objective float64
	Nodes     int // nodes explored
	// WarmSolves / ColdSolves count how many node relaxations were
	// solved by dual-simplex warm restart vs. a full two-phase solve.
	WarmSolves int64
	ColdSolves int64
	// DualPivots counts the dual-simplex pivots spent across all warm
	// solves.
	DualPivots int64
}

// ErrNodeLimit is returned when the node budget is exhausted before
// the search completes.
var ErrNodeLimit = errors.New("milp: node limit exceeded")

// ErrCanceled is returned when the context passed to SolveCtx is
// canceled (or its deadline expires) before the search completes. The
// underlying context error is wrapped, so both
// errors.Is(err, ErrCanceled) and errors.Is(err, context.Canceled)
// hold.
var ErrCanceled = errors.New("milp: solve canceled")

const intTol = 1e-6

// Solve runs branch and bound.
func Solve(p *Problem, opts Options) (*Solution, error) {
	return SolveCtx(context.Background(), p, opts)
}

// SolveCtx is Solve with cooperative cancellation: the context is
// checked at every node expansion, so a cancellation surfaces within
// one LP relaxation solve.
func SolveCtx(ctx context.Context, p *Problem, opts Options) (*Solution, error) {
	if len(p.Binary) != p.LP.NumVars {
		return nil, fmt.Errorf("milp: Binary has %d entries, want %d", len(p.Binary), p.LP.NumVars)
	}
	maxNodes := opts.MaxNodes
	if maxNodes == 0 {
		maxNodes = 200000
	}
	return solveIncremental(ctx, p, opts, maxNodes)
}

// chainFix is one link of a node's fix set. Sharing the parent chain
// means pushing a child costs one small allocation instead of copying
// a map of the whole path, and sibling nodes share their prefix.
type chainFix struct {
	parent *chainFix
	v      int
	val    float64
	depth  int // chain length; the root chain (nil) has depth 0
}

// appendTo collects the chain into buf (deepest fix last is fine — the
// NodeSolver does not care about order, and a chain never repeats a
// variable).
func (c *chainFix) appendTo(buf []lp.Fix) []lp.Fix {
	for ; c != nil; c = c.parent {
		buf = append(buf, lp.Fix{Var: c.v, Val: c.val})
	}
	return buf
}

// solveIncremental is the search: one NodeSolver reused for every
// node, warm-started between consecutive solves.
func solveIncremental(ctx context.Context, p *Problem, opts Options, maxNodes int) (*Solution, error) {
	n := p.LP.NumVars
	upper := make([]float64, n)
	for v := 0; v < n; v++ {
		if p.Binary[v] {
			upper[v] = 1
		} else {
			upper[v] = math.Inf(1)
		}
	}
	ns, err := lp.NewNodeSolver(&p.LP, upper)
	if err != nil {
		return nil, err
	}
	// Pivot-level cancellation: a single node LP on a large instance can
	// pivot for minutes, far longer than the per-node ctx check below
	// can notice. The solver polls this between pivots.
	ns.Interrupt = func() bool { return ctx.Err() != nil }

	type node struct {
		fixes *chainFix
		bound float64 // parent's LP relaxation objective
	}
	open := []node{{fixes: nil, bound: math.Inf(-1)}}
	fixBuf := make([]lp.Fix, 0, 64)

	var best *Solution
	nodes := 0
	finish := func(s *Solution) *Solution {
		s.Nodes = nodes
		s.WarmSolves, s.ColdSolves = ns.Stats()
		s.DualPivots = ns.DualPivots()
		return s
	}
	for len(open) > 0 {
		var cur node
		if opts.FirstFeasible {
			// Depth-first dive: the nearest-value child was pushed last
			// and pops first, so consecutive nodes differ by one fix —
			// the cheapest possible warm start.
			cur = open[len(open)-1]
			open = open[:len(open)-1]
		} else {
			// Best-first on the parent bound (ties: earliest pushed).
			bestIdx := 0
			for i := range open {
				if open[i].bound < open[bestIdx].bound {
					bestIdx = i
				}
			}
			cur = open[bestIdx]
			open = append(open[:bestIdx], open[bestIdx+1:]...)
		}

		if best != nil && cur.bound >= best.Objective-1e-9 {
			continue
		}
		nodes++
		depth := 0
		if cur.fixes != nil {
			depth = cur.fixes.depth
		}
		if nodes > maxNodes {
			return nil, ErrNodeLimit
		}
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("%w after %d nodes: %w", ErrCanceled, nodes, err)
		}

		sol, err := ns.Solve(cur.fixes.appendTo(fixBuf[:0]))
		if err != nil {
			if errors.Is(err, lp.ErrInterrupted) {
				return nil, fmt.Errorf("%w mid-node after %d nodes: %w", ErrCanceled, nodes, context.Cause(ctx))
			}
			return nil, err
		}
		switch sol.Status {
		case lp.Infeasible:
			continue
		case lp.Unbounded:
			return finish(&Solution{Status: lp.Unbounded}), nil
		}
		if best != nil && sol.Objective >= best.Objective-1e-9 {
			continue
		}

		branchVar := mostFractional(sol.X, p.Binary)
		if branchVar == -1 {
			rounded, ok, bv := roundBinaries(p, sol.X)
			if ok {
				cand := &Solution{Status: lp.Optimal, X: rounded, Objective: sol.Objective}
				if best == nil || cand.Objective < best.Objective {
					best = cand
				}
				if opts.FirstFeasible {
					return finish(best), nil
				}
				continue
			}
			// The rounded point violates a constraint beyond what mere
			// rounding can explain (a drifted relaxation solve): branch
			// on an implicated binary to force an honest resolution, or
			// discard the node if none is identified.
			if bv == -1 {
				continue
			}
			branchVar = bv
		}

		near := math.Round(sol.X[branchVar])
		// Push the far child first so the near one pops first in DFS
		// mode; best-first mode breaks bound ties by push order, so
		// there push near first.
		if opts.FirstFeasible {
			open = append(open,
				node{fixes: &chainFix{cur.fixes, branchVar, 1 - near, depth + 1}, bound: sol.Objective},
				node{fixes: &chainFix{cur.fixes, branchVar, near, depth + 1}, bound: sol.Objective})
		} else {
			open = append(open,
				node{fixes: &chainFix{cur.fixes, branchVar, near, depth + 1}, bound: sol.Objective},
				node{fixes: &chainFix{cur.fixes, branchVar, 1 - near, depth + 1}, bound: sol.Objective})
		}
	}
	if best == nil {
		return finish(&Solution{Status: lp.Infeasible}), nil
	}
	return finish(best), nil
}

// mostFractional returns the binary variable farthest from integrality
// (beyond intTol), or -1 when every binary is integral to tolerance.
func mostFractional(x []float64, binary []bool) int {
	branchVar := -1
	worst := intTol
	for v, isBin := range binary {
		if !isBin {
			continue
		}
		frac := math.Abs(x[v] - math.Round(x[v]))
		if frac > worst {
			worst = frac
			branchVar = v
		}
	}
	return branchVar
}

// roundBinaries snaps the near-integral binaries of a relaxation
// solution to 0/1 and verifies the rounded point still satisfies every
// constraint. The per-row tolerance budgets for what honest rounding
// can shift (intTol per unit of coefficient mass) plus float noise, so
// a violation beyond it means the relaxation solution itself was bad —
// not merely fractional. In that case ok is false and branchVar names
// the binary with the largest residue appearing in a violated row (-1
// if none), which the search branches on instead of accepting the
// point.
func roundBinaries(p *Problem, x []float64) (out []float64, ok bool, branchVar int) {
	out = make([]float64, len(x))
	copy(out, x)
	for v, isBin := range p.Binary {
		if isBin {
			out[v] = math.Round(out[v])
		}
	}
	ok = true
	branchVar = -1
	worst := 0.0
	for _, c := range p.LP.Constraints {
		var lhs, mass float64
		for _, t := range c.Terms {
			lhs += t.Coef * out[t.Var]
			mass += math.Abs(t.Coef)
		}
		tol := intTol*(1+mass) + 1e-9*(1+math.Abs(c.RHS))
		var viol bool
		switch c.Sense {
		case lp.LE:
			viol = lhs > c.RHS+tol
		case lp.GE:
			viol = lhs < c.RHS-tol
		case lp.EQ:
			viol = math.Abs(lhs-c.RHS) > tol
		}
		if !viol {
			continue
		}
		ok = false
		for _, t := range c.Terms {
			if !p.Binary[t.Var] {
				continue
			}
			if frac := math.Abs(x[t.Var] - out[t.Var]); frac > worst {
				worst = frac
				branchVar = t.Var
			}
		}
	}
	if ok {
		return out, true, -1
	}
	return nil, false, branchVar
}
