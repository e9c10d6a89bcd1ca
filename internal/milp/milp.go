// Package milp implements a branch-and-bound solver for mixed integer
// linear programs whose integer variables are binary (0/1), layered on
// the simplex solver in internal/lp. Together with internal/lp it
// substitutes for the CPLEX package used by the paper: the crossbar
// feasibility MILP (paper Eq. 10) and binding MILP (paper Eq. 11) use
// only binary integer variables (x_{i,k}, sb_{i,j,k}, s_{i,j}) plus the
// continuous maxov objective variable.
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
	"repro/internal/obs"
)

// Live solver metrics (see internal/obs). Per-node updates are plain
// atomic adds — three orders of magnitude cheaper than the node's LP
// solve — so they stay on unconditionally and the -metrics-addr /
// -progress instruments see node throughput while a solve runs.
var (
	metSolves     = obs.NewCounter("milp.solves")
	metNodes      = obs.NewCounter("milp.nodes")
	metWarm       = obs.NewCounter("milp.warm_solves")
	metCold       = obs.NewCounter("milp.cold_solves")
	metDualPivots = obs.NewCounter("milp.dual_pivots")
	metLPIters    = obs.NewCounter("milp.lp_iterations")
	metIncumbents = obs.NewCounter("milp.incumbents")
	metSeeded     = obs.NewCounter("milp.seeded")
)

// nodeSpanMask samples per-node tracing: with a Tracer attached, one
// node in (nodeSpanMask+1) records a span, so a 10k-node solve emits
// ~160 node spans instead of 10k (which would dominate the trace and
// its own cost).
const nodeSpanMask = 63

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
	// Incumbent optionally seeds the search with a known-feasible
	// solution vector over all variables (len == NumVars), typically a
	// cached solution of a nearby problem. It is validated against the
	// constraints and integrality before use — an invalid or mis-sized
	// incumbent is silently ignored, never trusted. A valid incumbent
	// bounds the search from node one and is returned when nothing
	// strictly better is found, so the reported objective is exact; the
	// reported vector, however, may be the incumbent rather than the
	// equally-good vertex an unseeded search would have found. In
	// FirstFeasible mode a valid incumbent short-circuits the search
	// entirely (any feasible point suffices).
	Incumbent []float64
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
	// Seeded reports that Options.Incumbent passed validation and
	// bounded the search from the start.
	Seeded bool
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
	metSolves.Inc()
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

	ctx, solveSpan := obs.Start(ctx, "milp.solve")
	solveSpan.SetInt("vars", int64(n))
	solveSpan.SetBool("first_feasible", opts.FirstFeasible)
	tracer := obs.TracerFrom(ctx)
	rec := obs.FlightRecorderFrom(ctx)
	ns.Rec = rec

	type node struct {
		fixes *chainFix
		bound float64 // parent's LP relaxation objective
	}
	open := []node{{fixes: nil, bound: math.Inf(-1)}}
	fixBuf := make([]lp.Fix, 0, 64)

	var best *Solution
	nodes := 0
	maxDepth := 0
	seeded := false
	var lastWarm, lastCold, lastDual int64
	var flushedNodes int
	finish := func(s *Solution) *Solution {
		s.Nodes = nodes
		s.WarmSolves, s.ColdSolves = ns.Stats()
		s.DualPivots = ns.DualPivots()
		s.Seeded = seeded
		solveSpan.SetInt("nodes", int64(nodes))
		solveSpan.SetInt("warm", s.WarmSolves)
		solveSpan.SetInt("cold", s.ColdSolves)
		solveSpan.SetInt("max_depth", int64(maxDepth))
		solveSpan.SetStr("status", s.Status.String())
		solveSpan.End()
		return s
	}
	if opts.Incumbent != nil {
		if s := seedIncumbent(p, opts.Incumbent); s != nil {
			best = s
			seeded = true
			metSeeded.Inc()
			rec.Emit(obs.Event{Kind: obs.EvIncumbent, Val: int64(math.Round(best.Objective)), Who: "milp"})
			solveSpan.SetBool("seeded", true)
			if opts.FirstFeasible {
				// Any feasible point suffices; the incumbent is one.
				return finish(best), nil
			}
		}
	}
	defer func() {
		// Stream warm/cold/dual-pivot deltas not yet flushed (error
		// paths included) so the live rates stay truthful, and close
		// the span if an error path skipped finish.
		w, c := ns.Stats()
		metWarm.Add(w - lastWarm)
		metCold.Add(c - lastCold)
		metDualPivots.Add(ns.DualPivots() - lastDual)
		solveSpan.End()
	}()
	flushSolves := func() {
		w, c := ns.Stats()
		d := ns.DualPivots()
		metWarm.Add(w - lastWarm)
		metCold.Add(c - lastCold)
		metDualPivots.Add(d - lastDual)
		lastWarm, lastCold, lastDual = w, c, d
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
		if depth > maxDepth {
			maxDepth = depth
		}
		metNodes.Inc()
		if nodes&255 == 0 {
			rec.Emit(obs.Event{Kind: obs.EvNodes, Val: int64(nodes - flushedNodes), Who: "milp"})
			flushedNodes = nodes
		}
		if nodes > maxNodes {
			return nil, ErrNodeLimit
		}
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("%w after %d nodes: %w", ErrCanceled, nodes, err)
		}

		var nodeSpan *obs.Span
		if tracer != nil && nodes&nodeSpanMask == 1 {
			nodeSpan = obs.StartDetached(tracer, solveSpan, "milp.node")
			nodeSpan.SetInt("node", int64(nodes))
			nodeSpan.SetInt("depth", int64(depth))
		}
		sol, err := ns.Solve(cur.fixes.appendTo(fixBuf[:0]))
		if nodeSpan != nil {
			if err == nil {
				nodeSpan.SetStr("status", sol.Status.String())
			}
			nodeSpan.End()
		}
		if err != nil {
			if errors.Is(err, lp.ErrInterrupted) {
				return nil, fmt.Errorf("%w mid-node after %d nodes: %w", ErrCanceled, nodes, context.Cause(ctx))
			}
			return nil, err
		}
		metLPIters.Add(sol.Iterations)
		flushSolves()
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
					metIncumbents.Inc()
					rec.Emit(obs.Event{Kind: obs.EvIncumbent, Val: int64(math.Round(cand.Objective)), Who: "milp"})
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

// seedIncumbent validates a caller-provided incumbent vector and turns
// it into a starting best solution. The vector goes through the same
// check as any candidate integral point (roundBinaries: integrality to
// tolerance plus every constraint row), so a stale or corrupt cached
// solution can never leak into a result — it is simply ignored.
func seedIncumbent(p *Problem, x []float64) *Solution {
	if len(x) != p.LP.NumVars {
		return nil
	}
	// roundBinaries snaps first and checks constraints after, so a
	// far-from-integral vector could sneak in as its rounding; an
	// incumbent must already be integral to tolerance.
	for v, isBin := range p.Binary {
		if isBin && math.Abs(x[v]-math.Round(x[v])) > intTol {
			return nil
		}
	}
	rounded, ok, _ := roundBinaries(p, x)
	if !ok {
		return nil
	}
	var obj float64
	if p.LP.Objective != nil {
		for j, c := range p.LP.Objective {
			obj += c * rounded[j]
		}
	}
	return &Solution{Status: lp.Optimal, X: rounded, Objective: obj, Seeded: true}
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
