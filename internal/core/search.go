package core

import (
	"context"
	"errors"
)

// solveFunc probes one candidate bus count. It must be deterministic
// for a given (k, optimize) pair.
type solveFunc func(ctx context.Context, k int, optimize bool) (*assignResult, error)

// searchMinFeasible finds the minimum k in [lb, ub] for which solve
// reports a feasible assignment by binary search, exploiting that
// feasibility is monotone in k. It returns best == -1 when the whole
// range is infeasible, along with the assignResult of the minimal
// feasible k and the summed solver nodes of all probes.
func searchMinFeasible(ctx context.Context, lb, ub int, solve solveFunc) (best int, bestRes *assignResult, nodes int64, err error) {
	best = -1
	lo, hi := lb, ub
	for lo <= hi {
		if ctxErr := ctx.Err(); ctxErr != nil {
			return -1, nil, nodes, canceledErr(ctx)
		}
		k := (lo + hi) / 2
		res, solveErr := solve(ctx, k, false)
		if solveErr != nil {
			return -1, nil, nodes, solveErr
		}
		nodes += res.nodes
		if res.feasible {
			best, bestRes = k, res
			hi = k - 1
		} else {
			lo = k + 1
		}
	}
	return best, bestRes, nodes, nil
}

// searchBelowIncumbent is the warm variant of searchMinFeasible: a
// validated cached binding already proves feasibility at warmK, so only
// the counts below it are in question. It first probes warmK−1 — in the
// common small-delta case the cached count is still minimal and that
// single infeasible probe is the whole search — and only when the probe
// is feasible does it fall back to the full interval search on
// [lb, warmK−2]. Each per-count probe is deterministic, so the returned
// count and binding are exactly what searchMinFeasible would have
// found over the full range. The returned bestRes is nil when the
// incumbent's own count is the answer (warmK == lb, or the warmK−1
// probe infeasible): no probe at that count ran.
func searchBelowIncumbent(ctx context.Context, lb, warmK int, solve solveFunc) (best int, bestRes *assignResult, nodes int64, err error) {
	if warmK <= lb {
		return lb, nil, 0, nil
	}
	res, err := solve(ctx, warmK-1, false)
	if err != nil {
		return -1, nil, 0, err
	}
	nodes = res.nodes
	if !res.feasible {
		return warmK, nil, nodes, nil
	}
	if warmK-2 < lb {
		return warmK - 1, res, nodes, nil
	}
	b2, fr, n2, err := searchMinFeasible(ctx, lb, warmK-2, solve)
	nodes += n2
	if err != nil {
		return -1, nil, nodes, err
	}
	if b2 != -1 {
		return b2, fr, nodes, nil
	}
	return warmK - 1, res, nodes, nil
}

// undecidedTracker records bus counts whose feasibility probe ran out
// of budget undecided. The search treats such a count as infeasible so
// it keeps narrowing, and the design is flagged Capped when its
// minimality rests on that assumption. A search that decides every
// probe never sees the tracker act.
type undecidedTracker struct {
	min int  // lowest undecided count, when any
	any bool // some probe came back undecided
}

// wrap converts probe-level ErrSearchLimit into an "assume infeasible"
// outcome, recording the count. The nodes the undecided probe spent
// stay on the result, so the design's SearchNodes counts them.
func (u *undecidedTracker) wrap(solve solveFunc) solveFunc {
	return func(ctx context.Context, k int, optimize bool) (*assignResult, error) {
		res, err := solve(ctx, k, optimize)
		if err != nil && errors.Is(err, ErrSearchLimit) {
			if !u.any || k < u.min {
				u.min = k
			}
			u.any = true
			out := &assignResult{}
			if res != nil {
				out.nodes = res.nodes
			}
			return out, nil
		}
		return res, err
	}
}

// cappedBelow reports whether an undecided count undermines the
// minimality of best (best == -1 means nothing was proven feasible, so
// any undecided count does).
func (u *undecidedTracker) cappedBelow(best int) bool {
	return u.any && (best == -1 || u.min < best)
}

// greedyUpperBound scans bus counts upward from lb for the first count
// the greedy binding heuristic settles, or returns -1 when the bounded
// scan finds none. A greedy success is a real feasibility proof. It is
// the last resort of a search whose probes all ran out of budget, so it
// never runs on a decided design. The scan span is bounded: greedy
// either succeeds within a few counts of the lower bound or the
// instance is so conflict-dense that the exact probes are cheap anyway.
func greedyUpperBound(prob *assignProblem, lb, ub int) int {
	const span = 8
	for k := lb; k <= ub && k-lb <= span; k++ {
		if _, _, ok := prob.greedyBinding(k); ok {
			return k
		}
	}
	return -1
}
