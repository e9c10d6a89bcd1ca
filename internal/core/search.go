package core

import (
	"context"
	"errors"

	"repro/internal/conc"
)

// solveFunc probes one candidate bus count. It must be safe for
// concurrent calls with distinct contexts and deterministic for a
// given (k, optimize) pair.
type solveFunc func(ctx context.Context, k int, optimize bool) (*assignResult, error)

// searchMinFeasible finds the minimum k in [lb, ub] for which solve
// reports a feasible assignment, exploiting that feasibility is
// monotone in k. It returns best == -1 when the whole range is
// infeasible, along with the assignResult of the minimal feasible k
// and the summed solver nodes of all completed probes.
//
// With workers == 1 this is the classic binary search. With more
// workers it becomes a speculative multi-point bisection: each round
// probes up to `workers` evenly spaced candidate counts of the current
// range concurrently and narrows the range as the results land —
// first-decisive-wins, canceling sibling probes that a result has made
// redundant (a probe at k is redundant once a count ≤ k proved
// feasible or a count ≥ k proved infeasible).
//
// The returned bus count and binding are independent of both the
// worker count and goroutine scheduling: the range only narrows on
// proven facts, every round's probe points are chosen deterministically
// from the range bounds, and each per-count solve is deterministic, so
// the search always converges to the same minimal feasible k and the
// same assignResult for it. Only the node totals (how much speculative
// work was done) vary between runs.
func searchMinFeasible(ctx context.Context, lb, ub, workers int, solve solveFunc) (best int, bestRes *assignResult, nodes int64, err error) {
	best = -1
	lo, hi := lb, ub
	for lo <= hi {
		if ctxErr := ctx.Err(); ctxErr != nil {
			return -1, nil, nodes, canceledErr(ctx)
		}
		ks := probePoints(lo, hi, workers)
		if len(ks) == 1 {
			res, solveErr := solve(ctx, ks[0], false)
			if solveErr != nil {
				return -1, nil, nodes, solveErr
			}
			nodes += res.nodes
			if res.feasible {
				best, bestRes = ks[0], res
				hi = ks[0] - 1
			} else {
				lo = ks[0] + 1
			}
			continue
		}

		// Speculative round: one goroutine per probe point, each with
		// its own cancelable context so decided siblings can stop it,
		// and each under conc.Protect so a panic fails the search.
		type probeOutcome struct {
			k   int
			res *assignResult
			err error
		}
		cancels := make(map[int]context.CancelCauseFunc, len(ks))
		outcomes := make(chan probeOutcome, len(ks))
		for _, k := range ks {
			pctx, cancel := context.WithCancelCause(ctx)
			cancels[k] = cancel
			go func(k int, pctx context.Context) {
				var res *assignResult
				solveErr := conc.Protect(func() (err error) {
					res, err = solve(pctx, k, false)
					return err
				})
				outcomes <- probeOutcome{k: k, res: res, err: solveErr}
			}(k, pctx)
		}
		var roundErr error
		for range ks {
			oc := <-outcomes
			if oc.err != nil {
				// A probe canceled because a sibling's result obsoleted
				// it carries no information; every other error —
				// including a cancellation of the search itself — is
				// propagated after the round drains.
				if errors.Is(oc.err, ErrCanceled) && ctx.Err() == nil {
					continue
				}
				if roundErr == nil {
					roundErr = oc.err
				}
				continue
			}
			nodes += oc.res.nodes
			if oc.res.feasible {
				if best == -1 || oc.k < best {
					best, bestRes = oc.k, oc.res
				}
				if best-1 < hi {
					hi = best - 1
				}
			} else if oc.k+1 > lo {
				lo = oc.k + 1
			}
			for k, cancel := range cancels {
				if k < lo || k > hi {
					cancel(errObsolete)
				}
			}
		}
		for _, cancel := range cancels {
			cancel(nil)
		}
		if roundErr != nil {
			return -1, nil, nodes, roundErr
		}
	}
	return best, bestRes, nodes, nil
}

// probePoints picks up to w candidate counts splitting [lo, hi] into
// roughly equal segments — the multi-point generalization of the
// binary-search midpoint (w == 1 yields exactly the midpoint). The
// choice depends only on (lo, hi, w), keeping rounds deterministic.
func probePoints(lo, hi, w int) []int {
	n := hi - lo + 1
	if w > n {
		w = n
	}
	if w <= 1 {
		return []int{(lo + hi) / 2}
	}
	pts := make([]int, 0, w)
	last := lo - 1
	for i := 1; i <= w; i++ {
		k := lo + n*i/(w+1)
		if k > hi {
			k = hi
		}
		if k > last {
			pts = append(pts, k)
			last = k
		}
	}
	if len(pts) == 0 {
		pts = append(pts, (lo+hi)/2)
	}
	return pts
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
func searchBelowIncumbent(ctx context.Context, lb, warmK, workers int, solve solveFunc) (best int, bestRes *assignResult, nodes int64, err error) {
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
	b2, fr, n2, err := searchMinFeasible(ctx, lb, warmK-2, workers, solve)
	nodes += n2
	if err != nil {
		return -1, nil, nodes, err
	}
	if b2 != -1 {
		return b2, fr, nodes, nil
	}
	return warmK - 1, res, nodes, nil
}
