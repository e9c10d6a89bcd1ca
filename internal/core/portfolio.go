package core

import (
	"context"
	"errors"

	"repro/internal/conc"
	"repro/internal/obs"
)

// The portfolio engine is the branch and bound's anytime mode. It adds
// three things to EngineBranchBound, none of which changes an answer
// the search proves within its node budget:
//
//   - in binding mode an anneal from the greedy binding runs beside the
//     search and publishes its objective into the bound the search
//     prunes with (strict comparison — see solveSeeded for why a fed
//     bound cannot change the returned binding);
//   - a probe that runs out of budget returns the better of the
//     search's incumbent and the annealed binding, capped, instead of
//     failing, and a feasibility probe left undecided counts as
//     infeasible (undecidedTracker), with the design flagged Capped
//     when its minimality rests on that assumption;
//   - a greedy scan (greedyUpperBound) narrows the cold bus-count range
//     before any exact probe runs.

// solveAnytime is one bus-count probe of the anytime mode. A decided
// probe returns the search's answer; when the node budget runs out the
// probe returns the best capped binding in hand, and with nothing in
// hand it fails with ErrSearchLimit like a plain budget exhaustion. The
// search runs under conc.Protect, so a panic in it fails the probe
// after the feeder is joined instead of leaving the feeder running.
func (p *assignProblem) solveAnytime(ctx context.Context, k int, optimize bool) (*assignResult, error) {
	var feed *sharedBound
	var feeder *annealFeeder
	if optimize {
		feed = newSharedBound()
		if gBus, gObj, ok := p.greedyBinding(k); ok {
			feed.offerBound(gObj)
			feeder = startAnnealFeeder(ctx, p, k, gBus, feed)
		}
	}
	var res *assignResult
	err := conc.Protect(func() (err error) {
		res, err = p.solveSeeded(ctx, k, optimize, nil, 0, feed)
		return err
	})
	switch {
	case err == nil && !res.capped:
		// Decided: stop the anneal, it has nothing left to add.
		if err := feeder.wait(true); err != nil {
			return nil, err
		}
		return res, nil
	case err != nil && !errors.Is(err, ErrSearchLimit):
		_ = feeder.wait(true) // the search's error is the one to report
		return nil, err
	}
	// Out of budget. The anneal runs to completion (it is deterministic
	// only when it does; a canceled ctx stops it, and the probe then
	// fails anyway), and its binding replaces the search's incumbent
	// when strictly better.
	if err := feeder.wait(false); err != nil {
		return nil, err
	}
	if ctx.Err() != nil {
		return nil, canceledErr(ctx)
	}
	if feeder != nil && feeder.busOf != nil && (res == nil || feeder.obj < res.maxOverlap) {
		ann := &assignResult{feasible: true, busOf: feeder.busOf, maxOverlap: feeder.obj, capped: true}
		if res != nil {
			ann.nodes = res.nodes
		}
		res = ann
	}
	if res == nil {
		return nil, err
	}
	return res, nil
}

// annealFeeder is one binding probe's background anneal (see
// solveAnytime). It lives no longer than the probe: solveAnytime stops
// it once the search decides and waits for it on every path.
type annealFeeder struct {
	stop context.CancelFunc
	g    conc.Group
	// busOf and obj are the annealed binding and its objective, set
	// only when the anneal ran to completion and the binding validated;
	// read them after wait.
	busOf []int
	obj   int64
}

func startAnnealFeeder(ctx context.Context, prob *assignProblem, k int, start []int, feed *sharedBound) *annealFeeder {
	fctx, stop := context.WithCancel(ctx)
	f := &annealFeeder{stop: stop}
	rec := obs.FlightRecorderFrom(ctx)
	f.g.Go(func() error {
		busOf, obj := prob.anneal(fctx, k, start)
		if fctx.Err() != nil || !prob.validBinding(k, busOf) {
			return nil
		}
		f.busOf, f.obj = busOf, obj
		feed.offerBound(obj)
		rec.Emit(obs.Event{Kind: obs.EvIncumbent, K: k, Val: obj, Who: "anneal"})
		return nil
	})
	return f
}

// wait returns once the feeder goroutine has exited, first stopping
// the anneal when stop is set. The error is a recovered panic. A nil
// feeder (no greedy start, or a feasibility probe) waits for nothing.
func (f *annealFeeder) wait(stop bool) error {
	if f == nil {
		return nil
	}
	if stop {
		f.stop()
	}
	err := f.g.Wait()
	f.stop()
	return err
}

// undecidedTracker records bus counts whose anytime probe ran out of
// budget undecided, implementing the anytime ("budgeted minimality")
// semantics of the portfolio's phase-1 search: undecided counts are
// optimistically treated as infeasible so the search keeps narrowing,
// and the final design is flagged Capped when its minimality rests on
// such an assumption.
type undecidedTracker struct {
	min int // lowest undecided count; -1 when none
	any bool
}

// wrap converts probe-level ErrSearchLimit into an "assume infeasible"
// outcome, recording the count.
func (u *undecidedTracker) wrap(solve solveFunc) solveFunc {
	u.min = -1
	return func(ctx context.Context, k int, optimize bool) (*assignResult, error) {
		res, err := solve(ctx, k, optimize)
		if err != nil && errors.Is(err, ErrSearchLimit) {
			if !u.any || k < u.min {
				u.min = k
			}
			u.any = true
			return &assignResult{}, nil
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

// anyUndecided reports whether any probe came back undecided.
func (u *undecidedTracker) anyUndecided() bool { return u.any }

// greedyUpperBound scans bus counts upward from lb for the first count
// the greedy binding heuristic settles, or returns -1 when the bounded
// scan finds none. Each attempt costs microseconds against the
// exponential worst case of an exact probe, and a greedy success is a
// real feasibility proof, so the scan narrows the exact search range
// for free: the searched interval shrinks to [lb, gub-1] with gub
// already decided. The scan span is bounded — greedy either succeeds
// within a few counts of the lower bound or the instance is so
// conflict-dense that the exact probes are cheap anyway.
func greedyUpperBound(prob *assignProblem, lb, ub int) int {
	const span = 8
	for k := lb; k <= ub && k-lb <= span; k++ {
		if _, _, ok := prob.greedyBinding(k); ok {
			return k
		}
	}
	return -1
}
