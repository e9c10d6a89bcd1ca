package core

import (
	"context"
	"errors"

	"repro/internal/conc"
	"repro/internal/milp"
	"repro/internal/obs"
)

// The portfolio engine races the two exact solvers — the assignment
// branch and bound and the warm-started MILP — on every
// bus-count probe, under one cancelable context: the first PROVEN
// answer wins and cancels the sibling. The two have complementary
// strengths the race exploits: the assignment search dives to feasible
// bindings orders of magnitude faster (hundreds of nodes where the
// MILP needs LP solves), while the MILP's LP relaxation can prove a
// count infeasible at the root where the combinatorial search would
// enumerate forever. Neither answer is trusted beyond what it proved:
// budget-exhausted contestants (ErrSearchLimit / milp.ErrNodeLimit)
// and capped incumbents are only fallbacks, so a definitive result is
// exact no matter which engine produced it — objectives across engines
// are equal by optimality, which the differential harness enforces.
//
// In binding mode the race additionally runs annealing as an incumbent
// feeder: a deterministic anneal from the greedy binding publishes its
// objective into the bound the branch and bound prunes against (strict
// comparison — see solveSeeded for why a fed bound cannot change the
// returned binding), and the greedy binding is injected as the MILP's
// starting incumbent. Incumbents therefore flow between engines without
// either depending on the other's completion.
// When every contestant exhausts its budget, the annealed binding is
// also a fallback: the probe returns whichever capped binding has the
// lower objective.

// portfolioMILPDivisor scales the assignment-search node budget down
// to the MILP contestant's: MILP nodes each pay an LP solve, so node
// for node they cost several hundred times more. The division keeps
// the two contestants' worst-case wall time in the same ballpark,
// which is what bounds a probe's latency when both must exhaust
// (the budgeted-minimality path).
const portfolioMILPDivisor = 400

// portfolioMILPMaxCells caps the dense simplex tableau the MILP
// contestant may enter the race with, in float64 cells. For a
// formulation of rows constraints over cols variables, the node solver
// (internal/lp) allocates a tableau of rows × (cols + slack +
// artificial) ≤ rows × (cols + 2·rows) cells, plus a rows × cols base
// image. The row count grows with the reduced window count times the
// bus count: the FFT request trace's 1,501 kept windows make its
// probes 1.0–1.2·10⁹ cells, while the largest portfolio formulation
// the tests build (32 receivers, binding at 8 buses) is 4.1·10⁷. A
// probe over the cap runs the assignment search alone, which is exact;
// the race would otherwise lose the machine to an allocation, not a
// search. 2²⁶ cells is 512 MiB. EngineMILP, which has no other
// contestant, fails such a probe with ErrSearchLimit.
const portfolioMILPMaxCells = 1 << 26

// milpFits reports whether the MILP contestant's tableau for this
// probe stays within portfolioMILPMaxCells.
func milpFits(fr *Formulator, k int, optimize bool) bool {
	rows, cols := fr.size(k, optimize)
	return int64(rows)*int64(cols+2*rows) <= portfolioMILPMaxCells
}

// portfolioMILPBudget is the MILP contestant's node budget for one
// probe of an assignment problem with the given node budget.
func portfolioMILPBudget(maxNodes int64) int {
	return int(max(maxNodes/portfolioMILPDivisor, 1000))
}

// solvePortfolio runs one bus-count probe as a race. The returned
// result is the first definitive one; when every contestant exhausts
// its budget the best capped incumbent is returned (capped=true), and
// with nothing at all in hand the probe fails with ErrSearchLimit
// exactly like a single-engine budget exhaustion.
func solvePortfolio(ctx context.Context, prob *assignProblem, fr *Formulator, k int, optimize bool) (*assignResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, canceledErr(ctx)
	}
	rctx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)
	rec := obs.FlightRecorderFrom(ctx)

	runMILP := milpFits(fr, k, optimize)
	milpOpts := milp.Options{MaxNodes: portfolioMILPBudget(prob.maxNodes)}
	var feed *sharedBound
	var feeder *annealFeeder
	if optimize {
		feed = newSharedBound()
		if gBus, gObj, ok := prob.greedyBinding(k); ok {
			feed.offerBound(gObj)
			// MILP side: start from the greedy binding as incumbent.
			// (Gated: ForBusCount builds the formulation, which is
			// exactly the allocation the tableau cap avoids.)
			if runMILP {
				if inc, err := fr.ForBusCount(k, true).Inject(gBus); err == nil {
					milpOpts.Incumbent = inc
				}
			}
			// Annealing feeder: improve the greedy binding in the
			// background and publish the objective into the bound the
			// branch and bound prunes with. The anneal is deterministic
			// (fixed seed) and its bound is the objective of a real
			// validated binding, so feeding it cannot change the branch
			// and bound's answer — only how fast it gets there (see
			// solveSeeded).
			feeder = startAnnealFeeder(ctx, prob, k, gBus, feed)
		}
	}

	type outcome struct {
		res  *assignResult
		err  error
		milp bool
	}
	ch := make(chan outcome, 2)
	contestants := 1
	// Each contestant runs under conc.Protect: a panic is its error.
	go func() {
		var res *assignResult
		err := conc.Protect(func() (err error) {
			res, err = prob.solveSeeded(rctx, k, optimize, nil, 0, feed)
			return err
		})
		ch <- outcome{res, err, false}
	}()
	rec.Emit(obs.Event{Kind: obs.EvRaceStart, K: k, Who: "bb"})
	if runMILP {
		contestants++
		go func() {
			var res *assignResult
			err := conc.Protect(func() (err error) {
				res, err = solveFormulated(rctx, fr, k, optimize, milpOpts)
				return err
			})
			ch <- outcome{res, err, true}
		}()
		rec.Emit(obs.Event{Kind: obs.EvRaceStart, K: k, Who: "milp"})
	}

	var fallback *assignResult // best capped incumbent, if any
	var hardErr error
	for i := 0; i < contestants; i++ {
		oc := <-ch
		// The assignment search's node budget is the probe's wall-clock
		// governor: its nodes cost nanoseconds where MILP nodes cost LP
		// solves whose rate varies by orders of magnitude across
		// instances (a tightly infeasible probe can sit minutes inside
		// single LPs). So when the assignment side exhausts undecided,
		// the MILP sibling is canceled rather than waited for — it had
		// the assignment search's whole runtime to land its root
		// infeasibility proof, which is the regime it wins in.
		if !oc.milp && (oc.err != nil || oc.res.capped) {
			cancel(errObsolete)
			if contestants == 2 && i == 0 {
				rec.Emit(obs.Event{Kind: obs.EvRaceCancel, K: k, Who: "milp"})
			}
		}
		switch {
		case oc.err == nil && !oc.res.capped:
			// Definitive: proven feasible/infeasible/optimal. Cancel the
			// sibling and return without waiting for it — it unwinds on
			// the canceled context and only touches its own state.
			cancel(errObsolete)
			winner, loser := "bb", "milp"
			if oc.milp {
				winner, loser = "milp", "bb"
			}
			rec.Emit(obs.Event{Kind: obs.EvRaceWin, K: k, Who: winner})
			if contestants == 2 && i == 0 {
				rec.Emit(obs.Event{Kind: obs.EvRaceCancel, K: k, Who: loser})
			}
			if fallback != nil {
				oc.res.nodes += fallback.nodes
			}
			if err := feeder.wait(true); err != nil {
				return nil, err
			}
			return oc.res, nil
		case oc.err == nil:
			// A capped incumbent: feasible but unproven. Keep the best.
			if fallback == nil || oc.res.maxOverlap < fallback.maxOverlap {
				prev := fallback
				fallback = oc.res
				if prev != nil {
					fallback.nodes += prev.nodes
				}
			} else {
				fallback.nodes += oc.res.nodes
			}
		case errors.Is(oc.err, ErrSearchLimit) || errors.Is(oc.err, milp.ErrNodeLimit):
			// Out of budget with nothing to show.
		case errors.Is(oc.err, ErrCanceled) && ctx.Err() == nil:
			// Canceled by us after a sibling decision — but a decision
			// would have returned above, so this is a sibling's hard
			// error having canceled the group; fall through to drain.
		default:
			if hardErr == nil {
				hardErr = oc.err
				cancel(oc.err)
			}
		}
	}
	if hardErr != nil {
		_ = feeder.wait(true) // the contestant's error is the one to report
		return nil, hardErr
	}
	// Every contestant ran out of budget. The feeder's anneal runs to
	// completion (it is deterministic only when it does; a canceled ctx
	// stops it, and the probe then fails anyway), and its binding
	// replaces the incumbent when strictly better.
	if err := feeder.wait(false); err != nil {
		return nil, err
	}
	if ctx.Err() != nil {
		return nil, canceledErr(ctx)
	}
	if feeder != nil && feeder.busOf != nil && (fallback == nil || feeder.obj < fallback.maxOverlap) {
		ann := &assignResult{feasible: true, busOf: feeder.busOf, maxOverlap: feeder.obj, capped: true}
		if fallback != nil {
			ann.nodes = fallback.nodes
		}
		fallback = ann
	}
	if fallback != nil {
		return fallback, nil
	}
	// Out of budget with nothing to show (or, unreachably, two
	// outcomes none definitive, erroneous or capped).
	return nil, ErrSearchLimit
}

// annealFeeder is one binding probe's background anneal (see
// solvePortfolio). It lives no longer than the probe: solvePortfolio
// stops it once a contestant
// gives a definitive answer and waits for it on every path.
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

// undecidedTracker records bus counts whose portfolio probe exhausted
// every contestant, implementing the anytime ("budgeted minimality")
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

// greedyUpperBound scans bus counts upward from lb looking for the
// first count the greedy binding heuristic settles, returning it with
// its witness binding (nil when the bounded scan finds none). Each
// attempt costs microseconds against the exponential worst case of an
// exact probe, and a greedy success is a real feasibility proof, so
// the scan narrows the exact search range for free: the searched
// interval shrinks to [lb, gub-1] with gub already decided. The scan
// span is bounded — greedy either succeeds within a few counts of the
// lower bound or the instance is so conflict-dense that the exact
// probes are cheap anyway.
func greedyUpperBound(prob *assignProblem, lb, ub int) (int, *assignResult) {
	const span = 8
	for k := lb; k <= ub && k-lb <= span; k++ {
		if busOf, _, ok := prob.greedyBinding(k); ok {
			return k, &assignResult{
				feasible:   true,
				busOf:      busOf,
				maxOverlap: MaxOverlapOfMatrix(prob.om, k, busOf),
			}
		}
	}
	return -1, nil
}
