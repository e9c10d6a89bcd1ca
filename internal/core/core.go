// Package core implements the paper's primary contribution: the
// application-specific STbus crossbar design methodology (Sections
// 4–6). Given the window-based traffic analysis of one interconnect
// direction it
//
//  1. pre-processes the analysis into a conflict matrix — pairs of
//     receivers whose windowed overlap exceeds a threshold, or whose
//     real-time (critical) streams overlap, must not share a bus
//     (paper Eq. 2);
//  2. finds the minimum number of crossbar buses for which a binding
//     satisfying the per-window bandwidth constraints (Eq. 4), the
//     conflict constraints (Eq. 7) and the targets-per-bus cap (Eq. 8)
//     exists, by binary search over the bus count with an exact
//     feasibility check (the paper's MILP-1, Eq. 10); and
//  3. binds receivers to the chosen buses minimizing the maximum total
//     traffic overlap on any bus (the paper's MILP-2, Eq. 11), which
//     minimizes average and peak packet latency.
//
// Both problems are solved exactly by a specialized branch and bound
// over the assignment structure (see assign.go), which takes the place
// of the paper's CPLEX runs. When its node budget (Options.MaxNodes)
// runs out the design does not fail outright: an undecided bus count
// counts as infeasible, a greedy scan stands in when no count was
// proven feasible, and a binding search cut short is finished by an
// anneal from the greedy binding (see anneal.go). Such a design is
// flagged Design.Capped. A design decided within the budget never runs
// any of this. The literal Eq. 3–9/11 MILP lives in internal/oracle,
// which only tests import: it cross-checks this package's answers.
package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/obs"
	"repro/internal/trace"
)

// Methodology instruments (see internal/obs): designs run,
// feasibility/binding probes dispatched, branch-and-bound nodes
// expanded by the specialized assignment solver, and the per-probe
// wall-time distribution.
var (
	metDesigns = obs.NewCounter("core.designs")
	metProbes  = obs.NewCounter("core.probes")
	metNodes   = obs.NewCounter("core.solver_nodes")
	metProbeNS = obs.NewHistogram("core.probe_ns")
)

// Options are the tunable parameters of the methodology (the design
// knobs explored in paper Sections 7.2–7.4).
type Options struct {
	// OverlapThreshold is the pre-processing threshold as a fraction of
	// the window size: receiver pairs whose overlap exceeds it in any
	// window are forced onto different buses. Negative disables the
	// pre-processing step. The useful range ends at 0.5 (Section 7.4).
	OverlapThreshold float64
	// SeparateCritical forces receivers with mutually overlapping
	// critical (real-time) streams onto different buses (Section 7.3).
	SeparateCritical bool
	// MaxPerBus caps receivers per bus (paper maxtb, Eq. 8).
	// Zero means no cap.
	MaxPerBus int
	// MinBuses / MaxBuses clamp the binary search range. Zero values
	// default to the analytic lower bound and the receiver count.
	MinBuses, MaxBuses int
	// OptimizeBinding enables the second phase (MILP-2): minimize the
	// maximum per-bus aggregate overlap. When false the first feasible
	// binding is returned.
	OptimizeBinding bool
	// MaxNodes bounds the search effort per solve (0 = default).
	MaxNodes int64
	// Deprecated: ignored; every design runs one search thread.
	Workers int
	// Audit re-checks every produced design against the paper's
	// constraints (Eq. 3–9, Eq. 11 objective consistency) with the
	// independent auditor in internal/check before it is returned.
	// The knob is honored by the stbusgen facade (Designer.Design,
	// Designer.DesignTrace); internal/check sits above this package,
	// so core itself cannot run the audit. Free when false.
	Audit bool
	// Cache, when non-nil, front-ends the design with a cross-request
	// content-addressed cache (see internal/cache): exact fingerprint
	// hits return the stored design with zero solver work, near hits
	// seed the solve with the cached binding as a warm incumbent. Both
	// paths produce designs bit-identical to a cold solve. Excluded
	// from Options.Fingerprint — it selects how the answer is obtained,
	// never what it is.
	Cache Cache
}

// Incumbent is a previously computed binding offered to a new design
// run as a warm starting point. It is a hint, never trusted: core
// re-validates it against the new analysis before any use.
type Incumbent struct {
	// NumBuses is the bus count the binding was produced for.
	NumBuses int
	// BusOf[r] is the bus receiver r is bound to.
	BusOf []int
}

// Cache is the reuse interface DesignCrossbarCtx consults when
// Options.Cache is set. Implementations live above core (see
// internal/cache); the interface is defined here so core does not
// import them.
//
// All methods must be safe for concurrent use. Designs and incumbents
// handed out must be private to the caller (no aliasing of cached
// state), and Store must likewise deep-copy what it retains.
//
// The context carries the caller's telemetry instruments (tracer,
// flight recorder) so implementations can journal their traffic; it is
// not used for cancellation — cache operations are bounded-time.
type Cache interface {
	// Lookup returns the design cached for exactly this problem
	// (analysis and options fingerprints both equal), or ok == false.
	Lookup(ctx context.Context, a *trace.Analysis, opts Options) (d *Design, ok bool)
	// Warm returns a binding cached for a nearby problem — same
	// receiver count and option fingerprint, small constraint diff —
	// or nil when nothing close enough is cached. The binding is only
	// a hint; core validates it against the new analysis before use.
	Warm(ctx context.Context, a *trace.Analysis, opts Options) *Incumbent
	// Store offers a finished, un-capped design for caching.
	Store(ctx context.Context, a *trace.Analysis, opts Options, d *Design)
}

// Validate rejects option sets that would otherwise panic deep in the
// pipeline or silently design against garbage constraints. The zero
// value and DefaultOptions are both valid. Every facade entry point
// calls it before doing any work; direct users of DesignCrossbar get
// the same check at the top of the solve.
func (o Options) Validate() error {
	if o.OverlapThreshold != o.OverlapThreshold { // NaN
		return errors.New("core: overlap threshold is NaN")
	}
	if o.OverlapThreshold > 1 {
		return fmt.Errorf("core: overlap threshold %v exceeds 1 (fraction of window size; negative disables pre-processing)", o.OverlapThreshold)
	}
	if o.MaxPerBus < 0 {
		return fmt.Errorf("core: MaxPerBus %d is negative (0 means no cap)", o.MaxPerBus)
	}
	if o.MinBuses < 0 {
		return fmt.Errorf("core: MinBuses %d is negative", o.MinBuses)
	}
	if o.MaxBuses < 0 {
		return fmt.Errorf("core: MaxBuses %d is negative (0 means no bound)", o.MaxBuses)
	}
	if o.MaxBuses > 0 && o.MinBuses > o.MaxBuses {
		return fmt.Errorf("core: MinBuses %d exceeds MaxBuses %d", o.MinBuses, o.MaxBuses)
	}
	if o.MaxNodes < 0 {
		return fmt.Errorf("core: MaxNodes %d is negative (0 means the default budget)", o.MaxNodes)
	}
	return nil
}

// DefaultOptions returns the parameter set used for the paper's main
// experiments: 30% overlap threshold (the "conservative" setting of
// Section 7.4), critical-stream separation, maxtb of 4 and optimal
// binding.
func DefaultOptions() Options {
	return Options{
		OverlapThreshold: 0.30,
		SeparateCritical: true,
		MaxPerBus:        4,
		OptimizeBinding:  true,
	}
}

// Design is the output of the methodology for one interconnect
// direction: a bus count and a receiver→bus binding.
type Design struct {
	// NumBuses is the minimum feasible crossbar size found.
	NumBuses int
	// BusOf[r] is the bus receiver r is bound to.
	BusOf []int
	// MaxBusOverlap is the achieved objective of the binding phase:
	// the maximum over buses of the summed pairwise aggregate overlap
	// (om_{i,j}) between receivers sharing the bus.
	MaxBusOverlap int64
	// Conflicts counts the receiver pairs separated by pre-processing.
	Conflicts int
	// SearchNodes counts solver nodes over all phases.
	SearchNodes int64
	// Capped reports a result that is feasible but not fully proven
	// within the node budget (Options.MaxNodes): the binding-phase
	// search ran out before proving optimality — BusOf is the better of
	// its incumbent and the annealed greedy binding, and MaxBusOverlap
	// an upper bound on the optimum — or the probe of some bus count
	// below NumBuses ran out of budget undecided, so NumBuses is
	// feasible but its minimality is unproven. When no probe proved any
	// count feasible, NumBuses is the first count the greedy binding
	// settles. Capped designs are never cached.
	Capped bool
}

// ErrSearchLimit is returned when the solver exceeds its node budget
// before establishing feasibility.
var ErrSearchLimit = errors.New("core: search node limit exceeded")

// ErrInfeasible is returned when no bus count within the search range
// admits a binding satisfying the bandwidth, conflict and cap
// constraints. Callers distinguish it from solver-budget or
// cancellation failures with errors.Is.
var ErrInfeasible = errors.New("core: no feasible crossbar configuration")

// ErrCanceled is returned when the design is abandoned because the
// context was canceled or its deadline expired. The context's cause is
// wrapped, so errors.Is(err, context.Canceled) (or DeadlineExceeded)
// also holds.
var ErrCanceled = errors.New("core: design canceled")

// canceledErr wraps the context's cancellation cause under ErrCanceled.
func canceledErr(ctx context.Context) error {
	return fmt.Errorf("%w: %w", ErrCanceled, context.Cause(ctx))
}

// DesignCrossbar runs the full methodology on one direction's analysis.
func DesignCrossbar(a *trace.Analysis, opts Options) (*Design, error) {
	return DesignCrossbarCtx(context.Background(), a, opts)
}

// DesignCrossbarCtx is DesignCrossbar with cooperative cancellation. The
// context is polled at solver node-expansion boundaries, so a
// cancellation or deadline surfaces promptly as a wrapped ErrCanceled
// even from deep inside a branch-and-bound search.
func DesignCrossbarCtx(ctx context.Context, a *trace.Analysis, opts Options) (*Design, error) {
	if a == nil || a.NumReceivers == 0 {
		return nil, errors.New("core: empty analysis")
	}
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	nT := a.NumReceivers
	maxPerBus := opts.MaxPerBus
	if maxPerBus <= 0 || maxPerBus > nT {
		maxPerBus = nT
	}

	ctx, designSpan := obs.Start(ctx, "core.design")
	defer designSpan.End()
	metDesigns.Inc()
	rec := obs.FlightRecorderFrom(ctx)
	rec.Emit(obs.Event{Kind: obs.EvDesignStart, Val: int64(nT)})

	// A content-addressed exact hit costs two fingerprints and a map
	// probe — checked before the conflict matrix or any solver state is
	// built, so a hit stays microseconds regardless of problem size.
	if opts.Cache != nil {
		if d, ok := opts.Cache.Lookup(ctx, a, opts); ok {
			rec.Emit(obs.Event{Kind: obs.EvDesignDone, K: d.NumBuses,
				Val: d.MaxBusOverlap, Aux: d.SearchNodes, Flag: d.Capped})
			return d, nil
		}
	}

	conflicts := BuildConflicts(a, opts)
	nConf := 0
	for i := 0; i < nT; i++ {
		for j := i + 1; j < nT; j++ {
			if conflicts[i][j] {
				nConf++
			}
		}
	}

	prob := newAssignProblem(a, conflicts, maxPerBus, opts.MaxNodes)

	lb, lbKind := prob.lowerBound()
	if opts.MinBuses > lb {
		lb, lbKind = opts.MinBuses, "min_buses"
	}
	ub := nT
	if opts.MaxBuses > 0 && opts.MaxBuses < ub {
		ub = opts.MaxBuses
	}
	if lb > ub {
		lb, lbKind = ub, "max_buses"
	}

	// Near-hit warm start: a binding cached for a nearby problem. It is
	// a hint, never trusted — re-validated against THIS problem's
	// constraints first. Once validated it proves feasibility at its
	// bus count (narrowing the search to the counts below) and seeds
	// the binding phase (see solveSeeded for why the output stays
	// bit-identical to a cold solve).
	warmK := -1
	var seedBus []int
	var seedObj int64
	if opts.Cache != nil {
		if inc := opts.Cache.Warm(ctx, a, opts); inc != nil &&
			inc.NumBuses <= ub && prob.validBinding(inc.NumBuses, inc.BusOf) {
			warmK = inc.NumBuses
			if warmK < lb {
				// Valid in fewer buses than the analytic lower bound
				// requires: still valid at lb (extra buses stay idle).
				warmK = lb
			}
			seedBus = inc.BusOf
			seedObj = MaxOverlapOfMatrix(prob.om, warmK, seedBus)
			designSpan.SetBool("cache_warm", true)
		}
	}

	// Every probe — feasibility or the final binding solve — goes
	// through this wrapper, so each one shows up as its own span (child
	// of core.search or core.bind) in the trace, as an open/close pair in
	// the flight journal, and as a sample in the probe wall-time
	// histogram. A binding probe (optimize set) starts from the warm
	// incumbent when one is given and finishes a search cut short by the
	// budget with an anneal (bindAnytime).
	probe := func(ctx context.Context, k int, optimize bool, seedBus []int, seedObj int64) (*assignResult, error) {
		ctx, sp := obs.Start(ctx, "core.probe")
		defer sp.End()
		if seedBus != nil {
			sp.SetBool("seeded", true)
		}
		metProbes.Inc()
		rec.Emit(obs.Event{Kind: obs.EvProbeOpen, K: k, Flag: optimize})
		start := time.Now()
		var res *assignResult
		var err error
		if optimize {
			res, err = prob.bindAnytime(ctx, k, seedBus, seedObj)
			if res != nil {
				sp.SetInt("pass1_nodes", res.pass1Nodes)
				sp.SetBool("pass1_cut", res.pass1Cut)
			}
		} else {
			res, err = prob.solve(ctx, k, false)
		}
		metProbeNS.Observe(time.Since(start).Nanoseconds())
		rec.Emit(probeCloseEvent(k, optimize, res, err))
		return res, err
	}
	// A feasibility probe that runs out of budget counts as infeasible
	// so the search keeps narrowing; the tracker flags the design Capped
	// when its minimality rests on that assumption.
	var und undecidedTracker
	feasSolve := und.wrap(func(ctx context.Context, k int, _ bool) (*assignResult, error) {
		return probe(ctx, k, false, nil, 0)
	})

	// Phase 1: find the minimum feasible bus count. Feasibility is
	// monotone in the bus count (extra buses can stay unused), so a
	// binary search is exact (paper Section 6). A validated warm
	// incumbent replaces the upper half of the search outright
	// (searchBelowIncumbent).
	sctx, searchSpan := obs.Start(ctx, "core.search")
	searchSpan.SetInt("lb", int64(lb))
	searchSpan.SetStr("lb_kind", lbKind)
	searchSpan.SetInt("ub", int64(ub))
	var (
		best          int
		firstFeasible *assignResult
		nodes         int64
		err           error
	)
	if warmK >= 0 {
		searchSpan.SetBool("warm", true)
		best, firstFeasible, nodes, err = searchBelowIncumbent(sctx, lb, warmK, feasSolve)
	} else {
		best, firstFeasible, nodes, err = searchMinFeasible(sctx, lb, ub, feasSolve)
	}
	searchCapped := und.cappedBelow(best)
	if err == nil && best == -1 && und.any {
		// Last resort, off the decided path: no probe proved any count
		// feasible, but some ran out of budget. The first count the
		// greedy binding settles is feasible; its minimality is unproven.
		// firstFeasible stays nil, as on the warm path.
		if gub := greedyUpperBound(prob, lb, ub); gub >= 0 {
			searchSpan.SetInt("greedy_ub", int64(gub))
			best, searchCapped = gub, true
		}
	}
	searchSpan.SetInt("best", int64(best))
	searchSpan.End()
	if err != nil {
		return nil, err
	}
	if best == -1 {
		if und.any {
			return nil, fmt.Errorf("core: feasibility of the range up to %d buses undecided within the node budget: %w", ub, ErrSearchLimit)
		}
		return nil, fmt.Errorf("core: no feasible crossbar with at most %d buses (conflicts or bus cap too tight): %w", ub, ErrInfeasible)
	}

	// The warm search can prove the minimal count without a probe at
	// that count (the incumbent itself is the feasibility witness), and
	// so can the greedy last resort. When the binding phase is off,
	// both end on the feasibility probe at that count: the per-count
	// solve is deterministic, so warm and cold runs return one binding.
	if firstFeasible == nil && !opts.OptimizeBinding {
		res, err := probe(ctx, best, false, nil, 0)
		if err != nil {
			return nil, err
		}
		nodes += res.nodes
		firstFeasible = res
	}

	result := firstFeasible
	// Phase 2: optimal binding on the chosen configuration. The cached
	// binding, when valid at the chosen count, seeds the branch and
	// bound (output unchanged, subtrees that cannot beat it pruned).
	if opts.OptimizeBinding {
		if best != warmK {
			seedBus = nil
		}
		bctx, bindSpan := obs.Start(ctx, "core.bind")
		res, err := probe(bctx, best, true, seedBus, seedObj)
		bindSpan.End()
		if err != nil {
			return nil, err
		}
		nodes += res.nodes
		if res.feasible {
			result = res
		}
	}
	if result == nil || !result.feasible {
		// Unreachable unless a solver contract breaks: best was proven
		// feasible, so some phase must have produced a binding.
		return nil, fmt.Errorf("core: internal: no binding at proven-feasible count %d", best)
	}

	design := &Design{
		NumBuses:      best,
		BusOf:         result.busOf,
		MaxBusOverlap: result.maxOverlap,
		Conflicts:     nConf,
		SearchNodes:   nodes,
		Capped:        result.capped || searchCapped,
	}
	// Publish the finished design for reuse. Capped results are
	// excluded: they depend on the node budget, and MaxNodes is
	// deliberately outside the options fingerprint precisely because
	// un-capped results are budget-independent.
	if opts.Cache != nil && !design.Capped {
		opts.Cache.Store(ctx, a, opts, design)
	}
	rec.Emit(obs.Event{Kind: obs.EvDesignDone, K: design.NumBuses,
		Val: design.MaxBusOverlap, Aux: design.SearchNodes, Flag: design.Capped})
	return design, nil
}

// probeCloseEvent classifies one probe's outcome for the flight
// journal: Who is the outcome label, Val the objective when the probe
// settled feasible (or its best incumbent when capped), Aux the solver
// nodes spent.
func probeCloseEvent(k int, optimize bool, res *assignResult, err error) obs.Event {
	e := obs.Event{Kind: obs.EvProbeClose, K: k, Flag: optimize}
	switch {
	case err != nil:
		switch {
		case errors.Is(err, ErrSearchLimit):
			e.Who = "exhausted"
			if res != nil {
				e.Aux = res.nodes
			}
		case errors.Is(err, ErrCanceled):
			e.Who = "canceled"
		default:
			e.Who = "error"
		}
	case res == nil:
		e.Who = "error"
	case res.capped:
		e.Who, e.Val, e.Aux = "capped", res.maxOverlap, res.nodes
	case res.feasible:
		e.Who, e.Val, e.Aux = "feasible", res.maxOverlap, res.nodes
	default:
		e.Who, e.Aux = "infeasible", res.nodes
	}
	return e
}

// BuildConflicts computes the conflict matrix (paper Eq. 2) from the
// windowed analysis: pairs whose overlap exceeds the threshold fraction
// of the window size in any window, and — when SeparateCritical is set
// — pairs whose critical streams overlap in any window. A frontier
// point of the pair summary exceeds a nonnegative threshold exactly
// when some window of the pair does, so the cost is O(R² + summary
// points) however many windows there are.
func BuildConflicts(a *trace.Analysis, opts Options) [][]bool {
	nT := a.NumReceivers
	conflicts := make([][]bool, nT)
	for i := range conflicts {
		conflicts[i] = make([]bool, nT)
	}
	for _, p := range a.Pairs {
		c := opts.SeparateCritical && p.Critical
		if !c && opts.OverlapThreshold >= 0 {
			for _, pt := range p.Frontier {
				if float64(pt.Cycles) > opts.OverlapThreshold*float64(pt.Len) {
					c = true
					break
				}
			}
		}
		conflicts[p.I][p.J], conflicts[p.J][p.I] = c, c
	}
	return conflicts
}

// Validate checks that a design satisfies all constraints of the
// analysis it was produced from; used by tests and by callers that
// construct bindings manually.
func (d *Design) Validate(a *trace.Analysis, opts Options) error {
	nT := a.NumReceivers
	if len(d.BusOf) != nT {
		return fmt.Errorf("core: binding covers %d receivers, want %d", len(d.BusOf), nT)
	}
	maxPerBus := opts.MaxPerBus
	if maxPerBus <= 0 || maxPerBus > nT {
		maxPerBus = nT
	}
	count := make([]int, d.NumBuses)
	for r, b := range d.BusOf {
		if b < 0 || b >= d.NumBuses {
			return fmt.Errorf("core: receiver %d on bus %d outside [0,%d)", r, b, d.NumBuses)
		}
		count[b]++
	}
	for b, c := range count {
		if c > maxPerBus {
			return fmt.Errorf("core: bus %d has %d receivers, cap is %d", b, c, maxPerBus)
		}
	}
	// Per-window bandwidth (Eq. 4). A window without traffic loads no
	// bus, so only the windows with traffic are checked.
	cols, vals := a.Comm.DenseColumns()
	load := make([]int64, d.NumBuses)
	for k, m := range cols {
		clear(load)
		for r, b := range d.BusOf {
			load[b] += vals[k*nT+r]
		}
		for b, l := range load {
			if l > a.WindowLen(m) {
				return fmt.Errorf("core: bus %d overloaded in window %d: %d > %d", b, m, l, a.WindowLen(m))
			}
		}
	}
	// Conflicts (Eq. 7).
	conflicts := BuildConflicts(a, opts)
	for i := 0; i < nT; i++ {
		for j := i + 1; j < nT; j++ {
			if conflicts[i][j] && d.BusOf[i] == d.BusOf[j] {
				return fmt.Errorf("core: conflicting receivers %d and %d share bus %d", i, j, d.BusOf[i])
			}
		}
	}
	return nil
}

// MaxOverlapOf computes the binding-phase objective for an arbitrary
// binding: the maximum per-bus sum of pairwise aggregate overlaps.
func MaxOverlapOf(a *trace.Analysis, numBuses int, busOf []int) int64 {
	per := make([]int64, numBuses)
	for i := 0; i < a.NumReceivers; i++ {
		for j := i + 1; j < a.NumReceivers; j++ {
			if busOf[i] == busOf[j] {
				per[busOf[i]] += a.OM.At(i, j)
			}
		}
	}
	var best int64
	for _, v := range per {
		if v > best {
			best = v
		}
	}
	return best
}
