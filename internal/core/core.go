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
// Two interchangeable solution engines are provided: a specialized
// exact branch-and-bound over the assignment structure (the default,
// see assign.go) and a literal MILP formulation of Eq. 3–9/11 solved
// with internal/milp (see formulate.go), substituting for CPLEX.
package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/conc"
	"repro/internal/milp"
	"repro/internal/obs"
	"repro/internal/trace"
)

// Methodology instruments (see internal/obs): designs run,
// feasibility/binding probes dispatched (including speculative ones
// later obsoleted), branch-and-bound nodes expanded by the specialized
// assignment solver, and the per-probe wall-time distribution. MILP-
// engine probes account their nodes under the milp.* metrics instead.
var (
	metDesigns = obs.NewCounter("core.designs")
	metProbes  = obs.NewCounter("core.probes")
	metNodes   = obs.NewCounter("core.solver_nodes")
	metProbeNS = obs.NewHistogram("core.probe_ns")
)

// Engine selects the solver used for feasibility and binding. The
// values are fixed because Options.Fingerprint hashes them: 2 is
// unassigned.
type Engine int

const (
	// EngineBranchBound is the specialized exact assignment solver.
	EngineBranchBound Engine = 0
	// EngineMILP solves the paper's literal MILP formulation with the
	// built-in branch-and-bound LP solver. Practical for small
	// instances; used to cross-validate EngineBranchBound.
	EngineMILP Engine = 1
	// EnginePortfolio races the parallel branch and bound against the
	// warm-started MILP on every probe under one context — the first
	// proven answer cancels the rest — with annealing feeding incumbents
	// into the shared bound during the binding phase. Exact results
	// whenever either contestant settles within budget; past the budget
	// it degrades to the best incumbent of the contestants and the
	// annealing feeder, with Design.Capped set, instead of failing (see
	// portfolio.go). The engine for the 128–512-target scale where no
	// single solver dominates.
	EnginePortfolio Engine = 3
)

func (e Engine) String() string {
	switch e {
	case EngineBranchBound:
		return "branch-and-bound"
	case EngineMILP:
		return "milp"
	case EnginePortfolio:
		return "portfolio"
	}
	return fmt.Sprintf("Engine(%d)", int(e))
}

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
	// Engine selects the solver.
	Engine Engine
	// MaxNodes bounds the search effort per solve (0 = default).
	MaxNodes int64
	// Workers bounds the solver parallelism on two levels: up to Workers
	// candidate bus counts are probed concurrently during the
	// feasibility search (obsoleted probes canceled as soon as a sibling
	// result narrows the range past them), and each branch-and-bound
	// solve splits its search tree across up to Workers goroutines with
	// a shared pruning incumbent (see parallel.go). 0 means GOMAXPROCS;
	// 1 is fully serial. The designed crossbar is identical for every
	// Workers value: the search only narrows on proven feasibility
	// facts, each per-count solve is deterministic, and the parallel
	// branch and bound is bit-identical to the sequential one by
	// construction.
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
	if o.Workers < 0 {
		return fmt.Errorf("core: Workers %d is negative (0 means GOMAXPROCS)", o.Workers)
	}
	switch o.Engine {
	case EngineBranchBound, EngineMILP, EnginePortfolio:
	default:
		return fmt.Errorf("core: unknown engine %d", int(o.Engine))
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
		Engine:           EngineBranchBound,
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
	// Engine records which solver produced the design.
	Engine Engine
	// Capped reports a result that is feasible but not fully proven
	// within the node budget (Options.MaxNodes): the binding-phase
	// search ran out before proving optimality — BusOf is the best
	// incumbent found and MaxBusOverlap an upper bound on the optimum —
	// or, for EnginePortfolio only, some bus count below NumBuses
	// exhausted every contestant undecided, so NumBuses is feasible but
	// its minimality is unproven (anytime semantics; the other engines
	// fail such searches with ErrSearchLimit instead).
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

// errObsolete is the cancellation cause used to stop a speculative
// feasibility probe once a sibling's result proved it redundant. It
// never escapes this package.
var errObsolete = errors.New("core: probe obsoleted by sibling result")

// DesignCrossbar runs the full methodology on one direction's analysis.
func DesignCrossbar(a *trace.Analysis, opts Options) (*Design, error) {
	return DesignCrossbarCtx(context.Background(), a, opts)
}

// DesignCrossbarCtx is DesignCrossbar with cooperative cancellation and
// speculative parallel feasibility probing (see Options.Workers). The
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
	designSpan.SetInt("receivers", int64(nT))
	designSpan.SetStr("engine", opts.Engine.String())
	metDesigns.Inc()
	rec := obs.FlightRecorderFrom(ctx)
	rec.Emit(obs.Event{Kind: obs.EvDesignStart, Val: int64(nT), Who: opts.Engine.String()})

	// A content-addressed exact hit costs two fingerprints and a map
	// probe — checked before the conflict matrix or any solver state is
	// built, so a hit stays microseconds regardless of problem size.
	if opts.Cache != nil {
		if d, ok := opts.Cache.Lookup(ctx, a, opts); ok {
			designSpan.SetBool("cache_hit", true)
			designSpan.SetInt("buses", int64(d.NumBuses))
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

	lb := prob.lowerBound()
	if opts.MinBuses > lb {
		lb = opts.MinBuses
	}
	ub := nT
	if opts.MaxBuses > 0 && opts.MaxBuses < ub {
		ub = opts.MaxBuses
	}
	if lb > ub {
		lb = ub
	}

	// Near-hit warm start: a binding cached for a nearby problem. It is
	// a hint, never trusted — re-validated against THIS problem's
	// constraints first. Once validated it proves feasibility at its
	// bus count (narrowing the search to the counts below) and, for the
	// branch-and-bound engine, seeds the binding phase (see solveSeeded
	// for why the output stays bit-identical to a cold solve). The
	// other engines get the range narrowing only: their binding paths
	// are not seed-invariant, and warm results must equal cold ones.
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

	// The MILP engine shares one formulation skeleton (reduced windows,
	// pair selection) across every bus-count probe of this design run,
	// including the speculative parallel ones.
	var formulator *Formulator
	if opts.Engine == EngineMILP {
		formulator = NewFormulator(a, conflicts, maxPerBus)
	}
	workers := conc.Workers(opts.Workers)
	var pf *portfolio
	if opts.Engine == EnginePortfolio {
		pf = newPortfolio(prob, a, conflicts, maxPerBus, workers)
	}

	rawSolve := func(ctx context.Context, k int, optimize bool) (*assignResult, error) {
		switch {
		case opts.Engine == EngineMILP:
			return solveFormulated(ctx, formulator, k, optimize, milp.Options{})
		case opts.Engine == EnginePortfolio:
			return pf.solve(ctx, k, optimize)
		default:
			return prob.solveAuto(ctx, k, optimize, workers, nil, 0, nil)
		}
	}
	// Every probe — serial, speculative, or the final binding solve —
	// goes through this wrapper, so each one shows up as its own span
	// (child of core.search or core.bind) in the trace, as an open/close
	// pair in the flight journal, and as a sample in the probe wall-time
	// histogram.
	solve := func(ctx context.Context, k int, optimize bool) (*assignResult, error) {
		ctx, sp := obs.Start(ctx, "core.probe")
		defer sp.End()
		sp.SetInt("buses", int64(k))
		sp.SetBool("optimize", optimize)
		metProbes.Inc()
		rec.Emit(obs.Event{Kind: obs.EvProbeOpen, K: k, Flag: optimize})
		start := time.Now()
		res, err := rawSolve(ctx, k, optimize)
		metProbeNS.Observe(time.Since(start).Nanoseconds())
		if err == nil && res != nil {
			sp.SetBool("feasible", res.feasible)
			sp.SetInt("nodes", res.nodes)
		}
		rec.Emit(probeCloseEvent(k, optimize, res, err))
		return res, err
	}
	// solveWarm is the binding-phase probe with the cache incumbent
	// installed (EngineBranchBound only; see solveSeeded).
	solveWarm := func(ctx context.Context, k int, seedBus []int, seedObj int64) (*assignResult, error) {
		ctx, sp := obs.Start(ctx, "core.probe")
		defer sp.End()
		sp.SetInt("buses", int64(k))
		sp.SetBool("optimize", true)
		sp.SetBool("seeded", true)
		metProbes.Inc()
		rec.Emit(obs.Event{Kind: obs.EvProbeOpen, K: k, Flag: true})
		start := time.Now()
		res, err := prob.solveAuto(ctx, k, true, workers, seedBus, seedObj, nil)
		metProbeNS.Observe(time.Since(start).Nanoseconds())
		if err == nil && res != nil {
			sp.SetBool("feasible", res.feasible)
			sp.SetInt("nodes", res.nodes)
		}
		rec.Emit(probeCloseEvent(k, true, res, err))
		return res, err
	}

	// Phase 1: find the minimum feasible bus count. Feasibility is
	// monotone in the bus count (extra buses can stay unused), so an
	// interval-narrowing search is exact (paper Section 6); with
	// Workers > 1 several candidate counts are probed speculatively in
	// parallel, canceling probes a sibling result makes redundant. A
	// validated warm incumbent replaces the upper half of the search
	// outright (searchBelowIncumbent).
	sctx, searchSpan := obs.Start(ctx, "core.search")
	searchSpan.SetInt("lb", int64(lb))
	searchSpan.SetInt("ub", int64(ub))
	// The portfolio engine gets anytime semantics: probes undecided
	// after every contestant's budget are treated as infeasible so the
	// search keeps narrowing, and the tracker flags the design Capped
	// when its minimality rests on such an assumption. A greedy-success
	// upper bound pre-narrows the cold search range for free.
	var und undecidedTracker
	feasSolve := solve
	gub, gubRes := -1, (*assignResult)(nil)
	if opts.Engine == EnginePortfolio {
		feasSolve = und.wrap(solve)
		if warmK < 0 {
			gub, gubRes = greedyUpperBound(prob, lb, ub)
			if gub >= 0 {
				searchSpan.SetInt("greedy_ub", int64(gub))
			}
		}
	}
	var (
		best          int
		firstFeasible *assignResult
		nodes         int64
		err           error
	)
	if warmK >= 0 {
		searchSpan.SetBool("warm", true)
		best, firstFeasible, nodes, err = searchBelowIncumbent(sctx, lb, warmK, workers, feasSolve)
	} else {
		searchUB := ub
		if gub >= 0 && gub-1 < searchUB {
			searchUB = gub - 1
		}
		best, firstFeasible, nodes, err = searchMinFeasible(sctx, lb, searchUB, workers, feasSolve)
		if err == nil && best == -1 && gub >= 0 {
			best, firstFeasible = gub, gubRes
		}
	}
	searchSpan.SetInt("best", int64(best))
	searchSpan.End()
	if err != nil {
		return nil, err
	}
	if best == -1 {
		if und.anyUndecided() {
			return nil, fmt.Errorf("core: feasibility of the range up to %d buses undecided within the node budget: %w", ub, ErrSearchLimit)
		}
		return nil, fmt.Errorf("core: no feasible crossbar with at most %d buses (conflicts or bus cap too tight): %w", ub, ErrInfeasible)
	}
	searchCapped := und.cappedBelow(best)

	// The warm search can prove the minimal count without a probe at
	// that count (the incumbent itself is the feasibility witness).
	// When the binding phase is off, run the probe the cold search
	// would have ended with — the per-count solve is deterministic, so
	// the binding is the one a cold run returns.
	if firstFeasible == nil && !opts.OptimizeBinding {
		res, err := solve(ctx, best, false)
		if err != nil {
			return nil, err
		}
		nodes += res.nodes
		firstFeasible = res
	}

	result := firstFeasible
	// Phase 2: optimal binding on the chosen configuration.
	if opts.OptimizeBinding {
		bctx, bindSpan := obs.Start(ctx, "core.bind")
		var res *assignResult
		if seedBus != nil && best == warmK && opts.Engine == EngineBranchBound {
			// The cached binding is valid at the chosen count: seed the
			// branch and bound with it (output unchanged, subtrees that
			// cannot beat it pruned).
			res, err = solveWarm(bctx, best, seedBus, seedObj)
		} else {
			res, err = solve(bctx, best, true)
		}
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

	designSpan.SetInt("buses", int64(best))
	designSpan.SetInt("nodes", nodes)
	design := &Design{
		NumBuses:      best,
		BusOf:         result.busOf,
		MaxBusOverlap: result.maxOverlap,
		Conflicts:     nConf,
		SearchNodes:   nodes,
		Engine:        opts.Engine,
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
// — pairs whose critical streams overlap in any window.
func BuildConflicts(a *trace.Analysis, opts Options) [][]bool {
	nT := a.NumReceivers
	conflicts := make([][]bool, nT)
	for i := range conflicts {
		conflicts[i] = make([]bool, nT)
	}
	for i := 0; i < nT; i++ {
		for j := i + 1; j < nT; j++ {
			c := false
			for m := 0; m < a.NumWindows() && !c; m++ {
				if opts.OverlapThreshold >= 0 {
					limit := opts.OverlapThreshold * float64(a.WindowLen(m))
					if float64(a.PairOverlap(i, j, m)) > limit {
						c = true
					}
				}
				if opts.SeparateCritical && a.PairCritOverlap(i, j, m) > 0 {
					c = true
				}
			}
			conflicts[i][j], conflicts[j][i] = c, c
		}
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
	// Per-window bandwidth (Eq. 4).
	for m := 0; m < a.NumWindows(); m++ {
		load := make([]int64, d.NumBuses)
		for r, b := range d.BusOf {
			load[b] += a.Comm.At(r, m)
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
