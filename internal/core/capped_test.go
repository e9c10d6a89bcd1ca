package core

import (
	"context"
	"errors"
	"reflect"
	"slices"
	"testing"

	"repro/internal/benchprobs"
	"repro/internal/obs"
	"repro/internal/trace"
)

// cappedAnalysis builds a problem whose feasibility dive is a few
// nodes but whose exact binding search is combinatorial: 8 receivers
// with pairwise overlaps, no conflicts, light loads, forced onto 3
// buses.
func cappedAnalysis(t *testing.T) *trace.Analysis {
	t.Helper()
	tr := &trace.Trace{NumReceivers: 8, NumSenders: 1, Horizon: 800}
	for r := 0; r < 8; r++ {
		// Every receiver shares [0,20), so all pairs overlap and any
		// grouping has a positive objective — no zero-cost shortcut
		// ends the binding search early.
		tr.Events = append(tr.Events,
			trace.Event{Start: 0, Len: 20 + 2*int64(r), Sender: 0, Receiver: r},
		)
	}
	a, err := trace.AnalyzeCtx(context.Background(), tr, 100)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// TestCappedBindingSurfaced is the regression test for the silent
// suboptimal-capped-binding bug: an optimize-mode solve that exhausts
// Options.MaxNodes used to return its greedy incumbent as if it were
// the proven optimum. The truncation must now surface as
// Design.Capped.
func TestCappedBindingSurfaced(t *testing.T) {
	a := cappedAnalysis(t)
	opts := Options{
		OverlapThreshold: -1,
		OptimizeBinding:  true,
		MinBuses:         3,
		MaxNodes:         20, // enough for the feasibility dive, far short of the binding tree
	}
	capped, err := DesignCrossbar(a, opts)
	if err != nil {
		t.Fatalf("capped design errored: %v", err)
	}
	if !capped.Capped {
		t.Fatalf("node-budget-exhausted binding not flagged: %+v", capped)
	}

	opts.MaxNodes = 0 // default budget: the search completes
	full, err := DesignCrossbar(a, opts)
	if err != nil {
		t.Fatalf("uncapped design errored: %v", err)
	}
	if full.Capped {
		t.Fatalf("completed search flagged as capped: %+v", full)
	}
	if full.MaxBusOverlap > capped.MaxBusOverlap {
		t.Errorf("proven optimum %d worse than capped incumbent %d",
			full.MaxBusOverlap, capped.MaxBusOverlap)
	}
	// The capped run must still hand back a feasible binding (the
	// incumbent), just not a proven-optimal one.
	if err := capped.Validate(a, opts); err != nil {
		t.Errorf("capped incumbent violates constraints: %v", err)
	}
}

// TestCappedFeasibilityStillErrors pins the companion behavior: a
// feasibility-phase budget exhaustion has no incumbent to fall back on
// and must keep failing loudly with ErrSearchLimit rather than being
// misread as "infeasible".
func TestCappedFeasibilityStillErrors(t *testing.T) {
	a := cappedAnalysis(t)
	opts := Options{
		OverlapThreshold: 0.0001, // dense conflicts make the dive backtrack
		OptimizeBinding:  false,
		MaxNodes:         2,
	}
	_, err := DesignCrossbar(a, opts)
	if !errors.Is(err, ErrSearchLimit) {
		t.Fatalf("want ErrSearchLimit from a 2-node budget, got %v", err)
	}
}

// TestDesign32TargetsCapped pins the capped binding fallback: when the
// binding search runs out of budget, the annealed greedy binding is as
// much a fallback as the search's incumbent, so the capped design is
// never worse than the anneal from the greedy start.
func TestDesign32TargetsCapped(t *testing.T) {
	a := stressAnalysis(t, 1)
	opts := DefaultOptions()
	opts.MaxNodes = 1000
	d, err := DesignCrossbar(a, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Validate(a, opts); err != nil {
		t.Fatalf("capped design invalid: %v", err)
	}
	if !d.Capped {
		t.Fatalf("1000-node budget settled the 32-target binding; the fallback is not exercised")
	}
	p := annealProblem(a, opts)
	greedy, _, ok := p.greedyBinding(d.NumBuses)
	if !ok {
		t.Fatalf("greedy found no binding at %d buses", d.NumBuses)
	}
	if _, annObj := p.anneal(context.Background(), d.NumBuses, greedy); d.MaxBusOverlap > annObj {
		t.Errorf("capped design objective %d, worse than the anneal %d", d.MaxBusOverlap, annObj)
	}
}

// TestCappedDesignDeterminism designs a capped instance three times and
// expects the whole Design each time, SearchNodes included: the
// fallback anneal runs on the designing goroutine, after the search.
func TestCappedDesignDeterminism(t *testing.T) {
	a := stressAnalysis(t, 1)
	opts := DefaultOptions()
	opts.MaxNodes = 1000
	first, err := DesignCrossbar(a, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !first.Capped {
		t.Fatal("design not capped; the fallback is not exercised")
	}
	for i := 1; i < 3; i++ {
		d, err := DesignCrossbar(a, opts)
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		if !reflect.DeepEqual(d, first) {
			t.Fatalf("run %d: %+v, want %+v", i, d, first)
		}
	}
}

// TestCappedDesignPins pins the capped designs of three instances whose
// node budget runs out: buses, objective and binding. The first has
// every feasibility probe decided and a binding search cut short; the
// second decides no probe, so the greedy scan picks the count; the
// third has undecided probes below its count and a capped binding.
// These designs equal what the former portfolio engine returned.
func TestCappedDesignPins(t *testing.T) {
	for _, tc := range []struct {
		name     string
		a        *trace.Analysis
		maxNodes int64
		buses    int
		obj      int64
		busOf    []int
	}{
		{"stress1/1000", stressAnalysis(t, 1), 1000, 8, 48,
			[]int{0, 4, 6, 4, 6, 7, 7, 0, 5, 6, 5, 2, 1, 5, 2, 5, 3, 2, 3, 3, 7, 0, 4, 1, 2, 3, 0, 7, 4, 1, 1, 6}},
		{"stress3/3", stressAnalysis(t, 3), 3, 8, 13,
			[]int{4, 6, 4, 3, 3, 2, 6, 2, 0, 0, 2, 6, 5, 3, 0, 0, 6, 4, 1, 1, 1, 7, 3, 7, 2, 5, 5, 5, 7, 1, 7, 4}},
		{"analysis32/1e6", benchprobs.Analysis32(), 1_000_000, 10, 1810,
			[]int{6, 5, 4, 2, 7, 2, 1, 3, 8, 9, 0, 1, 9, 7, 7, 0, 8, 6, 5, 5, 8, 4, 4, 6, 8, 3, 1, 3, 9, 9, 0, 2}},
	} {
		opts := DefaultOptions()
		opts.MaxNodes = tc.maxNodes
		d, err := DesignCrossbar(tc.a, opts)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if d.NumBuses != tc.buses || d.MaxBusOverlap != tc.obj || !d.Capped || !slices.Equal(d.BusOf, tc.busOf) {
			t.Errorf("%s: %d buses, objective %d, capped %v, binding %v; want %d, %d, capped, %v",
				tc.name, d.NumBuses, d.MaxBusOverlap, d.Capped, d.BusOf, tc.buses, tc.obj, tc.busOf)
		}
		if err := d.Validate(tc.a, opts); err != nil {
			t.Errorf("%s: capped design invalid: %v", tc.name, err)
		}
	}
}

// TestDesignNodeLimitSurfaces pins the contract of an absurdly small
// budget: the design either fails with a classified ErrSearchLimit or
// returns a Capped design that satisfies every constraint. It never
// passes an unproven design off as proven.
func TestDesignNodeLimitSurfaces(t *testing.T) {
	a := stressAnalysis(t, 3)
	opts := DefaultOptions()
	opts.MaxNodes = 3
	d, err := DesignCrossbar(a, opts)
	if err != nil {
		if !errors.Is(err, ErrSearchLimit) {
			t.Fatalf("err = %v, want ErrSearchLimit", err)
		}
		return
	}
	if !d.Capped {
		t.Fatalf("3-node budget returned an uncapped design: %+v", d)
	}
	if err := d.Validate(a, opts); err != nil {
		t.Fatalf("capped design invalid: %v", err)
	}
}

// TestBindAnytimeCanceledDuringAnneal cancels a capped binding probe
// after its search, while the fallback anneal runs: the probe fails
// with ErrCanceled instead of returning a half-annealed binding. The
// 1000-node search never reaches a node-boundary poll, so the one poll
// the context allows is the search's entry check.
func TestBindAnytimeCanceledDuringAnneal(t *testing.T) {
	a := stressAnalysis(t, 1)
	opts := DefaultOptions()
	opts.MaxNodes = 1000
	p := annealProblem(a, opts)
	ctx := newCountingCtx(1)
	_, err := p.bindAnytime(ctx, 8, nil, 0)
	if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want ErrCanceled wrapping context.Canceled", err)
	}
	if ctx.polls.Load() < 2 {
		t.Fatalf("%d context polls: the anneal never ran", ctx.polls.Load())
	}
}

// TestCappedDesignCountsUndecidedNodes: a feasibility probe that runs
// out of budget still spent its nodes. At a 30-node budget every
// feasibility dive of stressAnalysis(1) (33 nodes each) comes back
// undecided; each such probe must report at least the budget in its
// probe_close event, and the design's SearchNodes must include all of
// them.
func TestCappedDesignCountsUndecidedNodes(t *testing.T) {
	const budget = 30
	a := stressAnalysis(t, 1)
	opts := DefaultOptions()
	opts.MaxNodes = budget
	rec := obs.NewFlightRecorder(obs.DefaultFlightCapacity)
	d, err := DesignCrossbarCtx(obs.WithFlightRecorder(context.Background(), rec), a, opts)
	if err != nil {
		t.Fatal(err)
	}
	var undecided, probeNodes int64
	for _, e := range rec.Events() {
		if e.Kind != obs.EvProbeClose {
			continue
		}
		probeNodes += e.Aux
		if e.Who != "exhausted" {
			continue
		}
		undecided++
		if e.Aux < budget {
			t.Errorf("undecided probe at k=%d reports %d nodes, want at least %d", e.K, e.Aux, budget)
		}
	}
	if undecided == 0 {
		t.Fatal("no probe ran out of budget; the undecided path is not exercised")
	}
	if d.SearchNodes < undecided*budget {
		t.Errorf("SearchNodes = %d with %d undecided probes, want at least %d", d.SearchNodes, undecided, undecided*budget)
	}
	if d.SearchNodes != probeNodes {
		t.Errorf("SearchNodes = %d, probe_close events sum to %d", d.SearchNodes, probeNodes)
	}
}
