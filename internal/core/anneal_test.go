package core

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/trace"
)

// annealProblem builds the assignment problem DesignCrossbar would
// build for a and opts, the one the portfolio's feeder anneals on.
func annealProblem(a *trace.Analysis, opts Options) *assignProblem {
	maxPerBus := opts.MaxPerBus
	if maxPerBus <= 0 || maxPerBus > a.NumReceivers {
		maxPerBus = a.NumReceivers
	}
	return newAssignProblem(a, BuildConflicts(a, opts), maxPerBus, opts.MaxNodes)
}

func TestAnnealBindingImprovesGreedyStart(t *testing.T) {
	// Build an instance with a clear optimal structure: two groups of
	// heavily-overlapping receivers; optimal binding interleaves them.
	events := []trace.Event{
		// Group A = {0,1,2} overlap pairwise by 100.
		{Start: 0, Len: 100, Receiver: 0},
		{Start: 0, Len: 100, Receiver: 1},
		{Start: 0, Len: 100, Receiver: 2},
		// Group B = {3,4,5} overlap pairwise by 100.
		{Start: 500, Len: 100, Receiver: 3},
		{Start: 500, Len: 100, Receiver: 4},
		{Start: 500, Len: 100, Receiver: 5},
	}
	a := mkAnalysis(t, 6, 1000, 1000, events)
	p := annealProblem(a, Options{OverlapThreshold: -1, MaxPerBus: 2})

	// A deliberately bad but feasible start: groups together.
	start := []int{0, 0, 1, 1, 2, 2} // bus0={0,1} overlap 100, bus1={2,3} 0, bus2={4,5} 100
	busOf, obj := p.anneal(context.Background(), 3, start)
	// Optimal: pair each A with a B: max overlap 0.
	if obj != 0 {
		t.Errorf("anneal objective = %d, want 0 (bindings %v)", obj, busOf)
	}
	if got := MaxOverlapOf(a, 3, busOf); got != obj {
		t.Errorf("reported objective %d != recomputed %d", obj, got)
	}
}

func TestAnnealBindingStaysFeasible(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for iter := 0; iter < 15; iter++ {
		a := randomAnalysis(t, rng, 4+rng.Intn(4))
		opts := Options{OverlapThreshold: 0.5, SeparateCritical: true, MaxPerBus: 3, OptimizeBinding: false}
		d, err := DesignCrossbar(a, opts)
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		busOf, obj := annealProblem(a, opts).anneal(context.Background(), d.NumBuses, d.BusOf)
		check := &Design{NumBuses: d.NumBuses, BusOf: busOf}
		if err := check.Validate(a, opts); err != nil {
			t.Fatalf("iter %d: anneal produced infeasible binding: %v", iter, err)
		}
		// d came from feasibility only (no binding optimization), so the
		// anneal may legitimately match its start but never worsen it.
		if startObj := MaxOverlapOf(a, d.NumBuses, d.BusOf); obj > startObj {
			t.Fatalf("iter %d: anneal worsened objective: %d > start %d", iter, obj, startObj)
		}
	}
}

// TestAnnealMatchesExactOnEasyInstances anneals the feasibility
// binding at the exact design's bus count: the heuristic must never
// beat the proven optimum, and its binding must satisfy every
// constraint.
func TestAnnealMatchesExactOnEasyInstances(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for iter := 0; iter < 10; iter++ {
		a := randomAnalysis(t, rng, 3+rng.Intn(3))
		opts := Options{OverlapThreshold: 0.5, MaxPerBus: 3, OptimizeBinding: true}
		exact, err := DesignCrossbar(a, opts)
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		feasOpts := opts
		feasOpts.OptimizeBinding = false
		feas, err := DesignCrossbar(a, feasOpts)
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		if feas.NumBuses != exact.NumBuses {
			t.Fatalf("iter %d: bus counts differ: %d vs %d", iter, feas.NumBuses, exact.NumBuses)
		}
		busOf, obj := annealProblem(a, opts).anneal(context.Background(), exact.NumBuses, feas.BusOf)
		if obj < exact.MaxBusOverlap {
			t.Errorf("iter %d: heuristic beat the exact optimum: %d < %d", iter, obj, exact.MaxBusOverlap)
		}
		// On these tiny instances the anneal should find the optimum.
		if obj > exact.MaxBusOverlap {
			t.Logf("iter %d: anneal suboptimal: %d vs %d (allowed but logged)", iter, obj, exact.MaxBusOverlap)
		}
		heur := &Design{NumBuses: exact.NumBuses, BusOf: busOf}
		if err := heur.Validate(a, opts); err != nil {
			t.Errorf("iter %d: anneal binding invalid: %v", iter, err)
		}
	}
}

// TestAnnealStopsOnCanceledContext pins the feeder's lifetime
// contract: an anneal handed a done context returns its start binding
// at once instead of running its full move schedule.
func TestAnnealStopsOnCanceledContext(t *testing.T) {
	a := stressAnalysis(t, 1)
	p := annealProblem(a, DefaultOptions())
	k, res := greedyUpperBound(p, p.lowerBound(), a.NumReceivers)
	if k < 0 {
		t.Fatal("greedy found no binding near the lower bound")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	busOf, obj := p.anneal(ctx, k, res.busOf)
	if obj != res.maxOverlap {
		t.Errorf("canceled anneal objective %d, want its start %d", obj, res.maxOverlap)
	}
	for r := range busOf {
		if busOf[r] != res.busOf[r] {
			t.Fatalf("canceled anneal moved receiver %d", r)
		}
	}
}
