package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/benchprobs"
	"repro/internal/trace"
)

// testProblem builds an assignProblem from an analysis under the
// default conflict options.
func testProblem(t *testing.T, a *trace.Analysis, maxNodes int64) *assignProblem {
	t.Helper()
	return newAssignProblem(a, BuildConflicts(a, DefaultOptions()), 4, maxNodes)
}

func sameResult(t *testing.T, label string, want, got *assignResult) {
	t.Helper()
	if want.feasible != got.feasible {
		t.Fatalf("%s: feasible %v, want %v", label, got.feasible, want.feasible)
	}
	if want.maxOverlap != got.maxOverlap {
		t.Fatalf("%s: objective %d, want %d", label, got.maxOverlap, want.maxOverlap)
	}
	if want.capped != got.capped {
		t.Fatalf("%s: capped %v, want %v", label, got.capped, want.capped)
	}
	if len(want.busOf) != len(got.busOf) {
		t.Fatalf("%s: binding length %d, want %d", label, len(got.busOf), len(want.busOf))
	}
	for i := range want.busOf {
		if want.busOf[i] != got.busOf[i] {
			t.Fatalf("%s: binding differs at receiver %d: %d, want %d\ngot:  %v\nwant: %v",
				label, i, got.busOf[i], want.busOf[i], got.busOf, want.busOf)
		}
	}
}

// TestSolveSeededFedBound checks that a fed bound (the annealing feeder
// of the portfolio) cannot change the answer — only how much is
// explored. The fed bound is the known optimum, the most aggressive
// valid feed possible.
func TestSolveSeededFedBound(t *testing.T) {
	a := benchprobs.Analysis12()
	prob := testProblem(t, a, 0)
	ctx := context.Background()
	k := prob.lowerBound()
	want, err := prob.solveSeeded(ctx, k, true, nil, 0, nil)
	if err != nil || !want.feasible {
		t.Fatalf("unfed: feasible=%v err=%v", want != nil && want.feasible, err)
	}
	fed := newSharedBound()
	fed.offerBound(want.maxOverlap) // optimum, as if annealing found it instantly
	got, err := prob.solveSeeded(ctx, k, true, nil, 0, fed)
	if err != nil {
		t.Fatalf("fed: %v", err)
	}
	sameResult(t, "fed", want, got)
}

// TestSolveSeededFedBoundStress lowers the fed bound from a racing
// goroutine while repeated solves run — meaningful under -race, and a
// determinism check besides: every iteration must reproduce the
// unfed binding.
func TestSolveSeededFedBoundStress(t *testing.T) {
	a := benchprobs.Analysis12()
	prob := testProblem(t, a, 0)
	ctx := context.Background()
	k := prob.lowerBound()
	want, err := prob.solveSeeded(ctx, k, true, nil, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	for iter := 0; iter < 8; iter++ {
		fed := newSharedBound()
		done := make(chan struct{})
		go func() {
			// Feed progressively tighter valid bounds, racing the search.
			for obj := want.maxOverlap + 3; obj >= want.maxOverlap; obj-- {
				fed.offerBound(obj)
			}
			close(done)
		}()
		got, err := prob.solveSeeded(ctx, k, true, nil, 0, fed)
		<-done
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		sameResult(t, "stress", want, got)
	}
}

// TestSolveSeededCancellation cancels a deliberately hopeless solve
// (32 receivers at the lower bound, which exhausts any budget) and
// expects a prompt wrapped ErrCanceled.
func TestSolveSeededCancellation(t *testing.T) {
	a := benchprobs.Analysis32()
	prob := testProblem(t, a, 0)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	start := time.Now()
	go func() {
		_, err := prob.solveSeeded(ctx, prob.lowerBound(), false, nil, 0, nil)
		done <- err
	}()
	time.Sleep(50 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, ErrCanceled) {
			t.Fatalf("got %v, want ErrCanceled", err)
		}
		if elapsed := time.Since(start); elapsed > 5*time.Second {
			t.Fatalf("cancellation took %v", elapsed)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("solve ignored cancellation")
	}
}

// TestSearchNodesPaperTraces pins the solver nodes of the default
// design of each paper trace. Every design runs one search thread, so
// the count is deterministic; a change means the search visits a
// different tree.
func TestSearchNodesPaperTraces(t *testing.T) {
	want := map[string]int64{
		"mat1.req": 60, "mat1.resp": 37,
		"mat2.req": 27, "mat2.resp": 11,
		"fft.req": 64, "fft.resp": 15,
		"qsort.req": 21, "qsort.resp": 8,
		"des.req": 25, "des.resp": 10,
	}
	seen := 0
	for _, fx := range paperWindowAnalyses(t) {
		n, ok := want[fx.name]
		if !ok {
			continue
		}
		seen++
		d, err := DesignCrossbar(fx.a, DefaultOptions())
		if err != nil {
			t.Fatalf("%s: %v", fx.name, err)
		}
		if d.SearchNodes != n {
			t.Errorf("%s: %d search nodes, want %d", fx.name, d.SearchNodes, n)
		}
	}
	if seen != len(want) {
		t.Fatalf("found %d of the %d paper traces", seen, len(want))
	}
}
