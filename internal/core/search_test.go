package core

import (
	"context"
	"errors"
	"slices"
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

// TestSolveSeededOptimalSeed checks that a warm seed cannot change the
// answer, only how much is explored. The seed is the proven optimum
// itself, the tightest valid seed possible.
func TestSolveSeededOptimalSeed(t *testing.T) {
	a := benchprobs.Analysis12()
	prob := testProblem(t, a, 0)
	ctx := context.Background()
	k, _ := prob.lowerBound()
	want, err := prob.solveSeeded(ctx, k, true, nil, 0)
	if err != nil || !want.feasible {
		t.Fatalf("unseeded: feasible=%v err=%v", want != nil && want.feasible, err)
	}
	got, err := prob.solveSeeded(ctx, k, true, want.busOf, want.maxOverlap)
	if err != nil {
		t.Fatalf("seeded: %v", err)
	}
	sameResult(t, "seeded", want, got)
	if got.nodes > want.nodes {
		t.Errorf("seeded search expanded %d nodes, unseeded %d", got.nodes, want.nodes)
	}
}

// TestSolveSeededCappedKeepsSeedObjective: a binding search cut short
// by its node budget before it improves on the warm seed returns the
// seed with the seed's own objective, not the tightened bound it
// searched under.
func TestSolveSeededCappedKeepsSeedObjective(t *testing.T) {
	a := benchprobs.Analysis12()
	full := testProblem(t, a, 0)
	k, _ := full.lowerBound()
	seed, err := full.solveSeeded(context.Background(), k, true, nil, 0)
	if err != nil || !seed.feasible {
		t.Fatalf("uncapped solve at %d buses: feasible=%v err=%v", k, seed != nil && seed.feasible, err)
	}
	capped := testProblem(t, a, 1)
	got, err := capped.solveSeeded(context.Background(), k, true, seed.busOf, seed.maxOverlap)
	if err != nil {
		t.Fatal(err)
	}
	if !got.capped || !slices.Equal(got.busOf, seed.busOf) {
		t.Fatalf("1-node seeded solve: capped %v, binding %v; want the capped seed %v", got.capped, got.busOf, seed.busOf)
	}
	if want := MaxOverlapOfMatrix(capped.om, k, got.busOf); got.maxOverlap != want {
		t.Errorf("capped seed reported objective %d, its binding's is %d", got.maxOverlap, want)
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
	k, _ := prob.lowerBound()
	start := time.Now()
	go func() {
		_, err := prob.solveSeeded(ctx, k, false, nil, 0)
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
// different tree. The binding probe's count covers both of its passes
// (see bindExact).
func TestSearchNodesPaperTraces(t *testing.T) {
	want := map[string]int64{
		"mat1.req": 75, "mat1.resp": 49,
		"mat2.req": 27, "mat2.resp": 11,
		"fft.req": 81, "fft.resp": 15,
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
