package core

import (
	"context"
	"errors"
	"testing"

	"repro/internal/benchprobs"
	"repro/internal/conc"
)

// TestSearchMinFeasibleRecoversProbePanic: a probe that panics on a
// speculative goroutine fails the search with the recovered panic
// instead of crashing the process.
func TestSearchMinFeasibleRecoversProbePanic(t *testing.T) {
	// probePoints(1, 20, 4) is 5, 9, 13, 17: k=9 runs in the first
	// speculative round.
	solve := func(ctx context.Context, k int, optimize bool) (*assignResult, error) {
		if k == 9 {
			panic("probe exploded")
		}
		return &assignResult{feasible: k >= 7, nodes: 1}, nil
	}
	best, _, _, err := searchMinFeasible(context.Background(), 1, 20, 4, solve)
	var pe *conc.PanicError
	if !errors.As(err, &pe) || pe.Value != "probe exploded" {
		t.Fatalf("err = %v, want the recovered probe panic", err)
	}
	if best != -1 {
		t.Errorf("best = %d, want -1", best)
	}
}

// TestSolveParallelRecoversWorkerPanic: a branch-and-bound worker that
// panics fails the parallel solve instead of crashing the process. The
// problem is corrupted so that only the workers' DFS can trip over it:
// the last target in visit order loses its conflict row, which the
// serial frontier expansion never reads.
func TestSolveParallelRecoversWorkerPanic(t *testing.T) {
	prob := parallelTestProblem(t, benchprobs.Analysis8(), 0)
	prob.conflict = append([][]bool(nil), prob.conflict...)
	prob.conflict[prob.order[prob.nT-1]] = nil
	_, err := prob.solveParallel(context.Background(), prob.nT, false, 4, nil, 0, nil)
	var pe *conc.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want a recovered worker panic", err)
	}
}
