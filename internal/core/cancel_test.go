package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync/atomic"
	"testing"
	"time"
)

// countingCtx is a context whose Err flips to context.Canceled after
// `limit` polls. It makes "cancel mid-design" deterministic: the n-th
// cooperative cancellation checkpoint the solver reaches observes the
// cancellation, independent of wall-clock timing. Its Done channel is
// nil, so it only works on code paths that poll Err directly — i.e.
// with Options.Workers == 1, where the search passes the context
// straight through to the solvers.
type countingCtx struct {
	context.Context
	polls atomic.Int64
	limit int64
}

func newCountingCtx(limit int64) *countingCtx {
	return &countingCtx{Context: context.Background(), limit: limit}
}

func (c *countingCtx) Err() error {
	if c.polls.Add(1) > c.limit {
		return context.Canceled
	}
	return nil
}

func TestDesignCtxPreCanceled(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := randomAnalysis(t, rng, 5)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, eng := range []Engine{EngineBranchBound, EngineMILP, EnginePortfolio} {
		opts := Options{OverlapThreshold: 0.4, MaxPerBus: 3, Engine: eng}
		_, err := DesignCrossbarCtx(ctx, a, opts)
		if !errors.Is(err, ErrCanceled) {
			t.Errorf("%s: err = %v, want ErrCanceled", eng, err)
		}
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err = %v, want to also wrap context.Canceled", eng, err)
		}
	}
}

func TestDesignCtxExpiredDeadline(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := randomAnalysis(t, rng, 5)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	_, err := DesignCrossbarCtx(ctx, a, Options{OverlapThreshold: 0.4, MaxPerBus: 3})
	if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("err = %v, want ErrCanceled wrapping context.DeadlineExceeded", err)
	}
}

// TestDesignCtxCanceledMidSearch cancels at successive cooperative
// checkpoints (search-loop boundary, solver entry, node-boundary poll)
// and checks that every interruption surfaces as a wrapped ErrCanceled
// from both the branch-and-bound and the MILP paths.
func TestDesignCtxCanceledMidSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	a := randomAnalysis(t, rng, 7)
	for _, eng := range []Engine{EngineBranchBound, EngineMILP} {
		opts := Options{
			OverlapThreshold: 0.3,
			MaxPerBus:        3,
			OptimizeBinding:  true,
			Engine:           eng,
			Workers:          1, // serial search: ctx reaches the solver directly
		}
		canceledRuns := 0
		for _, limit := range []int64{1, 2, 3, 5, 8, 13, 1 << 40} {
			ctx := newCountingCtx(limit)
			d, err := DesignCrossbarCtx(ctx, a, opts)
			if err == nil {
				if limit < 3 {
					t.Errorf("%s: limit %d: design completed before any checkpoint fired", eng, limit)
				}
				if d == nil {
					t.Fatalf("%s: nil design without error", eng)
				}
				continue
			}
			canceledRuns++
			if !errors.Is(err, ErrCanceled) {
				t.Errorf("%s: limit %d: err = %v, want ErrCanceled", eng, limit, err)
			}
			if !errors.Is(err, context.Canceled) {
				t.Errorf("%s: limit %d: err = %v, want to also wrap context.Canceled", eng, limit, err)
			}
		}
		if canceledRuns == 0 {
			t.Errorf("%s: no limit produced a cancellation", eng)
		}
	}
}

// TestSearchMinFeasibleDeterministic: for every feasibility threshold
// and worker count, the speculative multi-point bisection converges to
// the same minimal feasible k (and the same solver result) as the
// serial binary search.
func TestSearchMinFeasibleDeterministic(t *testing.T) {
	const lb, ub = 1, 10
	for thr := lb; thr <= ub+1; thr++ {
		for workers := 1; workers <= 5; workers++ {
			solve := func(ctx context.Context, k int, optimize bool) (*assignResult, error) {
				return &assignResult{feasible: k >= thr, busOf: []int{k}, nodes: 1}, nil
			}
			best, res, nodes, err := searchMinFeasible(context.Background(), lb, ub, workers, solve)
			if err != nil {
				t.Fatalf("thr=%d workers=%d: %v", thr, workers, err)
			}
			if thr > ub {
				if best != -1 {
					t.Errorf("thr=%d workers=%d: best = %d, want -1 (infeasible)", thr, workers, best)
				}
				continue
			}
			if best != thr {
				t.Errorf("thr=%d workers=%d: best = %d, want thr", thr, workers, best)
			}
			if res == nil || len(res.busOf) != 1 || res.busOf[0] != thr {
				t.Errorf("thr=%d workers=%d: result is not the minimal-k solve: %+v", thr, workers, res)
			}
			if nodes < 1 {
				t.Errorf("thr=%d workers=%d: nodes = %d", thr, workers, nodes)
			}
		}
	}
}

func TestSearchMinFeasiblePropagatesSolveError(t *testing.T) {
	boom := errors.New("solver exploded")
	for _, workers := range []int{1, 3} {
		solve := func(ctx context.Context, k int, optimize bool) (*assignResult, error) {
			return nil, fmt.Errorf("k=%d: %w", k, boom)
		}
		best, _, _, err := searchMinFeasible(context.Background(), 1, 8, workers, solve)
		if !errors.Is(err, boom) {
			t.Errorf("workers=%d: err = %v, want solver error", workers, err)
		}
		if best != -1 {
			t.Errorf("workers=%d: best = %d, want -1", workers, best)
		}
	}
}

func TestProbePoints(t *testing.T) {
	if got := probePoints(2, 10, 1); len(got) != 1 || got[0] != 6 {
		t.Errorf("probePoints(2,10,1) = %v, want [6] (binary-search midpoint)", got)
	}
	if got := probePoints(3, 3, 4); len(got) != 1 || got[0] != 3 {
		t.Errorf("probePoints(3,3,4) = %v, want [3]", got)
	}
	for _, tc := range []struct{ lo, hi, w int }{
		{1, 10, 2}, {1, 10, 3}, {1, 10, 10}, {1, 10, 50}, {5, 6, 4}, {1, 2, 1},
	} {
		pts := probePoints(tc.lo, tc.hi, tc.w)
		if len(pts) == 0 {
			t.Fatalf("probePoints(%d,%d,%d) empty", tc.lo, tc.hi, tc.w)
		}
		last := tc.lo - 1
		for _, k := range pts {
			if k < tc.lo || k > tc.hi {
				t.Errorf("probePoints(%d,%d,%d): point %d out of range", tc.lo, tc.hi, tc.w, k)
			}
			if k <= last {
				t.Errorf("probePoints(%d,%d,%d): %v not strictly increasing", tc.lo, tc.hi, tc.w, pts)
			}
			last = k
		}
		if len(pts) > tc.w {
			t.Errorf("probePoints(%d,%d,%d): %d points > w", tc.lo, tc.hi, tc.w, len(pts))
		}
	}
}

// TestDesignWorkersDeterminism: the parallel search produces the exact
// same design (bus count, binding, objective) as the serial one on
// random instances.
func TestDesignWorkersDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for iter := 0; iter < 15; iter++ {
		a := randomAnalysis(t, rng, 3+rng.Intn(5))
		opts := Options{
			OverlapThreshold: []float64{-1, 0.3, 0.5}[rng.Intn(3)],
			SeparateCritical: true,
			MaxPerBus:        2 + rng.Intn(3),
			OptimizeBinding:  true,
		}
		serial := opts
		serial.Workers = 1
		dS, err := DesignCrossbarCtx(context.Background(), a, serial)
		if err != nil {
			t.Fatalf("iter %d: serial: %v", iter, err)
		}
		par := opts
		par.Workers = 4
		dP, err := DesignCrossbarCtx(context.Background(), a, par)
		if err != nil {
			t.Fatalf("iter %d: parallel: %v", iter, err)
		}
		if dS.NumBuses != dP.NumBuses || dS.MaxBusOverlap != dP.MaxBusOverlap || !reflect.DeepEqual(dS.BusOf, dP.BusOf) {
			t.Errorf("iter %d: serial/parallel designs differ:\n serial  %d buses %v overlap %d\n parallel %d buses %v overlap %d",
				iter, dS.NumBuses, dS.BusOf, dS.MaxBusOverlap, dP.NumBuses, dP.BusOf, dP.MaxBusOverlap)
		}
	}
}
