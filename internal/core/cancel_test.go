package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"
)

// countingCtx is a context whose Err flips to context.Canceled after
// `limit` polls. It makes "cancel mid-design" deterministic: the n-th
// cooperative cancellation checkpoint the solver reaches observes the
// cancellation, independent of wall-clock timing. Its Done channel is
// nil, so it only works on code paths that poll Err directly, as the
// branch-and-bound search does.
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
	_, err := DesignCrossbarCtx(ctx, a, Options{OverlapThreshold: 0.4, MaxPerBus: 3})
	if !errors.Is(err, ErrCanceled) {
		t.Errorf("err = %v, want ErrCanceled", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want to also wrap context.Canceled", err)
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
// and checks that every interruption surfaces as a wrapped ErrCanceled.
func TestDesignCtxCanceledMidSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	a := randomAnalysis(t, rng, 7)
	opts := Options{
		OverlapThreshold: 0.3,
		MaxPerBus:        3,
		OptimizeBinding:  true,
	}
	canceledRuns := 0
	for _, limit := range []int64{1, 2, 3, 5, 8, 13, 1 << 40} {
		ctx := newCountingCtx(limit)
		d, err := DesignCrossbarCtx(ctx, a, opts)
		if err == nil {
			if limit < 3 {
				t.Errorf("limit %d: design completed before any checkpoint fired", limit)
			}
			if d == nil {
				t.Fatal("nil design without error")
			}
			continue
		}
		canceledRuns++
		if !errors.Is(err, ErrCanceled) {
			t.Errorf("limit %d: err = %v, want ErrCanceled", limit, err)
		}
		if !errors.Is(err, context.Canceled) {
			t.Errorf("limit %d: err = %v, want to also wrap context.Canceled", limit, err)
		}
	}
	if canceledRuns == 0 {
		t.Error("no limit produced a cancellation")
	}
}

// TestSearchMinFeasibleDeterministic: for every feasibility threshold
// the binary search converges to the minimal feasible k and returns
// that count's solver result.
func TestSearchMinFeasibleDeterministic(t *testing.T) {
	const lb, ub = 1, 10
	for thr := lb; thr <= ub+1; thr++ {
		solve := func(ctx context.Context, k int, optimize bool) (*assignResult, error) {
			return &assignResult{feasible: k >= thr, busOf: []int{k}, nodes: 1}, nil
		}
		best, res, nodes, err := searchMinFeasible(context.Background(), lb, ub, solve)
		if err != nil {
			t.Fatalf("thr=%d: %v", thr, err)
		}
		if thr > ub {
			if best != -1 {
				t.Errorf("thr=%d: best = %d, want -1 (infeasible)", thr, best)
			}
			continue
		}
		if best != thr {
			t.Errorf("thr=%d: best = %d, want thr", thr, best)
		}
		if res == nil || len(res.busOf) != 1 || res.busOf[0] != thr {
			t.Errorf("thr=%d: result is not the minimal-k solve: %+v", thr, res)
		}
		if nodes < 1 {
			t.Errorf("thr=%d: nodes = %d", thr, nodes)
		}
	}
}

func TestSearchMinFeasiblePropagatesSolveError(t *testing.T) {
	boom := errors.New("solver exploded")
	solve := func(ctx context.Context, k int, optimize bool) (*assignResult, error) {
		return nil, fmt.Errorf("k=%d: %w", k, boom)
	}
	best, _, _, err := searchMinFeasible(context.Background(), 1, 8, solve)
	if !errors.Is(err, boom) {
		t.Errorf("err = %v, want solver error", err)
	}
	if best != -1 {
		t.Errorf("best = %d, want -1", best)
	}
}
