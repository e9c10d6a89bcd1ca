// Package conc provides the small concurrency toolkit the design
// engine is built on: an errgroup-style Group and a
// deterministic indexed ForEach. The repository is dependency-free, so
// this substitutes for golang.org/x/sync/errgroup.
//
// Both helpers are context-aware: the first failure cancels the
// context handed to the remaining work, and a canceled parent context
// stops new work from starting. A panic on one of their goroutines is
// recovered into a *PanicError failure, since the caller could not
// recover it there. Crucially for the reproduction, both
// are *deterministic in their results*: ForEach writes outcomes by
// index, so the output of a parallel loop is byte-identical to the
// serial loop regardless of GOMAXPROCS or scheduling order.
package conc

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
)

// Worker-pool instruments (see internal/obs): conc.active is the
// number of currently running tasks/workers across every Group and
// ForEach in the process, conc.tasks / conc.items the totals. Updates
// are per-task (not per-inner-iteration) atomic adds, so the pool's
// utilization is observable live at negligible cost.
var (
	metActive = obs.NewGauge("conc.active")
	metTasks  = obs.NewCounter("conc.tasks")
	metItems  = obs.NewCounter("conc.items")
)

// Workers resolves a worker-count knob: n itself when positive,
// otherwise GOMAXPROCS.
func Workers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// PanicError is a panic recovered by Protect (on a Group or ForEach
// goroutine, or any other the caller runs under it) and returned as
// that task's error.
type PanicError struct {
	Value any    // the value passed to panic
	Stack []byte // the panicking goroutine's stack trace
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("conc: task panicked: %v", e.Value)
}

// Protect runs fn, converting a panic into a *PanicError. It is the
// recovery every goroutine the design engine spawns runs under, so a
// panic there fails the design instead of the process.
func Protect(fn func() error) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = &PanicError{Value: v, Stack: debug.Stack()}
		}
	}()
	return fn()
}

// Group is a goroutine group with first-error capture, an errgroup
// clone. The zero value is usable.
type Group struct {
	wg      sync.WaitGroup
	errOnce sync.Once
	err     error
	cancel  context.CancelCauseFunc
}

// WithContext returns a Group and a context derived from ctx that is
// canceled the first time a task returns a non-nil error or Wait
// returns.
func WithContext(ctx context.Context) (*Group, context.Context) {
	ctx, cancel := context.WithCancelCause(ctx)
	return &Group{cancel: cancel}, ctx
}

// Go runs fn on a new goroutine. A panic in fn is the task's error, a
// *PanicError.
func (g *Group) Go(fn func() error) {
	metTasks.Inc()
	g.wg.Add(1)
	go func() {
		metActive.Add(1)
		defer func() {
			metActive.Add(-1)
			g.wg.Done()
		}()
		if err := Protect(fn); err != nil {
			g.errOnce.Do(func() {
				g.err = err
				if g.cancel != nil {
					g.cancel(err)
				}
			})
		}
	}()
}

// Wait blocks until every task started with Go has finished and
// returns the first error observed.
func (g *Group) Wait() error {
	g.wg.Wait()
	if g.cancel != nil {
		g.cancel(g.err)
	}
	return g.err
}

// ForEach runs fn(ctx, i) for every i in [0, n) on up to workers
// goroutines (Workers(workers) resolves the knob). The first error
// cancels the context seen by the remaining items; items that never
// started report no error. The returned error is deterministic: the
// non-cancellation error with the lowest index wins, falling back to
// the lowest-index cancellation error.
//
// With workers resolved to 1 the items run serially on the calling
// goroutine, so serial baselines pay no synchronization cost, and a
// panic unwinds to the caller as usual.
func ForEach(ctx context.Context, n, workers int, fn func(ctx context.Context, i int) error) error {
	if n <= 0 {
		return ctx.Err()
	}
	workers = Workers(workers)
	if workers > n {
		workers = n
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			metItems.Inc()
			if err := fn(ctx, i); err != nil {
				return err
			}
		}
		return nil
	}

	ctx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			metActive.Add(1)
			defer metActive.Add(-1)
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := ctx.Err(); err != nil {
					errs[i] = err
					return
				}
				metItems.Inc()
				if err := Protect(func() error { return fn(ctx, i) }); err != nil {
					errs[i] = err
					cancel(err)
					if !isCancellation(err) {
						return
					}
				}
			}
		}()
	}
	wg.Wait()

	var firstCancel error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if !isCancellation(err) {
			return err
		}
		if firstCancel == nil {
			firstCancel = err
		}
	}
	return firstCancel
}

// isCancellation reports whether err stems from context cancellation
// or deadline expiry rather than from the work itself.
func isCancellation(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}
