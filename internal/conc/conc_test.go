package conc

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestWorkers(t *testing.T) {
	if got := Workers(3); got != 3 {
		t.Errorf("Workers(3) = %d", got)
	}
	if got := Workers(0); got < 1 {
		t.Errorf("Workers(0) = %d, want >= 1", got)
	}
	if got := Workers(-5); got < 1 {
		t.Errorf("Workers(-5) = %d, want >= 1", got)
	}
}

func TestForEachVisitsEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 16} {
		const n = 100
		counts := make([]atomic.Int32, n)
		err := ForEach(context.Background(), n, workers, func(ctx context.Context, i int) error {
			counts[i].Add(1)
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range counts {
			if c := counts[i].Load(); c != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, c)
			}
		}
	}
}

func TestForEachIndexedWritesAreDeterministic(t *testing.T) {
	const n = 64
	want := make([]int, n)
	for i := range want {
		want[i] = i * i
	}
	for _, workers := range []int{1, 3, 8} {
		got := make([]int, n)
		if err := ForEach(context.Background(), n, workers, func(ctx context.Context, i int) error {
			got[i] = i * i
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: got[%d] = %d, want %d", workers, i, got[i], want[i])
			}
		}
	}
}

func TestForEachSerialFastPathStopsAtFirstError(t *testing.T) {
	boom := errors.New("boom")
	var visited []int
	err := ForEach(context.Background(), 10, 1, func(ctx context.Context, i int) error {
		visited = append(visited, i)
		if i == 3 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if len(visited) != 4 {
		t.Errorf("visited %v, want [0 1 2 3]", visited)
	}
}

func TestForEachPrefersLowestNonCancellationError(t *testing.T) {
	// Every item fails; the reported error must be the failure of the
	// lowest index regardless of workers/scheduling, never a
	// cancellation triggered by a sibling.
	for _, workers := range []int{2, 4, 8} {
		err := ForEach(context.Background(), 20, workers, func(ctx context.Context, i int) error {
			return fmt.Errorf("item %d failed", i)
		})
		if err == nil || err.Error() != "item 0 failed" {
			t.Errorf("workers=%d: err = %v, want item 0 failed", workers, err)
		}
	}
}

func TestForEachCancellationPropagates(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := ForEach(ctx, 10, 4, func(ctx context.Context, i int) error {
		return ctx.Err()
	})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
	// Serial fast path too.
	if err := ForEach(ctx, 10, 1, func(ctx context.Context, i int) error { return nil }); !errors.Is(err, context.Canceled) {
		t.Errorf("serial err = %v, want context.Canceled", err)
	}
}

func TestForEachEmpty(t *testing.T) {
	if err := ForEach(context.Background(), 0, 4, nil); err != nil {
		t.Errorf("n=0: %v", err)
	}
}

func TestGroupWithContextCancelsOnError(t *testing.T) {
	g, ctx := WithContext(context.Background())
	boom := errors.New("boom")
	g.Go(func() error { return boom })
	g.Go(func() error {
		select {
		case <-ctx.Done():
			return nil
		case <-time.After(5 * time.Second):
			return errors.New("sibling error did not cancel the context")
		}
	})
	if err := g.Wait(); !errors.Is(err, boom) {
		t.Fatalf("Wait = %v, want boom", err)
	}
	if cause := context.Cause(ctx); !errors.Is(cause, boom) {
		t.Errorf("cause = %v, want boom", cause)
	}
}

func TestGroupWaitCancelsContext(t *testing.T) {
	g, ctx := WithContext(context.Background())
	g.Go(func() error { return nil })
	if err := g.Wait(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-ctx.Done():
	default:
		t.Error("context not canceled after Wait")
	}
}

// TestForEachRecoversWorkerPanic: a panicking item on a pool goroutine
// must come back as an error carrying the panic value and stack, not
// crash the process.
func TestForEachRecoversWorkerPanic(t *testing.T) {
	err := ForEach(context.Background(), 8, 4, func(_ context.Context, i int) error {
		if i == 5 {
			panic("item 5 exploded")
		}
		return nil
	})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want a *PanicError", err)
	}
	if pe.Value != "item 5 exploded" {
		t.Errorf("panic value = %v", pe.Value)
	}
	if !strings.Contains(string(pe.Stack), "TestForEachRecoversWorkerPanic") {
		t.Errorf("stack does not reach the panicking item:\n%s", pe.Stack)
	}
}

// TestForEachSerialPanicUnwinds pins the serial path: with one worker
// the items run on the caller's goroutine, where the caller can
// recover a panic itself, so it is not converted.
func TestForEachSerialPanicUnwinds(t *testing.T) {
	defer func() {
		if v := recover(); v != "serial" {
			t.Errorf("recovered %v, want the item's panic", v)
		}
	}()
	_ = ForEach(context.Background(), 3, 1, func(_ context.Context, i int) error {
		if i == 1 {
			panic("serial")
		}
		return nil
	})
	t.Error("ForEach returned instead of unwinding")
}

func TestGroupRecoversTaskPanic(t *testing.T) {
	g, ctx := WithContext(context.Background())
	g.Go(func() error { panic(fmt.Errorf("task failed")) })
	g.Go(func() error {
		<-ctx.Done() // canceled by the sibling's panic
		return nil
	})
	var pe *PanicError
	if err := g.Wait(); !errors.As(err, &pe) {
		t.Fatalf("Wait = %v, want a *PanicError", err)
	}
	if len(pe.Stack) == 0 {
		t.Error("panic error carries no stack")
	}
}
