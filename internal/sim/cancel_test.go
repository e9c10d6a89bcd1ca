package sim

import (
	"context"
	"errors"
	"testing"
)

func TestEngineRunCtxCanceled(t *testing.T) {
	// A self-rescheduling tick generates one event per cycle, so the
	// event loop is guaranteed to cross a cancellation checkpoint long
	// before the horizon.
	var eng engine
	eng.at(0, evCoreStep, 0)
	tick := func(eventKind, int32) { eng.after(1, evCoreStep, 0) }

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	end, err := eng.run(ctx, 1<<40, tick)
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want to also wrap context.Canceled", err)
	}
	if end <= 0 || end >= 1<<40 {
		t.Errorf("clock stopped at %d, want mid-run", end)
	}
}

func TestEngineRunCtxBackgroundCompletes(t *testing.T) {
	var eng engine
	eng.at(5, evCoreStep, 0)
	fired := false
	end, err := eng.run(context.Background(), 10, func(eventKind, int32) { fired = true })
	if err != nil || end != 10 || !fired {
		t.Errorf("run = (%d, %v), fired=%v; want (10, nil, true)", end, err, fired)
	}
}

func TestRunCtxCanceledSystem(t *testing.T) {
	// A long single-core program: enough bus events to reach the
	// event-loop cancellation checkpoint.
	var prog []Op
	for i := 0; i < 3000; i++ {
		prog = append(prog, Read(0, 4))
	}
	cfg := fullConfig(1, 1, [][]Op{prog})
	cfg.Horizon = 1 << 40

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunCtx(ctx, cfg)
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}

	// The same run completes under a background context.
	if _, err := RunCtx(context.Background(), cfg); err != nil {
		t.Fatalf("background run: %v", err)
	}
}

func TestValidateWrapsErrInvalidConfig(t *testing.T) {
	cfg := &Config{}
	err := cfg.Validate()
	if !errors.Is(err, ErrInvalidConfig) {
		t.Errorf("Validate() = %v, want wrapped ErrInvalidConfig", err)
	}
	if _, err := Run(Config{}); !errors.Is(err, ErrInvalidConfig) {
		t.Errorf("Run(invalid) = %v, want wrapped ErrInvalidConfig", err)
	}
}
