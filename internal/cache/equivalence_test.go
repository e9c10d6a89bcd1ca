package cache

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"repro/internal/benchprobs"
	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/trace"
)

// TestCacheEquivalenceDifferential is the cache-correctness gate run
// in CI: over the differential harness's 220-case problem set, the
// design served from an exact cache hit and the design produced by a
// warm delta re-solve (cache primed with a 5%-perturbed sibling of the
// problem) must be bit-identical to the cold design and pass the
// independent auditor.
func TestCacheEquivalenceDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("cache equivalence sweep skipped in -short mode")
	}
	const cases = 220
	for seed := int64(1); seed <= cases; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			c := check.RandomCase(seed, check.DefaultGenParams())
			checkCaseEquivalence(t, c, c.Opts)
		})
	}
}

func checkCaseEquivalence(t *testing.T, c check.Case, opts core.Options) {
	t.Helper()
	ctx := context.Background()
	a, err := trace.AnalyzeCtx(ctx, c.Trace, c.WindowSize)
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	cold, coldErr := core.DesignCrossbarCtx(ctx, a, opts)
	if coldErr != nil && !errors.Is(coldErr, core.ErrInfeasible) {
		t.Fatalf("cold solve: %v", coldErr)
	}

	s := New(Config{Dir: t.TempDir()})
	copts := opts
	copts.Cache = s

	// Miss → cold-equivalent solve and store.
	miss, missErr := core.DesignCrossbarCtx(ctx, a, copts)
	assertSameOutcome(t, "miss", a, opts, cold, coldErr, miss, missErr)
	// Exact hit → stored design, zero solver work.
	hit, hitErr := core.DesignCrossbarCtx(ctx, a, copts)
	assertSameOutcome(t, "hit", a, opts, cold, coldErr, hit, hitErr)

	// Delta re-solve: the cache holds the original problem's design;
	// the perturbed problem must warm-start to the same answer its own
	// cold solve produces.
	if len(c.Trace.Events) == 0 {
		return
	}
	ptr := benchprobs.PerturbTrace(c.Trace, 0.05, c.Seed)
	pa, err := trace.AnalyzeCtx(ctx, ptr, c.WindowSize)
	if err != nil {
		t.Fatalf("analyze perturbed: %v", err)
	}
	pcold, pcoldErr := core.DesignCrossbarCtx(ctx, pa, opts)
	if pcoldErr != nil && !errors.Is(pcoldErr, core.ErrInfeasible) {
		t.Fatalf("perturbed cold solve: %v", pcoldErr)
	}
	pwarm, pwarmErr := core.DesignCrossbarCtx(ctx, pa, copts)
	assertSameOutcome(t, "delta", pa, opts, pcold, pcoldErr, pwarm, pwarmErr)
}

// assertSameOutcome requires the cached/warm path to reproduce the
// cold path exactly — same infeasibility verdict or the same crossbar
// — and audits every produced design independently.
func assertSameOutcome(t *testing.T, mode string, a *trace.Analysis, opts core.Options,
	cold *core.Design, coldErr error, got *core.Design, gotErr error) {
	t.Helper()
	if (gotErr != nil) != (coldErr != nil) {
		t.Fatalf("%s: err=%v, cold err=%v", mode, gotErr, coldErr)
	}
	if coldErr != nil {
		if !errors.Is(gotErr, core.ErrInfeasible) {
			t.Fatalf("%s: err %v, want infeasible like cold", mode, gotErr)
		}
		return
	}
	if !sameCrossbar(got, cold) {
		t.Fatalf("%s: design %+v, cold %+v", mode, got, cold)
	}
	if rep := check.Audit(got, a, opts); !rep.OK() {
		t.Fatalf("%s: audit failed: %v", mode, rep.Err())
	}
}
