package trace_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/trace"
)

// legacyDiffParams are the random-trace sizes of internal/check's
// TestDifferentialAnalysisKernels, so both differentials run on the
// same cases: receiver counts up to 70, past the 64 at which the sweep
// kernel's active-receiver bitset spans multiple words.
var legacyDiffParams = check.GenParams{
	MaxReceivers: 70,
	MaxSenders:   4,
	MaxHorizon:   2000,
	MaxEvents:    300,
	MaxLen:       40,
	CriticalFrac: 0.2,
}

// legacyDiff pins the sweep-line kernel to the legacy pairwise oracle
// on one random case, and on every fourth seed also on adaptive
// (variable-size) window boundaries, the irregular-edge case. It
// returns a description per mismatch; the error return is reserved for
// a kernel rejecting a valid case outright.
func legacyDiff(ctx context.Context, seed int64) ([]string, error) {
	tr := check.RandomTrace(seed, legacyDiffParams)
	rng := rand.New(rand.NewSource(seed ^ 0x7a11_ce11))
	ws := 1 + rng.Int63n(tr.Horizon)
	if rng.Intn(8) == 0 {
		ws = tr.Horizon + 1 + rng.Int63n(64) // window larger than horizon
	}

	sweep, err := trace.AnalyzeCtx(ctx, tr, ws)
	if err != nil {
		return nil, fmt.Errorf("case %d: sweep kernel: %w", seed, err)
	}
	legacy, err := trace.AnalyzeLegacyCtx(ctx, tr, ws)
	if err != nil {
		return nil, fmt.Errorf("case %d: legacy kernel: %w", seed, err)
	}
	var out []string
	for _, d := range trace.DiffAnalyses(sweep, legacy) {
		out = append(out, fmt.Sprintf("sweep vs legacy (ws=%d): %s", ws, d))
	}

	if seed%4 == 0 {
		minWS := 1 + rng.Int63n(tr.Horizon/2+1)
		maxWS := minWS + rng.Int63n(tr.Horizon+1)
		bs, err := trace.AdaptiveBoundaries(tr, minWS, maxWS)
		if err != nil {
			return nil, fmt.Errorf("case %d: adaptive boundaries: %w", seed, err)
		}
		got, err := trace.AnalyzeWithBoundariesCtx(ctx, tr, bs)
		if err != nil {
			return nil, fmt.Errorf("case %d: sweep kernel (adaptive): %w", seed, err)
		}
		want, err := trace.AnalyzeLegacyWithBoundariesCtx(ctx, tr, bs)
		if err != nil {
			return nil, fmt.Errorf("case %d: legacy kernel (adaptive): %w", seed, err)
		}
		for _, d := range trace.DiffAnalyses(got, want) {
			out = append(out, fmt.Sprintf("sweep vs legacy (adaptive %d..%d): %s", minWS, maxWS, d))
		}
	}
	return out, nil
}

// TestSweepMatchesLegacyDifferential runs legacyDiff over the 2000
// seeded cases; a failing seed replays alone with -run
// 'TestSweepMatchesLegacyDifferential/seed=N$'.
func TestSweepMatchesLegacyDifferential(t *testing.T) {
	cases := int64(2000)
	if testing.Short() {
		cases = 300
	}
	for seed := int64(1); seed <= cases; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			diffs, err := legacyDiff(context.Background(), seed)
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range diffs {
				t.Errorf("case %d: %s", seed, d)
			}
		})
	}
}

// TestEq2SummaryMatchesLegacyRows pins the exactness of the pair
// summaries: on the 220 cases of the solver differential
// (check.RandomCase), paper Eq. 2 decided from the sweep's summaries
// (core.BuildConflicts) equals Eq. 2 decided window by window from the
// legacy kernel's dense pair rows, at thresholds 0, 0.1, 0.5 and 1,
// with critical separation on and off.
func TestEq2SummaryMatchesLegacyRows(t *testing.T) {
	ctx := context.Background()
	for seed := int64(1); seed <= 220; seed++ {
		c := check.RandomCase(seed, check.DefaultGenParams())
		a, err := trace.AnalyzeCtx(ctx, c.Trace, c.WindowSize)
		if err != nil {
			t.Fatalf("case %d: %v", seed, err)
		}
		_, rows, err := trace.AnalyzeLegacyRows(ctx, c.Trace, c.WindowSize)
		if err != nil {
			t.Fatalf("case %d: legacy kernel: %v", seed, err)
		}
		for _, thr := range []float64{0, 0.1, 0.5, 1} {
			for _, sep := range []bool{false, true} {
				got := core.BuildConflicts(a, core.Options{OverlapThreshold: thr, SeparateCritical: sep})
				for i := 0; i < a.NumReceivers; i++ {
					for j := i + 1; j < a.NumReceivers; j++ {
						want := false
						for m := 0; m < a.NumWindows() && !want; m++ {
							want = float64(rows.PairOverlap(i, j, m)) > thr*float64(a.WindowLen(m)) ||
								(sep && rows.PairCritOverlap(i, j, m) > 0)
						}
						if got[i][j] != want {
							t.Fatalf("case %d (threshold %v, critical %v): pair (%d,%d) conflicts %v from the summary, %v window by window",
								seed, thr, sep, i, j, got[i][j], want)
						}
					}
				}
			}
		}
	}
}
