package trace_test

// The adaptive-window analysis (AdaptiveBoundaries edges fed to
// AnalyzeWithBoundariesCtx) runs on the sweep-line kernel. These tests
// pin it to the retained legacy pairwise kernel, bit for bit, on the
// deterministic benchmark problem set — variable-size windows are the
// irregular-boundary case the sweep's monotone window cursor has to get
// exactly right.

import (
	"context"
	"strings"
	"testing"

	"repro/internal/benchprobs"
	"repro/internal/trace"
)

func TestAdaptiveBoundariesInvariants(t *testing.T) {
	for _, n := range []int{8, 12, 32} {
		tr := benchprobs.TraceN(n)
		for _, span := range [][2]int64{{50, 400}, {100, 1000}, {400, 4000}} {
			minWS, maxWS := span[0], span[1]
			bs, err := trace.AdaptiveBoundaries(tr, minWS, maxWS)
			if err != nil {
				t.Fatalf("AdaptiveBoundaries(n=%d, %d, %d): %v", n, minWS, maxWS, err)
			}
			if bs[0] != 0 || bs[len(bs)-1] != tr.Horizon {
				t.Fatalf("n=%d boundaries %v do not span [0,%d]", n, bs, tr.Horizon)
			}
			for m := 1; m < len(bs); m++ {
				w := bs[m] - bs[m-1]
				if w <= 0 || w > maxWS {
					t.Fatalf("n=%d window %d has length %d (maxWS %d)", n, m-1, w, maxWS)
				}
			}
		}
	}
}

func TestAnalyzeAdaptiveMatchesLegacy(t *testing.T) {
	for _, n := range []int{8, 12, 32} {
		tr := benchprobs.TraceN(n)
		for _, span := range [][2]int64{{50, 400}, {100, 1000}, {400, 4000}} {
			minWS, maxWS := span[0], span[1]
			bs, err := trace.AdaptiveBoundaries(tr, minWS, maxWS)
			if err != nil {
				t.Fatal(err)
			}
			got, err := trace.AnalyzeWithBoundariesCtx(context.Background(), tr, bs)
			if err != nil {
				t.Fatalf("sweep kernel on adaptive boundaries (n=%d, %d, %d): %v", n, minWS, maxWS, err)
			}
			want, err := trace.AnalyzeLegacyWithBoundariesCtx(context.Background(), tr, bs)
			if err != nil {
				t.Fatalf("legacy kernel on adaptive boundaries: %v", err)
			}
			if diffs := trace.DiffAnalyses(got, want); len(diffs) > 0 {
				t.Fatalf("n=%d minWS=%d maxWS=%d sweep vs legacy:\n%s",
					n, minWS, maxWS, strings.Join(diffs, "\n"))
			}
		}
	}
}

// TestAnalyzeAdaptiveSelfConsistent checks the adaptive analysis on
// the benchmark set for self-consistency: every pair-summary point is
// the overlap of some window of its length, so it is bounded by both
// participating Comm entries of that window.
func TestAnalyzeAdaptiveSelfConsistent(t *testing.T) {
	tr := benchprobs.TraceN(12)
	bs, err := trace.AdaptiveBoundaries(tr, 100, 1000)
	if err != nil {
		t.Fatal(err)
	}
	a, err := trace.AnalyzeWithBoundariesCtx(context.Background(), tr, bs)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range a.Pairs {
		for _, pt := range p.Frontier {
			found := false
			for m := 0; m < a.NumWindows() && !found; m++ {
				found = a.WindowLen(m) == pt.Len &&
					pt.Cycles <= trace.CellAt(a.Comm, p.I, m) && pt.Cycles <= trace.CellAt(a.Comm, p.J, m)
			}
			if !found {
				t.Fatalf("pair (%d,%d) point %+v: no window of that length carries both loads", p.I, p.J, pt)
			}
		}
	}
}
