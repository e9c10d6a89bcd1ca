package check

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/trace"
)

// analysisGenParams sizes random traces for the analysis differential.
// Unlike the solver harness (which keeps cases tiny so the MILP path
// stays affordable) no solver runs here, so the traces are bigger and
// the receiver count deliberately exceeds 64: the sweep kernel's
// active-receiver bitset then spans multiple words, a code path the
// solver-sized cases never reach. internal/trace's
// TestSweepMatchesLegacyDifferential draws the same cases.
func analysisGenParams() GenParams {
	return GenParams{
		MaxReceivers: 70,
		MaxSenders:   4,
		MaxHorizon:   2000,
		MaxEvents:    300,
		MaxLen:       40,
		CriticalFrac: 0.2,
	}
}

// analysisDiff runs one random trace through the production analysis
// paths — the sweep-line kernel (AnalyzeCtx), the image driver at one
// shard over the v1 encoding of a start-sorted copy, and the image
// driver over the columnar v2 encoding at a seed-drawn shard count — and
// returns a description per output mismatch. The sweep kernel's
// oracle, the legacy pairwise kernel, is test code in internal/trace,
// where TestSweepMatchesLegacyDifferential runs it on the same cases.
// The error return is reserved for harness failures (a path rejecting
// a valid case outright); disagreements between successful runs are
// data.
func analysisDiff(ctx context.Context, seed int64) ([]string, error) {
	tr := RandomTrace(seed, analysisGenParams())
	rng := rand.New(rand.NewSource(seed ^ 0x7a11_ce11))
	ws := 1 + rng.Int63n(tr.Horizon)
	if rng.Intn(8) == 0 {
		ws = tr.Horizon + 1 + rng.Int63n(64) // window larger than horizon
	}
	// 0 exercises the per-core default shard count.
	shards := rng.Intn(10)

	sweep, err := trace.AnalyzeCtx(ctx, tr, ws)
	if err != nil {
		return nil, fmt.Errorf("check: case %d: sweep kernel: %w", seed, err)
	}
	v1, err := analyzeV1OneShard(ctx, tr, ws)
	if err != nil {
		return nil, fmt.Errorf("check: case %d: one-shard v1 image: %w", seed, err)
	}
	sharded, err := analyzeShardedV2(ctx, tr, ws, shards)
	if err != nil {
		return nil, fmt.Errorf("check: case %d: sharded v2 kernel: %w", seed, err)
	}

	var out []string
	for _, d := range trace.DiffAnalyses(sweep, v1) {
		out = append(out, fmt.Sprintf("sweep vs v1-image (ws=%d shards=1): %s", ws, d))
	}
	for _, d := range trace.DiffAnalyses(sweep, sharded) {
		out = append(out, fmt.Sprintf("sweep vs sharded-v2 (ws=%d shards=%d): %s", ws, shards, d))
	}
	return out, nil
}

// analyzeShardedV2 encodes the trace in the columnar v2 container and
// analyzes the byte image through the out-of-core sharded driver — the
// path a spooled server upload takes, minus the mmap.
func analyzeShardedV2(ctx context.Context, tr *trace.Trace, ws int64, shards int) (*trace.Analysis, error) {
	var buf bytes.Buffer
	if err := trace.WriteBinaryV2(&buf, tr); err != nil {
		return nil, err
	}
	return trace.AnalyzeBytesSharded(ctx, buf.Bytes(), ws, shards, nil)
}

// analyzeV1OneShard encodes a start-sorted copy of the trace in the v1
// binary format and analyzes the byte image through the image driver at
// one shard, never materializing the decoded events (a sorted image
// takes no in-memory fallback).
func analyzeV1OneShard(ctx context.Context, tr *trace.Trace, ws int64) (*trace.Analysis, error) {
	sorted := &trace.Trace{
		NumReceivers: tr.NumReceivers,
		NumSenders:   tr.NumSenders,
		Horizon:      tr.Horizon,
		Events:       append([]trace.Event(nil), tr.Events...),
	}
	sort.SliceStable(sorted.Events, func(a, b int) bool {
		return sorted.Events[a].Start < sorted.Events[b].Start
	})
	var buf bytes.Buffer
	if err := trace.WriteBinary(&buf, sorted); err != nil {
		return nil, err
	}
	return trace.AnalyzeBytesSharded(ctx, buf.Bytes(), ws, 1, nil)
}

// TestDifferentialAnalysisKernels is the analysis counterpart of
// TestDifferentialSolvers: on thousands of random traces the sweep-line
// kernel, the one-shard v1 image and the sharded v2 image must
// produce bit-identical analyses — including on receiver counts past 64
// (multi-word active bitset).
func TestDifferentialAnalysisKernels(t *testing.T) {
	cases := int64(2000)
	if testing.Short() {
		cases = 300
	}
	for seed := int64(1); seed <= cases; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			diffs, err := analysisDiff(context.Background(), seed)
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range diffs {
				t.Errorf("case %d: %s", seed, d)
			}
		})
	}
}

// TestAnalysisDiffDeterministic pins the harness itself: the same seed
// must generate the same case (and verdict) across runs, so a failing
// case number from CI can be replayed locally.
func TestAnalysisDiffDeterministic(t *testing.T) {
	a := RandomTrace(17, analysisGenParams())
	b := RandomTrace(17, analysisGenParams())
	if a.NumReceivers != b.NumReceivers || len(a.Events) != len(b.Events) {
		t.Fatalf("RandomTrace(17) not deterministic: %d/%d receivers, %d/%d events",
			a.NumReceivers, b.NumReceivers, len(a.Events), len(b.Events))
	}
}
