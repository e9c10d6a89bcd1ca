package trace

// The original pairwise-intersection analysis kernel, kept as the test
// oracle for the sweep-line kernel: the differential tests, FuzzAnalyze
// and the adaptive-boundary tests pin the production kernel to it bit
// for bit. Being exported from a package-trace test file, it is visible
// to the external trace_test package too.

import (
	"context"
	"fmt"

	"repro/internal/conc"
	"repro/internal/obs"
)

// AnalyzeLegacy is AnalyzeCtx on the original pairwise-intersection
// algorithm (O(R²) allocated interval-set intersections), without a
// context.
func AnalyzeLegacy(tr *Trace, ws int64) (*Analysis, error) {
	return AnalyzeLegacyCtx(context.Background(), tr, ws)
}

// AnalyzeLegacyCtx is AnalyzeLegacy with cancellation and parallel
// per-receiver/per-pair computation (sharded over GOMAXPROCS workers).
func AnalyzeLegacyCtx(ctx context.Context, tr *Trace, ws int64) (*Analysis, error) {
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	boundaries, err := windowBoundaries(tr.Horizon, ws)
	if err != nil {
		return nil, err
	}
	return analyzeLegacy(ctx, tr, boundaries)
}

// AnalyzeLegacyWithBoundariesCtx is the explicit-boundary form of the
// legacy kernel.
func AnalyzeLegacyWithBoundariesCtx(ctx context.Context, tr *Trace, boundaries []int64) (*Analysis, error) {
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	if err := validateBoundaries(tr.Horizon, boundaries); err != nil {
		return nil, err
	}
	return analyzeLegacy(ctx, tr, boundaries)
}

// analyzeLegacy computes the analysis by intersecting every receiver
// pair's interval sets — the original algorithm, kept bit-compatible
// with the sweep kernel. The per-window computation is sharded by
// receiver: shard i fills Comm row i and the Overlap/CritOverlap/OM
// entries of every pair (i, j) with j > i. Shards only read the shared
// interval sets and write disjoint matrix slots, so the parallel
// result is bit-identical to the serial one.
func analyzeLegacy(ctx context.Context, tr *Trace, boundaries []int64) (*Analysis, error) {
	nT := tr.NumReceivers
	nW := len(boundaries) - 1

	ctx, span := obs.Start(ctx, "trace.analyze")
	defer span.End()
	span.SetStr("kernel", "legacy")
	span.SetInt("receivers", int64(nT))
	span.SetInt("windows", int64(nW))
	span.SetInt("events", int64(len(tr.Events)))
	metAnalyses.Inc()
	metWindows.Add(int64(nW))

	a := newAnalysis(nT, boundaries)
	busy, critical := tr.busyByReceiver()

	// The sparse rows are not safe for concurrent appends to
	// *different* rows (they share the build arena), so the load and
	// pair rows are buffered densely per shard and appended serially
	// after the parallel phase.
	commRows := make([][]int64, nT)
	critCommRows := make([][]int64, nT)
	overlapRows := make([][]int64, a.Overlap.Rows)
	critRows := make([][]int64, a.Overlap.Rows)

	err := conc.ForEach(ctx, nT, 0, func(ctx context.Context, i int) error {
		commRows[i] = make([]int64, nW)
		critCommRows[i] = make([]int64, nW)
		for m := 0; m < nW; m++ {
			commRows[i][m] = busy[i].ClipLen(boundaries[m], boundaries[m+1])
			critCommRows[i][m] = critical[i].ClipLen(boundaries[m], boundaries[m+1])
		}
		for j := i + 1; j < nT; j++ {
			inter := busy[i].Intersection(busy[j])
			critInter := critical[i].Intersection(critical[j])
			row := a.PairIndex(i, j)
			ov := make([]int64, nW)
			cv := make([]int64, nW)
			var total int64
			for m := 0; m < nW; m++ {
				ov[m] = inter.ClipLen(boundaries[m], boundaries[m+1])
				total += ov[m]
				cv[m] = critInter.ClipLen(boundaries[m], boundaries[m+1])
			}
			overlapRows[row] = ov
			critRows[row] = cv
			if total > 0 {
				a.OM.Set(i, j, total)
			}
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("trace: analysis canceled: %w", err)
	}
	for i := range commRows {
		for m, v := range commRows[i] {
			a.Comm.Append(i, m, v)
		}
		for m, v := range critCommRows[i] {
			a.CritComm.Append(i, m, v)
		}
	}
	for row := range overlapRows {
		for m, v := range overlapRows[row] {
			a.Overlap.Append(row, m, v)
		}
		for m, v := range critRows[row] {
			a.CritOverlap.Append(row, m, v)
		}
	}
	a.compact()
	return a, nil
}
