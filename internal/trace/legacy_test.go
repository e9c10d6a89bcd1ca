package trace

// The original pairwise-intersection analysis kernel, kept as the test
// oracle for the sweep-line kernel: the differential tests, FuzzAnalyze
// and the adaptive-boundary tests pin the production kernel to it bit
// for bit. It keeps the dense per-window pair overlap that production
// summarizes, and folds it into pair summaries with its own fold. Being
// exported from a package-trace test file, it is visible to the
// external trace_test package too.

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/conc"
	"repro/internal/ds"
	"repro/internal/obs"
)

// LegacyPairRows is the dense per-window pair overlap of the legacy
// kernel: Overlap[k][m] and CritOverlap[k][m] are the overlap and the
// critical overlap of the k-th receiver pair (i, j > i), row-major, in
// window m.
type LegacyPairRows struct {
	NumReceivers         int
	Overlap, CritOverlap [][]int64
}

// row returns the row of the unordered pair (i, j), i != j.
func (r *LegacyPairRows) row(i, j int) int {
	if i > j {
		i, j = j, i
	}
	return i*(2*r.NumReceivers-i-1)/2 + (j - i - 1)
}

// PairOverlap returns wo_{i,j,m}.
func (r *LegacyPairRows) PairOverlap(i, j, m int) int64 { return r.Overlap[r.row(i, j)][m] }

// PairCritOverlap returns the critical-stream overlap of (i,j) in window m.
func (r *LegacyPairRows) PairCritOverlap(i, j, m int) int64 { return r.CritOverlap[r.row(i, j)][m] }

// AnalyzeLegacy is AnalyzeCtx on the original pairwise-intersection
// algorithm (O(R²) allocated interval-set intersections), without a
// context.
func AnalyzeLegacy(tr *Trace, ws int64) (*Analysis, error) {
	return AnalyzeLegacyCtx(context.Background(), tr, ws)
}

// AnalyzeLegacyCtx is AnalyzeLegacy with cancellation and parallel
// per-receiver/per-pair computation (sharded over GOMAXPROCS workers).
func AnalyzeLegacyCtx(ctx context.Context, tr *Trace, ws int64) (*Analysis, error) {
	a, _, err := AnalyzeLegacyRows(ctx, tr, ws)
	return a, err
}

// AnalyzeLegacyRows is AnalyzeLegacyCtx that also returns the dense
// pair rows the analysis's summaries fold.
func AnalyzeLegacyRows(ctx context.Context, tr *Trace, ws int64) (*Analysis, *LegacyPairRows, error) {
	if err := tr.Validate(); err != nil {
		return nil, nil, err
	}
	boundaries, err := windowBoundaries(tr.Horizon, ws)
	if err != nil {
		return nil, nil, err
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
	a, _, err := analyzeLegacy(ctx, tr, boundaries)
	return a, err
}

// analyzeLegacy computes the analysis by intersecting every receiver
// pair's interval sets — the original algorithm, kept bit-compatible
// with the sweep kernel. The per-window computation is sharded by
// receiver: shard i fills Comm row i and the dense pair rows and OM
// entries of every pair (i, j) with j > i. Shards only read the shared
// interval sets and write disjoint matrix slots, so the parallel
// result is bit-identical to the serial one.
func analyzeLegacy(ctx context.Context, tr *Trace, boundaries []int64) (*Analysis, *LegacyPairRows, error) {
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

	a := &Analysis{
		NumReceivers: nT,
		Boundaries:   boundaries,
		Comm:         ds.NewSparseInt64Matrix(nT, nW),
		CritComm:     ds.NewSparseInt64Matrix(nT, nW),
		OM:           ds.NewSymMatrix(nT),
	}
	busy, critical := tr.busyByReceiver()

	// The sparse rows are not safe for concurrent appends to
	// *different* rows (they share the build slab), so the load rows
	// are buffered densely per shard and appended serially after the
	// parallel phase.
	commRows := make([][]int64, nT)
	critCommRows := make([][]int64, nT)
	rows := &LegacyPairRows{
		NumReceivers: nT,
		Overlap:      make([][]int64, nT*(nT-1)/2),
		CritOverlap:  make([][]int64, nT*(nT-1)/2),
	}

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
			row := rows.row(i, j)
			ov := make([]int64, nW)
			cv := make([]int64, nW)
			var total int64
			for m := 0; m < nW; m++ {
				ov[m] = inter.ClipLen(boundaries[m], boundaries[m+1])
				total += ov[m]
				cv[m] = critInter.ClipLen(boundaries[m], boundaries[m+1])
			}
			rows.Overlap[row] = ov
			rows.CritOverlap[row] = cv
			if total > 0 {
				a.OM.Set(i, j, total)
			}
		}
		return nil
	})
	if err != nil {
		return nil, nil, fmt.Errorf("trace: analysis canceled: %w", err)
	}
	for i := range commRows {
		for m, v := range commRows[i] {
			a.Comm.Append(i, m, v)
		}
		for m, v := range critCommRows[i] {
			a.CritComm.Append(i, m, v)
		}
	}
	a.Pairs = foldPairRows(boundaries, rows)
	a.Comm.Compact()
	a.CritComm.Compact()
	return a, rows, nil
}

// foldPairRows is the legacy kernel's fold of dense pair rows into pair
// summaries, independent of the production frontier code: it sorts a
// pair's nonzero windows by ascending length, longest overlap first
// among equal lengths, and keeps each point that overlaps more than
// every shorter one. Pairs that never overlap get no summary.
func foldPairRows(boundaries []int64, rows *LegacyPairRows) []PairSummary {
	var out []PairSummary
	nT := rows.NumReceivers
	for i := 0; i < nT; i++ {
		for j := i + 1; j < nT; j++ {
			k := rows.row(i, j)
			var pts []WindowOverlap
			p := PairSummary{I: i, J: j}
			for m, v := range rows.Overlap[k] {
				if v > 0 {
					pts = append(pts, WindowOverlap{Len: boundaries[m+1] - boundaries[m], Cycles: v})
				}
				p.Critical = p.Critical || rows.CritOverlap[k][m] > 0
			}
			sort.Slice(pts, func(x, y int) bool {
				if pts[x].Len != pts[y].Len {
					return pts[x].Len < pts[y].Len
				}
				return pts[x].Cycles > pts[y].Cycles
			})
			for _, pt := range pts {
				if n := len(p.Frontier); n == 0 || pt.Cycles > p.Frontier[n-1].Cycles {
					p.Frontier = append(p.Frontier, pt)
				}
			}
			if len(p.Frontier) > 0 || p.Critical {
				out = append(out, p)
			}
		}
	}
	return out
}
