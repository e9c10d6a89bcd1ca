package trace

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
	"sync/atomic"

	"repro/internal/ds"
	"repro/internal/obs"
)

// Analysis instruments (see internal/obs): total analyses run and
// total windows characterized across them.
var (
	metAnalyses = obs.NewCounter("trace.analyses")
	metWindows  = obs.NewCounter("trace.windows")
)

// Analysis is the window-based view of a trace (paper Definitions 1–2).
// All per-window quantities are measured in cycles.
type Analysis struct {
	// NumReceivers is copied from the analyzed trace.
	NumReceivers int
	// Boundaries holds the window edges: window m spans
	// [Boundaries[m], Boundaries[m+1]). len(Boundaries) == NumWindows+1.
	Boundaries []int64
	// Comm[i][m] is the number of cycles receiver i receives data in
	// window m (paper comm_{i,m}). Rows store only the windows in which
	// the receiver is busy: at windows shorter than a burst most windows
	// carry no traffic, so consumers walk RowCells rather than looking
	// up every window.
	Comm *ds.SparseInt64Matrix
	// CritComm[i][m] is the same restricted to critical transfers,
	// stored sparsely like Comm.
	CritComm *ds.SparseInt64Matrix
	// Pairs summarizes the per-window pair overlap wo_{i,j,m} for Eq. 2:
	// one entry per pair that overlaps somewhere, in (I, J) order.
	Pairs []PairSummary
	// OM is the aggregate overlap matrix om_{i,j} = Σ_m wo_{i,j,m}
	// (paper Eq. 1), nonzero exactly at the pairs in Pairs.
	OM *ds.SymMatrix

	// mwl memoizes MaxWindowLoad (0 = not yet computed; the result is
	// always ≥ 1). Atomic so concurrent design probes sharing one
	// analysis may race benignly: every computation yields the same
	// value.
	mwl atomic.Int64
	// fp memoizes Fingerprint (nil = not yet computed), with the same
	// benign-race contract as mwl.
	fp atomic.Pointer[Fingerprint]
}

// NumWindows returns the number of analysis windows.
func (a *Analysis) NumWindows() int { return len(a.Boundaries) - 1 }

// WindowLen returns the length in cycles of window m.
func (a *Analysis) WindowLen(m int) int64 { return a.Boundaries[m+1] - a.Boundaries[m] }

// maxWindows bounds the number of analysis windows a single analysis
// call may produce, guarding against absurd window sizes turning into
// multi-gigabyte matrix allocations.
const maxWindows = 1 << 26

// ErrTooManyWindows is wrapped around every analysis refused because
// its window size cuts the horizon into more than maxWindows windows:
// the request asks too much, the analysis did not fail.
var ErrTooManyWindows = errors.New("trace: too many windows")

// WindowOverlap is one frontier point of a pair summary: a window of
// Len cycles in which the pair overlaps for Cycles cycles.
type WindowOverlap struct{ Len, Cycles int64 }

// PairSummary is what paper Eq. 2 reads of one receiver pair: the
// Pareto frontier of its (window length L, overlap V) points, ascending
// in both, and whether its critical streams overlap in some window.
//
// Eq. 2 asks whether some window has float64(V) > t·float64(L) for a
// threshold t ≥ 0. Both sides are monotone, so a window no longer than
// another that overlaps no less exceeds every threshold the other
// exceeds, and the frontier (the points no other point dominates with
// L′ ≤ L and V′ ≥ V) decides Eq. 2 exactly as a scan of every window
// does. Fixed-size windows have at most two lengths (the last window
// may be short), so at most two points.
type PairSummary struct {
	I, J     int // I < J
	Frontier []WindowOverlap
	Critical bool
}

// comparePairs orders pair summaries by (I, J).
func comparePairs(x, y PairSummary) int {
	return cmp.Or(cmp.Compare(x.I, y.I), cmp.Compare(x.J, y.J))
}

// summaryPoints returns the number of frontier points of all pairs.
func (a *Analysis) summaryPoints() int {
	n := 0
	for _, p := range a.Pairs {
		n += len(p.Frontier)
	}
	return n
}

// addPoint adds p to the frontier f unless a point of f dominates it,
// dropping the points p dominates. The result depends only on the set
// of points added, not on their order.
func addPoint(f []WindowOverlap, p WindowOverlap) []WindowOverlap {
	if slices.ContainsFunc(f, func(q WindowOverlap) bool { return q.Len <= p.Len && q.Cycles >= p.Cycles }) {
		return f
	}
	f = slices.DeleteFunc(f, func(q WindowOverlap) bool { return q.Len >= p.Len && q.Cycles <= p.Cycles })
	k, _ := slices.BinarySearchFunc(f, p, func(q, p WindowOverlap) int { return cmp.Compare(q.Len, p.Len) })
	return slices.Insert(f, k, p)
}

// newAnalysis allocates the output tables for nT receivers and the
// given window edges.
func newAnalysis(nT int, boundaries []int64) *Analysis {
	nW := len(boundaries) - 1
	return &Analysis{
		NumReceivers: nT,
		Boundaries:   boundaries,
		Comm:         ds.NewSparseInt64Matrix(nT, nW),
		CritComm:     ds.NewSparseInt64Matrix(nT, nW),
	}
}

// tables returns the two per-window tables in their canonical order,
// Comm and CritComm, the order fingerprinting and diffing walk them in.
func (a *Analysis) tables() [2]*ds.SparseInt64Matrix {
	return [2]*ds.SparseInt64Matrix{a.Comm, a.CritComm}
}

// windowBoundaries builds the fixed-size window edges for a horizon:
// windows of ws cycles, the last truncated to the horizon.
func windowBoundaries(horizon, ws int64) ([]int64, error) {
	if ws <= 0 {
		return nil, errors.New("trace: window size must be positive")
	}
	// Divide before rounding: the textbook (Horizon+ws-1)/ws ceiling
	// overflows int64 for a window size near MaxInt64 and ends up
	// asking for a negative number of windows.
	numWindows64 := horizon / ws
	if horizon%ws != 0 {
		numWindows64++
	}
	if numWindows64 > maxWindows {
		return nil, fmt.Errorf("%w: window size %d yields %d windows, more than the %d supported", ErrTooManyWindows, ws, numWindows64, maxWindows)
	}
	numWindows := int(numWindows64)
	boundaries := make([]int64, numWindows+1)
	// Every edge but the last lies below the horizon, so m·ws cannot
	// overflow there; numWindows·ws can, for a horizon near MaxInt64.
	for m := 0; m < numWindows; m++ {
		boundaries[m] = int64(m) * ws
	}
	boundaries[numWindows] = horizon
	return boundaries, nil
}

// validateBoundaries checks explicit window edges against a horizon.
func validateBoundaries(horizon int64, boundaries []int64) error {
	if len(boundaries) < 2 {
		return errors.New("trace: need at least one window")
	}
	if boundaries[0] != 0 {
		return errors.New("trace: first boundary must be 0")
	}
	if boundaries[len(boundaries)-1] != horizon {
		return fmt.Errorf("trace: last boundary %d must equal horizon %d", boundaries[len(boundaries)-1], horizon)
	}
	for m := 1; m < len(boundaries); m++ {
		if boundaries[m] <= boundaries[m-1] {
			return errors.New("trace: boundaries must be strictly increasing")
		}
	}
	return nil
}

// AnalyzeCtx divides the trace into fixed-size windows of ws cycles
// (the last window may be shorter if the horizon is not a multiple)
// and computes the per-window traffic characteristics with the
// single-pass sweep-line kernel (see sweep.go). A window of tr.Horizon
// cycles collapses the analysis to one window spanning the whole
// trace: the "average communication traffic" design point of prior
// work that the paper compares against (Section 2).
func AnalyzeCtx(ctx context.Context, tr *Trace, ws int64) (*Analysis, error) {
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	boundaries, err := windowBoundaries(tr.Horizon, ws)
	if err != nil {
		return nil, err
	}
	return analyzeSweep(ctx, tr, boundaries)
}

// AnalyzeWithBoundariesCtx performs the window analysis with explicit
// window edges, supporting the variable-window-size extension the
// paper lists as future work. Boundaries must be strictly increasing,
// start at 0 and end at the trace horizon.
func AnalyzeWithBoundariesCtx(ctx context.Context, tr *Trace, boundaries []int64) (*Analysis, error) {
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	if err := validateBoundaries(tr.Horizon, boundaries); err != nil {
		return nil, err
	}
	return analyzeSweep(ctx, tr, boundaries)
}

// MaxWindowLoad returns, over all windows, the maximum of the summed
// receiver loads divided into the window length — i.e. the peak number
// of fully-loaded buses any single window demands. It is a lower bound
// on the feasible bus count (used to seed the binary search, which
// calls it repeatedly), so the result is computed once — in a single
// pass over the stored Comm cells — and memoized. Windows without
// traffic demand nothing and are skipped.
func (a *Analysis) MaxWindowLoad() int {
	if v := a.mwl.Load(); v > 0 {
		return int(v)
	}
	sums := make([]int64, a.NumWindows())
	for i := 0; i < a.NumReceivers; i++ {
		for _, c := range a.Comm.RowCells(i) {
			sums[c.Col] += c.Val
		}
	}
	best := 1
	for m, sum := range sums {
		if sum == 0 {
			continue
		}
		wl := a.WindowLen(m)
		if need := int((sum + wl - 1) / wl); need > best {
			best = need
		}
	}
	a.mwl.Store(int64(best))
	return best
}
