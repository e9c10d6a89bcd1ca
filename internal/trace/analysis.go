package trace

import (
	"context"
	"errors"
	"fmt"
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
	// Overlap holds, for every unordered receiver pair (i,j), the
	// per-window overlap wo_{i,j,m}: Overlap[PairIndex(i,j)][m]. Rows
	// store only the nonzero windows (most pairs overlap rarely, if at
	// all, in realistic workloads). PairOverlap looks up one cell;
	// whole-pair passes walk RowCells(PairIndex(i, j)).
	Overlap *ds.SparseInt64Matrix
	// CritOverlap is the per-window overlap restricted to cycles where
	// both receivers carry critical traffic, stored sparsely like
	// Overlap.
	CritOverlap *ds.SparseInt64Matrix
	// OM is the aggregate overlap matrix om_{i,j} = Σ_m wo_{i,j,m}
	// (paper Eq. 1).
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

// CheckPair validates a receiver pair against the analysis shape,
// returning a descriptive error for out-of-range or diagonal indices.
// The unchecked accessors (PairIndex, PairOverlap, ...) are the hot
// path and panic on misuse; callers handling untrusted indices should
// use the *Checked variants instead.
func (a *Analysis) CheckPair(i, j int) error {
	if i < 0 || i >= a.NumReceivers || j < 0 || j >= a.NumReceivers {
		return fmt.Errorf("trace: receiver pair (%d,%d) outside range [0,%d)", i, j, a.NumReceivers)
	}
	if i == j {
		return fmt.Errorf("trace: receiver pair (%d,%d) is the diagonal (pairs are unordered distinct receivers)", i, j)
	}
	return nil
}

// checkWindow validates a window index.
func (a *Analysis) checkWindow(m int) error {
	if m < 0 || m >= a.NumWindows() {
		return fmt.Errorf("trace: window %d outside range [0,%d)", m, a.NumWindows())
	}
	return nil
}

// PairIndex maps an unordered receiver pair to its Overlap row. It
// panics with a descriptive message when either receiver is out of
// range or i == j (there is no row for the diagonal); PairOverlap and
// PairCritOverlap tolerate i == j, returning 0.
func (a *Analysis) PairIndex(i, j int) int {
	if i < 0 || j < 0 || i >= a.NumReceivers || j >= a.NumReceivers || i == j {
		panic(fmt.Sprintf("trace: no pair row for (%d,%d) with %d receivers", i, j, a.NumReceivers))
	}
	if i > j {
		i, j = j, i
	}
	return i*(2*a.NumReceivers-i-1)/2 + (j - i - 1)
}

// PairOverlap returns wo_{i,j,m}.
func (a *Analysis) PairOverlap(i, j, m int) int64 {
	if i == j {
		return 0
	}
	return a.Overlap.At(a.PairIndex(i, j), m)
}

// PairOverlapChecked is PairOverlap with explicit validation of the
// receiver pair and window index, for callers on untrusted input.
func (a *Analysis) PairOverlapChecked(i, j, m int) (int64, error) {
	if err := a.CheckPair(i, j); err != nil {
		return 0, err
	}
	if err := a.checkWindow(m); err != nil {
		return 0, err
	}
	return a.Overlap.At(a.PairIndex(i, j), m), nil
}

// PairCritOverlap returns the critical-stream overlap of (i,j) in window m.
func (a *Analysis) PairCritOverlap(i, j, m int) int64 {
	if i == j {
		return 0
	}
	return a.CritOverlap.At(a.PairIndex(i, j), m)
}

// PairCritOverlapChecked is PairCritOverlap with explicit validation.
func (a *Analysis) PairCritOverlapChecked(i, j, m int) (int64, error) {
	if err := a.CheckPair(i, j); err != nil {
		return 0, err
	}
	if err := a.checkWindow(m); err != nil {
		return 0, err
	}
	return a.CritOverlap.At(a.PairIndex(i, j), m), nil
}

// newAnalysis allocates the output tables for nT receivers and the
// given window edges.
func newAnalysis(nT int, boundaries []int64) *Analysis {
	nW := len(boundaries) - 1
	nPairs := nT * (nT - 1) / 2
	return &Analysis{
		NumReceivers: nT,
		Boundaries:   boundaries,
		Comm:         ds.NewSparseInt64Matrix(nT, nW),
		CritComm:     ds.NewSparseInt64Matrix(nT, nW),
		Overlap:      ds.NewSparseInt64Matrix(nPairs, nW),
		CritOverlap:  ds.NewSparseInt64Matrix(nPairs, nW),
		OM:           ds.NewSymMatrix(nT),
	}
}

// tables returns the four per-window tables in their canonical order:
// Comm, CritComm, Overlap, CritOverlap. Every whole-table pass
// (compaction, merging, fingerprinting, cloning, diffing) walks them
// through this one list.
func (a *Analysis) tables() [4]*ds.SparseInt64Matrix {
	return [4]*ds.SparseInt64Matrix{a.Comm, a.CritComm, a.Overlap, a.CritOverlap}
}

// compact repacks every per-window table into its canonical CSR layout.
func (a *Analysis) compact() {
	for _, t := range a.tables() {
		t.Compact()
	}
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
		return nil, fmt.Errorf("trace: window size %d yields %d windows, more than the %d supported", ws, numWindows64, maxWindows)
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
