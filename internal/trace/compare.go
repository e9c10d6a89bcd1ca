package trace

import (
	"fmt"
	"slices"

	"repro/internal/ds"
)

// diffLimit caps the number of mismatches DiffAnalyses reports so a
// systematically wrong kernel produces a readable failure, not megabytes.
const diffLimit = 20

// DiffAnalyses compares every exported quantity of two analyses and
// returns a human-readable description of each mismatch (empty when the
// analyses are identical). It is the equivalence check used by the
// differential harnesses and the fuzz oracle to pin the sweep kernel,
// the image driver at every shard count and the test-only legacy
// pairwise kernel to bit-identical outputs. For the sparse per-window
// tables it compares the stored cell structure, not just values, so a
// kernel that stores explicit zeros where another stores nothing is
// caught too; pair summaries compare entry by entry the same way.
func DiffAnalyses(a, b *Analysis) []string {
	var diffs []string
	add := func(format string, args ...any) bool {
		if len(diffs) < diffLimit {
			diffs = append(diffs, fmt.Sprintf(format, args...))
		} else if len(diffs) == diffLimit {
			diffs = append(diffs, "... further mismatches suppressed")
		}
		return len(diffs) <= diffLimit
	}

	if a.NumReceivers != b.NumReceivers {
		add("NumReceivers: %d vs %d", a.NumReceivers, b.NumReceivers)
		return diffs
	}
	if len(a.Boundaries) != len(b.Boundaries) {
		add("NumWindows: %d vs %d", a.NumWindows(), b.NumWindows())
		return diffs
	}
	for m := range a.Boundaries {
		if a.Boundaries[m] != b.Boundaries[m] {
			if !add("Boundaries[%d]: %d vs %d", m, a.Boundaries[m], b.Boundaries[m]) {
				return diffs
			}
		}
	}

	bt := b.tables()
	for k, at := range a.tables() {
		if !diffSparse(add, tableNames[k], at, bt[k]) {
			return diffs
		}
	}

	if !slices.EqualFunc(a.Pairs, b.Pairs, func(x, y PairSummary) bool {
		return x.I == y.I && x.J == y.J && x.Critical == y.Critical && slices.Equal(x.Frontier, y.Frontier)
	}) {
		if !add("Pairs: %v vs %v", a.Pairs, b.Pairs) {
			return diffs
		}
	}

	nT := a.NumReceivers
	for i := 0; i < nT; i++ {
		for j := i + 1; j < nT; j++ {
			if x, y := a.OM.At(i, j), b.OM.At(i, j); x != y {
				if !add("OM[%d][%d]: %d vs %d", i, j, x, y) {
					return diffs
				}
			}
		}
	}
	return diffs
}

// CountDiffs counts the constraint entries on which two same-shape
// analyses disagree: per-window load cells (Comm, CritComm), pair
// summaries (a pair whose frontier or critical flag differs counts
// once) and aggregate overlap entries. Entries compare by logical
// value — a stored zero cell equals an absent cell, and an empty
// summary an absent pair — so the count measures problem distance, not
// build history, at O(R² + stored entries) cost. It is the delta-size
// measure the design cache uses to decide whether a cached binding is
// close enough to warm-start a re-solve. ok is false when the analyses
// have different shapes (receiver count or window edges), in which
// case no meaningful entry count exists. Counting stops early once the
// count exceeds limit (limit <= 0 means unlimited), checked after each
// receiver's two load rows, each pair and each OM row, so probing "is
// the delta under N?" against a far-away analysis stays cheap.
func CountDiffs(a, b *Analysis, limit int) (diffs int, ok bool) {
	if a.NumReceivers != b.NumReceivers || len(a.Boundaries) != len(b.Boundaries) {
		return 0, false
	}
	for m := range a.Boundaries {
		if a.Boundaries[m] != b.Boundaries[m] {
			return 0, false
		}
	}
	over := func() bool { return limit > 0 && diffs > limit }

	nT := a.NumReceivers
	for i := 0; i < nT; i++ {
		diffs += countSparseRowDiffs(a.Comm.RowCells(i), b.Comm.RowCells(i))
		diffs += countSparseRowDiffs(a.CritComm.RowCells(i), b.CritComm.RowCells(i))
		if over() {
			return diffs, true
		}
	}
	// Merge-walk the (I, J)-ordered summaries; a pair missing on one
	// side compares as the zero summary.
	for i, j := 0, 0; i < len(a.Pairs) || j < len(b.Pairs); {
		var x, y PairSummary
		c := 1
		if j == len(b.Pairs) {
			c = -1
		} else if i < len(a.Pairs) {
			c = comparePairs(a.Pairs[i], b.Pairs[j])
		}
		if c <= 0 {
			x, i = a.Pairs[i], i+1
		}
		if c >= 0 {
			y, j = b.Pairs[j], j+1
		}
		if x.Critical != y.Critical || !slices.Equal(x.Frontier, y.Frontier) {
			diffs++
		}
		if over() {
			return diffs, true
		}
	}
	for i := 0; i < nT; i++ {
		for j := i + 1; j < nT; j++ {
			if a.OM.At(i, j) != b.OM.At(i, j) {
				diffs++
			}
		}
		if over() {
			return diffs, true
		}
	}
	return diffs, true
}

// countSparseRowDiffs merge-walks two sorted sparse rows and counts the
// columns whose logical values differ (absent == 0).
func countSparseRowDiffs(x, y []ds.SparseCell) int {
	diffs, i, j := 0, 0, 0
	for i < len(x) || j < len(y) {
		switch {
		case j >= len(y) || (i < len(x) && x[i].Col < y[j].Col):
			if x[i].Val != 0 {
				diffs++
			}
			i++
		case i >= len(x) || y[j].Col < x[i].Col:
			if y[j].Val != 0 {
				diffs++
			}
			j++
		default:
			if x[i].Val != y[j].Val {
				diffs++
			}
			i++
			j++
		}
	}
	return diffs
}

// tableNames labels the Analysis.tables entries in DiffAnalyses output.
var tableNames = [2]string{"Comm", "CritComm"}

// diffSparse compares the stored cells of one sparse per-window table.
func diffSparse(add func(string, ...any) bool, name string, am, bm *ds.SparseInt64Matrix) bool {
	if am.Rows != bm.Rows || am.Cols != bm.Cols {
		return add("%s shape: %dx%d vs %dx%d", name, am.Rows, am.Cols, bm.Rows, bm.Cols)
	}
	for r := 0; r < am.Rows; r++ {
		if x, y := am.RowCells(r), bm.RowCells(r); !slices.Equal(x, y) && !add("%s row %d: %v vs %v", name, r, x, y) {
			return false
		}
	}
	return true
}
