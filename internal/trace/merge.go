package trace

import (
	"errors"
	"fmt"

	"repro/internal/ds"
)

// MergeAnalyses combines the windowed analyses of several traffic
// scenarios over the *same platform* (equal receiver counts) into one
// design problem, enabling multi-use-case crossbar design: a binding
// feasible for the merged analysis satisfies the per-window bandwidth
// constraint of every window of every scenario, the conflict
// pre-processing sees every scenario's overlaps, and the binding
// objective minimizes the summed aggregate overlap.
//
// Mechanically the scenarios' windows are concatenated (window
// constraints are per-window and independent, so the union of window
// sets is exactly the intersection of the scenarios' feasible sets)
// and their aggregate overlap matrices are added. Boundaries are
// re-based onto a synthetic concatenated timeline.
func MergeAnalyses(analyses ...*Analysis) (*Analysis, error) {
	if len(analyses) == 0 {
		return nil, errors.New("trace: nothing to merge")
	}
	if len(analyses) == 1 {
		return analyses[0], nil
	}
	nT := analyses[0].NumReceivers
	totalWindows := 0
	for i, a := range analyses {
		if a.NumReceivers != nT {
			return nil, fmt.Errorf("trace: scenario %d has %d receivers, want %d", i, a.NumReceivers, nT)
		}
		totalWindows += a.NumWindows()
	}

	var t [4]*ds.SparseInt64Matrix
	for k := range t {
		t[k] = concatSparseRows(k, totalWindows, analyses)
	}
	merged := &Analysis{
		NumReceivers: nT,
		Boundaries:   make([]int64, 1, totalWindows+1),
		Comm:         t[0],
		CritComm:     t[1],
		Overlap:      t[2],
		CritOverlap:  t[3],
		OM:           analyses[0].OM.Clone(),
	}

	// Concatenated timeline boundaries.
	offset := int64(0)
	for _, a := range analyses {
		for m := 0; m < a.NumWindows(); m++ {
			offset += a.WindowLen(m)
			merged.Boundaries = append(merged.Boundaries, offset)
		}
	}
	// Sum the aggregate overlap matrices of the remaining scenarios.
	for _, a := range analyses[1:] {
		for i := 0; i < nT; i++ {
			for j := i + 1; j < nT; j++ {
				if v := a.OM.At(i, j); v != 0 {
					merged.OM.AddAt(i, j, v)
				}
			}
		}
	}
	return merged, nil
}

// concatSparseRows concatenates table k (in Analysis.tables order) of
// every scenario along the window axis. Iterating rows outer and
// scenarios inner keeps columns nondecreasing within each output row,
// as Append requires.
func concatSparseRows(k, totalWindows int, analyses []*Analysis) *ds.SparseInt64Matrix {
	rows := analyses[0].tables()[k].Rows
	out := ds.NewSparseInt64Matrix(rows, totalWindows)
	for r := 0; r < rows; r++ {
		col := 0
		for _, a := range analyses {
			for _, cell := range a.tables()[k].RowCells(r) {
				out.Append(r, col+int(cell.Col), cell.Val)
			}
			col += a.NumWindows()
		}
	}
	out.Compact()
	return out
}
