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

	offsets := make([]int, len(analyses))
	boundaries := make([]int64, 1, totalWindows+1)
	for i, a := range analyses {
		// Concatenated timeline boundaries.
		offsets[i] = len(boundaries) - 1
		for m := 0; m < a.NumWindows(); m++ {
			boundaries = append(boundaries, boundaries[len(boundaries)-1]+a.WindowLen(m))
		}
	}
	merged := concatAnalyses(nT, boundaries, analyses, offsets)
	// Sum the scenarios' aggregate overlap matrices.
	for _, a := range analyses {
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

// concatAnalyses builds the analysis over boundaries whose per-window
// tables concatenate those of parts along the window axis, part i's
// windows starting at window offsets[i]. OM is left empty for the
// caller to fill.
func concatAnalyses(nT int, boundaries []int64, parts []*Analysis, offsets []int) *Analysis {
	nW := len(boundaries) - 1
	var t [4]*ds.SparseInt64Matrix
	cols := make([]*ds.SparseInt64Matrix, len(parts))
	for k := range t {
		for i, p := range parts {
			cols[i] = p.tables()[k]
		}
		t[k] = ds.ConcatColumns(cols, offsets, nW)
	}
	return &Analysis{
		NumReceivers: nT,
		Boundaries:   boundaries,
		Comm:         t[0],
		CritComm:     t[1],
		Overlap:      t[2],
		CritOverlap:  t[3],
		OM:           ds.NewSymMatrix(nT),
	}
}
