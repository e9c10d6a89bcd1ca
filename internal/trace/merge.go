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
// sets is exactly the intersection of the scenarios' feasible sets),
// their pair summaries are united and their aggregate overlap
// matrices are added. Boundaries are re-based onto a synthetic
// concatenated timeline.
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
	return mergeParts(nT, boundaries, analyses, offsets), nil
}

// mergeParts completes the analysis over boundaries from partial
// analyses that own disjoint window ranges, part i's windows starting
// at window offsets[i]: the shards of a sweep, or MergeAnalyses'
// scenarios. Each load-table row concatenates the parts' rows
// (ds.ConcatColumns lays them out at exact size), the cells a single
// pass over all windows appends, in its order. A pair's frontier and
// critical flag are functions of its set of windows, so they merge as
// the frontier of the parts' points and the OR of their flags, and OM
// sums. Several parts are only read; a lone part already spans every
// window and is completed in place, which lays out the same structure
// without a second set of row headers.
func mergeParts(nT int, boundaries []int64, parts []*Analysis, offsets []int) *Analysis {
	a := parts[0]
	if len(parts) == 1 {
		a.Comm.Compact()
		a.CritComm.Compact()
	} else {
		a = &Analysis{NumReceivers: nT, Boundaries: boundaries}
		comm, crit := make([]*ds.SparseInt64Matrix, len(parts)), make([]*ds.SparseInt64Matrix, len(parts))
		pairs := pairTable{nT: nT}
		for i, p := range parts {
			comm[i], crit[i] = p.Comm, p.CritComm
			for _, s := range p.Pairs {
				q := pairs.get(s.I, s.J)
				for _, pt := range s.Frontier {
					q.Frontier = addPoint(q.Frontier, pt)
				}
				q.Critical = q.Critical || s.Critical
				q.total += p.OM.At(s.I, s.J)
			}
		}
		a.Comm = ds.ConcatColumns(comm, offsets, len(boundaries)-1)
		a.CritComm = ds.ConcatColumns(crit, offsets, len(boundaries)-1)
		pairs.finish(a)
	}
	if a.OM == nil {
		a.OM = ds.NewSymMatrix(nT) // no pair overlaps
	}
	return a
}
