package trace

import (
	"errors"
	"fmt"
	"slices"

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
	parts := make([]part, len(analyses))
	for i, a := range analyses {
		parts[i] = part{comm: a.Comm, crit: a.CritComm, pairs: a.Pairs, totals: make([]int64, len(a.Pairs))}
		for k, s := range a.Pairs {
			parts[i].totals[k] = a.OM.At(s.I, s.J)
		}
	}
	return mergeParts(nT, boundaries, parts, offsets), nil
}

// part is a partial analysis that owns a range of windows: one sweep's
// load tables (laid out or still building) and its pair summaries in
// (I, J) order with their overlap totals, or a whole analysis being
// merged. A part carries no OM: mergeParts allocates the one triangle.
type part struct {
	comm, crit *ds.SparseInt64Matrix
	pairs      []PairSummary
	totals     []int64
}

// mergeParts completes the analysis over boundaries from parts that own
// disjoint window ranges, part i's windows starting at window
// offsets[i]: the shards of a sweep, or MergeAnalyses' scenarios. Each
// load-table row concatenates the parts' rows (ds.ConcatColumns lays
// them out at exact size), the cells a single pass over all windows
// appends, in its order; a lone part's tables are compacted in place. A
// pair's frontier and critical flag are functions of its set of
// windows, so they merge as the frontier of the parts' points and the
// OR of their flags, and OM sums the totals. Parts are only read, but a
// lone part's tables and summaries become the analysis's.
func mergeParts(nT int, boundaries []int64, parts []part, offsets []int) *Analysis {
	a := &Analysis{NumReceivers: nT, Boundaries: boundaries, OM: ds.NewSymMatrix(nT)}
	if len(parts) == 1 {
		p := parts[0]
		p.comm.Compact()
		p.crit.Compact()
		a.Comm, a.CritComm, a.Pairs = p.comm, p.crit, p.pairs
		for k, s := range p.pairs {
			a.OM.Set(s.I, s.J, p.totals[k])
		}
		return a
	}
	comm, crit := make([]*ds.SparseInt64Matrix, len(parts)), make([]*ds.SparseInt64Matrix, len(parts))
	var all []pairState
	for i, p := range parts {
		comm[i], crit[i] = p.comm, p.crit
		for k, s := range p.pairs {
			all = append(all, pairState{PairSummary: s, total: p.totals[k]})
		}
	}
	a.Comm = ds.ConcatColumns(comm, offsets, len(boundaries)-1)
	a.CritComm = ds.ConcatColumns(crit, offsets, len(boundaries)-1)
	slices.SortFunc(all, func(x, y pairState) int { return comparePairs(x.PairSummary, y.PairSummary) })
	for k := 0; k < len(all); {
		q := PairSummary{I: all[k].I, J: all[k].J}
		var total int64
		for ; k < len(all) && all[k].I == q.I && all[k].J == q.J; k++ {
			for _, pt := range all[k].Frontier {
				q.Frontier = addPoint(q.Frontier, pt)
			}
			q.Critical = q.Critical || all[k].Critical
			total += all[k].total
		}
		a.Pairs = append(a.Pairs, q)
		a.OM.Set(q.I, q.J, total)
	}
	return a
}
