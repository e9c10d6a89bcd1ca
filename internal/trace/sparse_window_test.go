package trace

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/ds"
)

// CellAt returns the element at (r, c) of a sparse table, zero when not
// stored. Exported for the external trace_test package.
func CellAt(m *ds.SparseInt64Matrix, r, c int) int64 {
	for _, cell := range m.RowCells(r) {
		if int(cell.Col) == c {
			return cell.Val
		}
	}
	return 0
}

// withCell returns a compacted copy of m with the element at (r, c)
// replaced by v. With storeZero a zero v stays stored as an explicit
// cell (an Append of +1 then −1): no kernel produces one, but every
// consumer must treat it as absent.
func withCell(m *ds.SparseInt64Matrix, r, c int, v int64, storeZero bool) *ds.SparseInt64Matrix {
	out := ds.NewSparseInt64Matrix(m.Rows, m.Cols)
	put := func() {
		if v == 0 && storeZero {
			out.Append(r, c, 1)
			out.Append(r, c, -1)
			return
		}
		out.Append(r, c, v)
	}
	for rr := 0; rr < m.Rows; rr++ {
		done := rr != r
		for _, cell := range m.RowCells(rr) {
			col := int(cell.Col)
			if !done && col >= c {
				put()
				done = true
				if col == c {
					continue
				}
			}
			out.Append(rr, col, cell.Val)
		}
		if !done {
			put()
		}
	}
	out.Compact()
	return out
}

// pairAt returns the summary of pair (i, j), empty when none is
// stored.
func pairAt(a *Analysis, i, j int) PairSummary {
	for _, p := range a.Pairs {
		if p.I == i && p.J == j {
			return p
		}
	}
	return PairSummary{I: i, J: j}
}

// countDiffsDense is the dense CountDiffs, kept as the oracle of the
// stored-entry one: every (receiver, window) load cell and every
// receiver pair's summary is looked up, absent ones included, and the
// early-exit checkpoints sit where the production code puts them
// (after each receiver's two load rows, each pair and each OM row).
func countDiffsDense(a, b *Analysis, limit int) (diffs int, ok bool) {
	if a.NumReceivers != b.NumReceivers || len(a.Boundaries) != len(b.Boundaries) {
		return 0, false
	}
	for m := range a.Boundaries {
		if a.Boundaries[m] != b.Boundaries[m] {
			return 0, false
		}
	}
	over := func() bool { return limit > 0 && diffs > limit }
	nT, nW := a.NumReceivers, a.NumWindows()
	for i := 0; i < nT; i++ {
		for m := 0; m < nW; m++ {
			if CellAt(a.Comm, i, m) != CellAt(b.Comm, i, m) {
				diffs++
			}
			if CellAt(a.CritComm, i, m) != CellAt(b.CritComm, i, m) {
				diffs++
			}
		}
		if over() {
			return diffs, true
		}
	}
	for i := 0; i < nT; i++ {
		for j := i + 1; j < nT; j++ {
			x, y := pairAt(a, i, j), pairAt(b, i, j)
			if x.Critical != y.Critical || !slices.Equal(x.Frontier, y.Frontier) {
				diffs++
				if over() {
					return diffs, true
				}
			}
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

// withPair returns a with the summary of pair (i, j) replaced by p, or
// removed when p is nil, keeping Pairs in (I, J) order. a.Pairs is
// copied, not modified.
func withPair(a *Analysis, i, j int, p *PairSummary) []PairSummary {
	var out []PairSummary
	for _, q := range a.Pairs {
		if q.I == i && q.J == j {
			continue
		}
		out = append(out, q)
	}
	if p != nil {
		p.I, p.J = i, j
		k, _ := slices.BinarySearchFunc(out, *p, comparePairs)
		out = slices.Insert(out, k, *p)
	}
	return out
}

// perturbCells rewrites n random entries of a clone of a: a load cell
// gets a new value, is removed or becomes an explicit stored zero; a
// pair summary gets a new point, loses its summary, flips its critical
// flag or becomes an explicit empty summary.
func perturbCells(rng *rand.Rand, a *Analysis, n int) *Analysis {
	c := a.Clone()
	for k := 0; k < n; k++ {
		t := c.tables()
		which := rng.Intn(len(t) + 1)
		if which == len(t) {
			if c.NumReceivers < 2 {
				continue
			}
			i := rng.Intn(c.NumReceivers - 1)
			j := i + 1 + rng.Intn(c.NumReceivers-1-i)
			p := pairAt(c, i, j)
			p.Frontier = slices.Clone(p.Frontier)
			switch rng.Intn(4) {
			case 0:
				p.Frontier = addPoint(p.Frontier, WindowOverlap{Len: 1 + rng.Int63n(20), Cycles: 1 + rng.Int63n(20)})
			case 1:
				c.Pairs = withPair(c, i, j, nil)
				continue
			case 2:
				p.Critical = !p.Critical
			default:
				p = PairSummary{}
			}
			c.Pairs = withPair(c, i, j, &p)
			continue
		}
		m := t[which]
		if m.Rows == 0 {
			continue
		}
		r, col := rng.Intn(m.Rows), rng.Intn(m.Cols)
		var v int64
		storeZero := false
		switch rng.Intn(3) {
		case 0:
			v = 1 + rng.Int63n(20)
		case 1:
			v = 0
		default:
			v, storeZero = 0, true
		}
		t[which] = withCell(m, r, col, v, storeZero)
		c.Comm, c.CritComm = t[0], t[1]
	}
	if c.NumReceivers >= 2 && rng.Intn(2) == 0 {
		c.OM.Set(0, 1, c.OM.At(0, 1)+1)
	}
	return c
}

// TestCountDiffsMatchesDenseOracle pins the stored-entry CountDiffs to
// the dense count, both the count and the early-exit result, at
// several limits, over random analyses (many with idle windows)
// perturbed by changed, removed and explicitly zeroed load cells and
// changed, removed and explicitly empty pair summaries.
func TestCountDiffsMatchesDenseOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 300; trial++ {
		tr := randomSweepTrace(rng, 1+rng.Intn(9), rng.Intn(40), int64(50+rng.Intn(3000)))
		ws := 1 + int64(rng.Intn(60))
		a, err := AnalyzeCtx(context.Background(), tr, ws)
		if err != nil {
			t.Fatal(err)
		}
		b := perturbCells(rng, a, rng.Intn(12))
		for _, limit := range []int{0, 1, 2, 3, 5, 8, 1000} {
			got, gok := CountDiffs(a, b, limit)
			want, wok := countDiffsDense(a, b, limit)
			if got != want || gok != wok {
				t.Fatalf("trial %d limit %d: CountDiffs = (%d, %v), dense oracle (%d, %v)", trial, limit, got, gok, want, wok)
			}
			got, gok = CountDiffs(b, a, limit)
			want, wok = countDiffsDense(b, a, limit)
			if got != want || gok != wok {
				t.Fatalf("trial %d limit %d (swapped): CountDiffs = (%d, %v), dense oracle (%d, %v)", trial, limit, got, gok, want, wok)
			}
		}
	}
}

// TestFingerprintIgnoresStoredZeros: an explicit zero cell stored in
// either per-window table, or an empty pair summary, is logically
// absent, so it must not change the content hash; a nonzero value in
// the same place must.
func TestFingerprintIgnoresStoredZeros(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	tr := randomSweepTrace(rng, 4, 30, 2000)
	a, err := AnalyzeCtx(context.Background(), tr, 37)
	if err != nil {
		t.Fatal(err)
	}
	want := a.Fingerprint()
	for k := range a.tables() {
		m := a.tables()[k]
		// An idle cell: the first column row 0 does not store.
		col := 0
		for _, c := range m.RowCells(0) {
			if int(c.Col) != col {
				break
			}
			col++
		}
		for _, tc := range []struct {
			v    int64
			same bool
		}{{0, true}, {3, false}} {
			c := a.Clone()
			t2 := c.tables()
			t2[k] = withCell(m, 0, col, tc.v, true)
			c.Comm, c.CritComm = t2[0], t2[1]
			if tc.v == 0 && len(t2[k].RowCells(0)) != len(m.RowCells(0))+1 {
				t.Fatalf("%s: stored zero not stored", tableNames[k])
			}
			if got := c.Fingerprint(); (got == want) != tc.same {
				t.Errorf("%s: cell (0,%d)=%d changed fingerprint: %v, want %v", tableNames[k], col, tc.v, got != want, !tc.same)
			}
		}
	}
	// A pair without a summary.
	i, j := -1, -1
	for x := 0; x < a.NumReceivers && i < 0; x++ {
		for y := x + 1; y < a.NumReceivers; y++ {
			if len(pairAt(a, x, y).Frontier) == 0 {
				i, j = x, y
				break
			}
		}
	}
	if i < 0 {
		t.Fatal("every pair overlaps; pick another trace")
	}
	for _, tc := range []struct {
		p    PairSummary
		same bool
	}{
		{PairSummary{}, true},
		{PairSummary{Frontier: []WindowOverlap{{Len: 37, Cycles: 1}}}, false},
		{PairSummary{Critical: true}, false},
	} {
		c := a.Clone()
		c.Pairs = withPair(c, i, j, &tc.p)
		if got := c.Fingerprint(); (got == want) != tc.same {
			t.Errorf("summary %+v at (%d,%d) changed fingerprint: %v, want %v", tc.p, i, j, got != want, !tc.same)
		}
	}
}
