package trace

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/ds"
)

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

// countDiffsDense is the dense CountDiffs the sparse one replaced, kept
// as its oracle: every (receiver, window) load cell is compared through
// At, and the early-exit checkpoints sit where the production code puts
// them (after each receiver's two load rows, each overlap row and each
// OM row).
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
			if a.Comm.At(i, m) != b.Comm.At(i, m) {
				diffs++
			}
			if a.CritComm.At(i, m) != b.CritComm.At(i, m) {
				diffs++
			}
		}
		if over() {
			return diffs, true
		}
	}
	for _, pair := range [2][2]*ds.SparseInt64Matrix{{a.Overlap, b.Overlap}, {a.CritOverlap, b.CritOverlap}} {
		for r := 0; r < pair[0].Rows; r++ {
			for m := 0; m < nW; m++ {
				if pair[0].At(r, m) != pair[1].At(r, m) {
					diffs++
				}
			}
			if over() {
				return diffs, true
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

// perturbCells rewrites n random cells of random tables of a clone of
// a: a new value, a removed cell, or an explicit stored zero.
func perturbCells(rng *rand.Rand, a *Analysis, n int) *Analysis {
	c := a.Clone()
	for k := 0; k < n; k++ {
		t := c.tables()
		which := rng.Intn(len(t))
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
		c.Comm, c.CritComm, c.Overlap, c.CritOverlap = t[0], t[1], t[2], t[3]
	}
	if c.NumReceivers >= 2 && rng.Intn(2) == 0 {
		c.OM.Set(0, 1, c.OM.At(0, 1)+1)
	}
	return c
}

// TestCountDiffsMatchesDenseOracle pins the sparse CountDiffs to the
// dense cell-by-cell count, both the count and the early-exit result,
// at several limits, over random analyses (many with idle windows)
// perturbed by changed, removed and explicitly zeroed cells.
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
// any of the four per-window tables is logically absent, so it must
// not change the content hash; a nonzero value in the same place must.
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
			t4 := c.tables()
			t4[k] = withCell(m, 0, col, tc.v, true)
			c.Comm, c.CritComm, c.Overlap, c.CritOverlap = t4[0], t4[1], t4[2], t4[3]
			if tc.v == 0 && t4[k].NNZ() != m.NNZ()+1 {
				t.Fatalf("%s: stored zero not stored", tableNames[k])
			}
			if got := c.Fingerprint(); (got == want) != tc.same {
				t.Errorf("%s: cell (0,%d)=%d changed fingerprint: %v, want %v", tableNames[k], col, tc.v, got != want, !tc.same)
			}
		}
	}
}
