package ds

import (
	"math/rand"
	"reflect"
	"testing"
)

// at returns the element at (r, c), zero when not stored.
func at(m *SparseInt64Matrix, r, c int) int64 {
	for _, cell := range m.RowCells(r) {
		if int(cell.Col) == c {
			return cell.Val
		}
	}
	return 0
}

func TestSparseAppendAt(t *testing.T) {
	m := NewSparseInt64Matrix(3, 10)
	m.Append(0, 2, 5)
	m.Append(0, 2, 3) // same column accumulates
	m.Append(0, 7, 1)
	m.Append(2, 0, 9)
	m.Append(1, 4, 0) // zero append is dropped

	if got := at(m, 0, 2); got != 8 {
		t.Errorf("at(0,2) = %d, want 8", got)
	}
	if got := at(m, 0, 7); got != 1 {
		t.Errorf("at(0,7) = %d, want 1", got)
	}
	if got := at(m, 0, 3); got != 0 {
		t.Errorf("at(0,3) = %d, want 0", got)
	}
	if got := at(m, 1, 4); got != 0 {
		t.Errorf("zero append stored: at(1,4) = %d", got)
	}
	if got := at(m, 2, 0); got != 9 {
		t.Errorf("at(2,0) = %d, want 9", got)
	}
	if got := len(m.cells); got != 3 {
		t.Errorf("NNZ = %d, want 3", got)
	}
	if got := m.RowSum(0); got != 9 {
		t.Errorf("RowSum(0) = %d, want 9", got)
	}
}

func TestSparseAppendOutOfOrderPanics(t *testing.T) {
	m := NewSparseInt64Matrix(1, 10)
	m.Append(0, 5, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("decreasing-column append did not panic")
		}
	}()
	m.Append(0, 4, 1)
}

func TestSparseColumnRangePanics(t *testing.T) {
	m := NewSparseInt64Matrix(1, 4)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range column did not panic")
		}
	}()
	m.Append(0, 4, 1)
}

// TestSparseCompactCanonical: two matrices with the same content but
// different build histories (different interleavings, accumulation
// patterns, slab layouts) are deeply equal after Compact.
func TestSparseCompactCanonical(t *testing.T) {
	a := NewSparseInt64Matrix(4, 100)
	b := NewSparseInt64Matrix(4, 100)

	// a: row-major bulk fill; b: interleaved with accumulation.
	for r := 0; r < 4; r++ {
		for c := 0; c < 100; c += 3 {
			a.Append(r, c, int64(r*1000+c+7))
		}
	}
	for c := 0; c < 100; c += 3 {
		for r := 0; r < 4; r++ {
			b.Append(r, c, int64(r*1000+c+6))
			b.Append(r, c, 1)
		}
	}
	a.Compact()
	b.Compact()
	if !reflect.DeepEqual(a, b) {
		t.Fatal("equal-content matrices differ after Compact")
	}

	// Content survives compaction.
	if got := at(a, 2, 99); got != 2106 {
		t.Errorf("At(2,99) = %d, want 2106", got)
	}
	if got := at(a, 2, 98); got != 0 {
		t.Errorf("At(2,98) = %d, want 0", got)
	}
}

func TestSparseGrowthAcrossArenaBlocks(t *testing.T) {
	// Grow many rows in parallel so their cells interleave across many
	// slab chunks; every stored value must survive the layout.
	const rows, cols = 64, 5000
	m := NewSparseInt64Matrix(rows, cols)
	for c := 0; c < cols; c++ {
		for r := 0; r < rows; r++ {
			m.Append(r, c, int64(r+1)*int64(c+1))
		}
	}
	m.Compact()
	if len(m.cells) != rows*cols {
		t.Fatalf("NNZ = %d, want %d", len(m.cells), rows*cols)
	}
	for _, rc := range [][2]int{{0, 0}, {63, 4999}, {17, 2500}, {40, 1}} {
		want := int64(rc[0]+1) * int64(rc[1]+1)
		if got := at(m, rc[0], rc[1]); got != want {
			t.Errorf("At(%d,%d) = %d, want %d", rc[0], rc[1], got, want)
		}
	}
}

// TestSparseAppendAfterCompactPanics: a laid-out matrix is immutable,
// whether Compact or a first read laid it out.
func TestSparseAppendAfterCompactPanics(t *testing.T) {
	for _, layOut := range []func(*SparseInt64Matrix){
		(*SparseInt64Matrix).Compact,
		func(m *SparseInt64Matrix) { m.RowCells(0) },
	} {
		m := NewSparseInt64Matrix(2, 10)
		m.Append(0, 2, 5)
		layOut(m)
		func() {
			defer func() {
				if recover() == nil {
					t.Error("Append on a laid-out matrix did not panic")
				}
			}()
			m.Append(0, 2, 1)
		}()
		if got := at(m, 0, 2); got != 5 {
			t.Errorf("at(0,2) = %d after the refused append, want 5", got)
		}
	}
}

func TestSparseClone(t *testing.T) {
	m := NewSparseInt64Matrix(2, 8)
	m.Append(0, 1, 3)
	m.Append(1, 7, 4)
	cl := m.Clone()
	m.Append(1, 7, 10)
	if got := at(cl, 1, 7); got != 4 {
		t.Errorf("clone mutated: At(1,7) = %d, want 4", got)
	}
	if len(cl.cells) != 2 {
		t.Errorf("clone NNZ = %d, want 2", len(cl.cells))
	}
}

func TestSparseEmptyShapes(t *testing.T) {
	m := NewSparseInt64Matrix(0, 5)
	m.Compact()
	if len(m.cells) != 0 {
		t.Error("empty matrix not empty")
	}
	n := NewSparseInt64Matrix(3, 0)
	n.Compact()
	if at(n, 2, 0) != 0 {
		// A zero-column matrix still has its rows.
		t.Error("unexpected value in zero-column matrix")
	}
}

func TestSparseDenseColumns(t *testing.T) {
	m := NewSparseInt64Matrix(3, 9)
	m.Append(0, 2, 5)
	m.Append(0, 6, 1)
	m.Append(2, 2, 7)
	m.Append(2, 4, 3)
	m.Append(2, 4, -3) // a stored zero: column 4 stays empty
	m.Append(1, 8, 2)
	m.Compact()
	cols, vals := m.DenseColumns()
	if want := []int{2, 6, 8}; !reflect.DeepEqual(cols, want) {
		t.Fatalf("cols = %v, want %v", cols, want)
	}
	want := []int64{
		5, 0, 7, // column 2
		1, 0, 0, // column 6
		0, 2, 0, // column 8
	}
	if !reflect.DeepEqual(vals, want) {
		t.Fatalf("vals = %v, want %v", vals, want)
	}
	for k, c := range cols {
		for r := 0; r < m.Rows; r++ {
			if got := vals[k*m.Rows+r]; got != at(m, r, c) {
				t.Errorf("vals[%d][%d] = %d, At = %d", k, r, got, at(m, r, c))
			}
		}
	}
	if cols, vals := NewSparseInt64Matrix(2, 5).DenseColumns(); len(cols) != 0 || len(vals) != 0 {
		t.Errorf("empty matrix: cols %v vals %v", cols, vals)
	}
}

func TestNewSparseInt64MatrixPanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for negative shape")
		}
	}()
	NewSparseInt64Matrix(-1, 3)
}

// TestConcatColumnsMatchesAppend: for random parts — empty parts,
// zero-column parts, empty rows, gaps between parts, compacted or
// still building — ConcatColumns equals Appending the parts' cells in
// order and compacting, down to the representation and NNZ.
func TestConcatColumnsMatchesAppend(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 500; trial++ {
		rows := rng.Intn(6)
		nParts := 1 + rng.Intn(5)
		parts := make([]*SparseInt64Matrix, nParts)
		offsets := make([]int, nParts)
		col := 0
		for i := range parts {
			col += rng.Intn(3) // a gap of unclaimed columns
			offsets[i] = col
			p := NewSparseInt64Matrix(rows, rng.Intn(8))
			for r := 0; r < rows; r++ {
				if rng.Intn(3) == 0 {
					continue // empty row
				}
				for c := 0; c < p.Cols; c++ {
					if rng.Intn(2) == 0 {
						p.Append(r, c, 1+rng.Int63n(1000))
					}
				}
			}
			if rng.Intn(2) == 0 {
				p.Compact()
			}
			parts[i] = p
			col += p.Cols
		}
		cols := col + rng.Intn(3)

		want := NewSparseInt64Matrix(rows, cols)
		for r := 0; r < rows; r++ {
			for i, p := range parts {
				for _, c := range p.RowCells(r) {
					want.Append(r, offsets[i]+int(c.Col), c.Val)
				}
			}
		}
		want.Compact()
		got := ConcatColumns(parts, offsets, cols)
		if len(got.cells) != len(want.cells) || !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: ConcatColumns (nnz %d) differs from Append+Compact (nnz %d)", trial, len(got.cells), len(want.cells))
		}
	}
}

// TestConcatColumnsRejectsOverlap: parts must lie in order inside the
// output's columns.
func TestConcatColumnsRejectsOverlap(t *testing.T) {
	a, b := NewSparseInt64Matrix(2, 4), NewSparseInt64Matrix(2, 4)
	for _, tc := range []struct {
		name    string
		offsets []int
		cols    int
	}{
		{"overlap", []int{0, 3}, 8},
		{"out of order", []int{4, 0}, 8},
		{"past cols", []int{0, 4}, 7},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: ConcatColumns accepted offsets %v in %d columns", tc.name, tc.offsets, tc.cols)
				}
			}()
			ConcatColumns([]*SparseInt64Matrix{a, b}, tc.offsets, tc.cols)
		}()
	}
}
