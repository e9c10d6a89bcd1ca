package ds

import (
	"fmt"
	"math"
)

// SparseCell is one stored element of a SparseInt64Matrix: the column
// index and the value. Columns fit int32 because the trace analysis
// bounds window counts far below 2^31.
type SparseCell struct {
	Col int32
	Val int64
}

// SparseInt64Matrix is a rows×cols matrix of int64 storing only the
// nonzero elements, row by row in ascending column order. Laid out, it
// is a compacted CSR: one exact-size array of cells and the offset of
// every row in it. It backs the per-window load tables of the traffic
// analysis, which are mostly zero for realistic workloads: at windows
// shorter than a burst most windows carry no traffic.
//
// Rows are built by appending cells in nondecreasing column order
// (Append), which is how both the sweep-line kernel and the legacy
// pairwise analysis produce them. While building, each row keeps its
// last cell open for accumulation and every closed cell goes to one
// slab shared by all rows, in append order; Compact (or the first read)
// then counts the cells per row and places them into the CSR in one
// pass. A laid-out matrix is immutable: Append on it panics.
type SparseInt64Matrix struct {
	Rows, Cols int

	// rowStart[r] is the offset of row r's first cell in cells, and
	// rowStart[Rows] is the cell count: the CSR, nil while building.
	rowStart []int
	cells    []SparseCell

	// open holds each row's last cell while building, and the slab the
	// rows' earlier cells, interleaved in append order, in chunks that
	// are never copied: the full chunks in slab, then cur[:curLen]. A
	// cell is stored into cur by index, so appending writes no slice
	// header. All are nil once the matrix is laid out.
	open   []openCell
	slab   [][]slabCell
	cur    []slabCell
	curLen int
}

// openCell is the last cell of a row being built; col is noCol while
// the row is empty. The column is a full int so that Append's
// accumulate test needs no conversion and inlines.
type openCell struct {
	col int
	val int64
}

// noCol marks an empty open cell: no valid column equals it.
const noCol = math.MinInt

// slabCell is a closed cell of a matrix being built, tagged with its
// row. It takes the 16 bytes of a SparseCell: the row fills what is
// padding there.
type slabCell struct {
	row, col int32
	val      int64
}

// slabChunkMin and slabChunkMax bound the slab's chunk sizes in cells:
// the first chunk is small so tiny matrices stay cheap, later chunks
// double up to the max, which bounds the unused tail of the last one.
const (
	slabChunkMin = 256
	slabChunkMax = 4096
)

// NewSparseInt64Matrix returns an empty rows×cols sparse matrix, ready
// for Append.
func NewSparseInt64Matrix(rows, cols int) *SparseInt64Matrix {
	if rows < 0 || cols < 0 || rows > math.MaxInt32 || cols > math.MaxInt32 {
		panic(fmt.Sprintf("ds: invalid matrix shape %dx%d", rows, cols))
	}
	open := make([]openCell, rows)
	for r := range open {
		open[r].col = noCol
	}
	return &SparseInt64Matrix{Rows: rows, Cols: cols, open: open}
}

// Append adds v to the element at (r, c). The column must be at or
// after the last column stored in row r; appending to the same column
// accumulates into the existing cell. Zero v appends are ignored so
// the stored structure holds nonzeros only.
//
// The same-column accumulate case is split out so it inlines: it is the
// hot path of the sweep kernel, which credits the same (receiver,
// window) cell once per busy interval — typically many times per cell.
func (m *SparseInt64Matrix) Append(r, c int, v int64) {
	o := &m.open[r]
	if o.col == c {
		o.val += v
	} else {
		m.appendNew(r, c, v)
	}
}

// appendNew handles the Append cases beyond same-column accumulation:
// validation, zero dropping, and closing the row's open cell into the
// slab.
func (m *SparseInt64Matrix) appendNew(r, c int, v int64) {
	if c < 0 || c >= m.Cols {
		panic(fmt.Sprintf("ds: sparse column %d outside [0,%d)", c, m.Cols))
	}
	if v == 0 {
		return
	}
	o := &m.open[r]
	if o.col > c {
		panic(fmt.Sprintf("ds: sparse append to row %d column %d after column %d", r, c, o.col))
	}
	if o.col != noCol {
		m.toSlab(slabCell{row: int32(r), col: int32(o.col), val: o.val})
	}
	*o = openCell{col: c, val: v}
}

// toSlab appends a closed cell to the slab.
func (m *SparseInt64Matrix) toSlab(c slabCell) {
	if m.curLen == len(m.cur) {
		m.nextChunk()
	}
	m.cur[m.curLen] = c
	m.curLen++
}

// nextChunk files the full current chunk and starts one twice its size,
// up to slabChunkMax.
func (m *SparseInt64Matrix) nextChunk() {
	size := slabChunkMin
	if m.cur != nil {
		m.slab = append(m.slab, m.cur)
		size = min(2*len(m.cur), slabChunkMax)
	}
	m.cur, m.curLen = make([]slabCell, size), 0
}

// chunks returns the slab's chunks in append order, in a new slice.
func (m *SparseInt64Matrix) chunks() [][]slabCell {
	return append(m.slab[:len(m.slab):len(m.slab)], m.cur[:m.curLen])
}

// RowCells returns the stored cells of row r in ascending column
// order. The slice aliases the matrix storage and must not be modified.
// On a matrix still being built it compacts the matrix first, so a
// matrix shared between goroutines must be compacted before it is
// shared.
func (m *SparseInt64Matrix) RowCells(r int) []SparseCell {
	m.Compact()
	end := m.rowStart[r+1]
	return m.cells[m.rowStart[r]:end:end]
}

// RowSum returns the sum of row r's stored values.
func (m *SparseInt64Matrix) RowSum(r int) int64 {
	var s int64
	for _, c := range m.RowCells(r) {
		s += c.Val
	}
	return s
}

// DenseColumns returns the columns that hold at least one nonzero
// value, in ascending order, together with those columns densely and
// column-major: vals[k*Rows+r] is the element at (r, cols[k]). It is
// the transpose consumers need to compare or sum whole columns, at a
// cost of O(Cols + NNZ + len(cols)·Rows) instead of Rows·Cols lookups.
// Stored zero cells do not make a column nonzero.
func (m *SparseInt64Matrix) DenseColumns() (cols []int, vals []int64) {
	m.Compact()
	// slot[c] is 1 + the position of column c in cols, 0 when empty.
	slot := make([]int32, m.Cols)
	busy := 0
	for _, c := range m.cells {
		if c.Val != 0 && slot[c.Col] == 0 {
			slot[c.Col] = 1
			busy++
		}
	}
	cols = make([]int, 0, busy)
	for c, s := range slot {
		if s != 0 {
			cols = append(cols, c)
			slot[c] = int32(len(cols))
		}
	}
	vals = make([]int64, len(cols)*m.Rows)
	for r := 0; r < m.Rows; r++ {
		for _, c := range m.cells[m.rowStart[r]:m.rowStart[r+1]] {
			if c.Val != 0 {
				vals[int(slot[c.Col]-1)*m.Rows+r] = c.Val
			}
		}
	}
	return cols, vals
}

// Compact lays the matrix out in its canonical compacted CSR, releasing
// the build slab and open cells: memory is then exactly the live cells
// plus one offset per row, and two matrices with equal content are
// deeply equal regardless of their build histories. Compacting a
// laid-out matrix does nothing.
func (m *SparseInt64Matrix) Compact() {
	if m.rowStart == nil {
		*m = *layout([]*SparseInt64Matrix{m}, []int{0}, m.Rows, m.Cols)
	}
}

// ConcatColumns builds the compacted rows×cols matrix whose columns
// [offsets[i], offsets[i]+parts[i].Cols) hold parts[i]: each output row
// is the concatenation of the parts' rows in order, their columns
// rebased by the part's offset. The parts need not be compacted, and
// are only read. The result is deeply equal to Appending every cell of
// the parts in that order and compacting. A stored zero cell of a part
// stays stored, where Append would drop it; every consumer treats the
// two alike. parts must be nonempty, share one row count, and lie in
// order without overlapping inside [0, cols).
func ConcatColumns(parts []*SparseInt64Matrix, offsets []int, cols int) *SparseInt64Matrix {
	if len(parts) == 0 || len(parts) != len(offsets) {
		panic(fmt.Sprintf("ds: %d parts with %d offsets", len(parts), len(offsets)))
	}
	rows := parts[0].Rows
	end := 0
	for i, p := range parts {
		if p.Rows != rows {
			panic(fmt.Sprintf("ds: part %d has %d rows, want %d", i, p.Rows, rows))
		}
		if offsets[i] < end || offsets[i]+p.Cols > cols {
			panic(fmt.Sprintf("ds: part %d columns [%d,%d) overlap the previous part or leave [0,%d)", i, offsets[i], offsets[i]+p.Cols, cols))
		}
		end = offsets[i] + p.Cols
	}
	return layout(parts, offsets, rows, cols)
}

// Clone returns a compacted deep copy; m is only read.
func (m *SparseInt64Matrix) Clone() *SparseInt64Matrix {
	return layout([]*SparseInt64Matrix{m}, []int{0}, m.Rows, m.Cols)
}

// layout places the cells of parts, each laid out or still building,
// into a new compacted rows×cols matrix at one exact-size allocation: a
// counting pass sizes every row, and a placing pass copies each part's
// cells in order, columns rebased by the part's offset. A building
// part's cells of one row sit in its slab in column order, followed by
// the row's open cell, so each output row comes out in ascending column
// order.
func layout(parts []*SparseInt64Matrix, offsets []int, rows, cols int) *SparseInt64Matrix {
	// start[r+1] counts row r's cells; the prefix sum turns start[r+1]
	// into row r's start, the placing cursor, which ends at row r's end.
	start := make([]int, rows+1)
	for _, p := range parts {
		if p.rowStart != nil {
			for r := range rows {
				start[r+1] += p.rowStart[r+1] - p.rowStart[r]
			}
			continue
		}
		for _, chunk := range p.chunks() {
			for _, c := range chunk {
				start[c.row+1]++
			}
		}
		for r, o := range p.open {
			if o.col != noCol {
				start[r+1]++
			} else if o.val != 0 {
				panic(fmt.Sprintf("ds: sparse column %d outside [0,%d)", o.col, p.Cols))
			}
		}
	}
	nnz := 0
	for r := 1; r <= rows; r++ {
		start[r], nnz = nnz, nnz+start[r]
	}
	cells := make([]SparseCell, nnz)
	for i, p := range parts {
		off := int32(offsets[i])
		if p.rowStart != nil {
			for r := range rows {
				dst := cells[start[r+1]:]
				n := copy(dst, p.cells[p.rowStart[r]:p.rowStart[r+1]])
				for k := range dst[:n] {
					dst[k].Col += off
				}
				start[r+1] += n
			}
			continue
		}
		for _, chunk := range p.chunks() {
			for _, c := range chunk {
				cells[start[c.row+1]] = SparseCell{Col: c.col + off, Val: c.val}
				start[c.row+1]++
			}
		}
		for r, o := range p.open {
			if o.col != noCol {
				cells[start[r+1]] = SparseCell{Col: int32(o.col) + off, Val: o.val}
				start[r+1]++
			}
		}
	}
	return &SparseInt64Matrix{Rows: rows, Cols: cols, rowStart: start, cells: cells}
}
