package ds

import "fmt"

// SparseCell is one stored element of a SparseInt64Matrix: the column
// index and the value. Columns fit int32 because the trace analysis
// bounds window counts far below 2^31.
type SparseCell struct {
	Col int32
	Val int64
}

// SparseInt64Matrix is a rows×cols matrix of int64 storing only the
// nonzero elements, row by row in ascending column order (CSR-style:
// after Compact every row is a slice into one shared backing array).
// It backs the per-window load tables of the traffic analysis, which
// are mostly zero for realistic workloads: at windows shorter than a
// burst most windows carry no traffic.
//
// Rows are built by appending cells in nondecreasing column order
// (Append), which is how both the sweep-line kernel and the legacy
// pairwise analysis produce them. During building, row storage is
// carved from shared arena blocks so that growing many rows costs a
// handful of allocations instead of one per row per doubling.
type SparseInt64Matrix struct {
	Rows, Cols int
	rows       [][]SparseCell
	nnz        int

	// arena is the current block new row segments are carved from;
	// arenaBlock is the size of the next block to allocate. Both are
	// reset by Compact, after which the matrix is immutable in shape.
	arena      []SparseCell
	arenaBlock int
}

// sparseArenaStart and sparseArenaMax bound the arena block sizes: the
// first block is small so tiny matrices stay cheap, later blocks double
// up to the max so huge analyses stay at a handful of allocations.
const (
	sparseArenaStart = 256
	sparseArenaMax   = 1 << 16
)

// NewSparseInt64Matrix returns an empty rows×cols sparse matrix.
func NewSparseInt64Matrix(rows, cols int) *SparseInt64Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("ds: invalid matrix shape %dx%d", rows, cols))
	}
	return &SparseInt64Matrix{
		Rows:       rows,
		Cols:       cols,
		rows:       make([][]SparseCell, rows),
		arenaBlock: sparseArenaStart,
	}
}

// Append adds v to the element at (r, c). The column must be at or
// after the last column stored in row r; appending to the same column
// accumulates into the existing cell. Zero v appends are ignored so
// the stored structure holds nonzeros only.
//
// The same-column accumulate case is split out so it inlines: it is the
// hot path of the sweep kernel, which credits the same (pair, window)
// cell once per overlap interval — typically many times per cell.
func (m *SparseInt64Matrix) Append(r, c int, v int64) {
	if row := m.rows[r]; len(row) > 0 && int(row[len(row)-1].Col) == c {
		row[len(row)-1].Val += v
		return
	}
	m.appendNew(r, c, v)
}

// appendNew handles the Append cases beyond same-column accumulation:
// validation, zero dropping and cell creation (growing the row through
// the arena when full).
func (m *SparseInt64Matrix) appendNew(r, c int, v int64) {
	if c < 0 || c >= m.Cols {
		panic(fmt.Sprintf("ds: sparse column %d outside [0,%d)", c, m.Cols))
	}
	if v == 0 {
		return
	}
	row := m.rows[r]
	if n := len(row); n > 0 && int(row[n-1].Col) > c {
		panic(fmt.Sprintf("ds: sparse append to row %d column %d after column %d", r, c, row[n-1].Col))
	}
	if len(row) == cap(row) {
		row = m.growRow(row)
	}
	m.rows[r] = append(row, SparseCell{Col: int32(c), Val: v})
	m.nnz++
}

// growRow moves row into a fresh segment with quadrupled capacity,
// carved from the shared arena. The 4× factor keeps the amortized copy
// cost per cell at ~n/3 (vs ~n for doubling) — the dominant cost when a
// fine-windowed analysis appends millions of cells — while the
// abandoned segments stay transient: Compact repacks to exact size.
func (m *SparseInt64Matrix) growRow(row []SparseCell) []SparseCell {
	newCap := 4 * len(row)
	if newCap < 4 {
		newCap = 4
	}
	if len(m.arena) < newCap {
		block := m.arenaBlock
		if block < newCap {
			block = newCap
		}
		m.arena = make([]SparseCell, block)
		if m.arenaBlock < sparseArenaMax {
			m.arenaBlock *= 2
		}
	}
	seg := m.arena[:0:newCap]
	m.arena = m.arena[newCap:]
	return append(seg, row...)
}

// RowCells returns the stored cells of row r in ascending column
// order. The slice aliases the matrix storage and must not be modified.
func (m *SparseInt64Matrix) RowCells(r int) []SparseCell { return m.rows[r] }

// RowSum returns the sum of row r's stored values.
func (m *SparseInt64Matrix) RowSum(r int) int64 {
	var s int64
	for _, c := range m.rows[r] {
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
	// slot[c] is 1 + the position of column c in cols, 0 when empty.
	slot := make([]int32, m.Cols)
	for _, row := range m.rows {
		for _, c := range row {
			if c.Val != 0 {
				slot[c.Col] = 1
			}
		}
	}
	for c, s := range slot {
		if s != 0 {
			cols = append(cols, c)
			slot[c] = int32(len(cols))
		}
	}
	vals = make([]int64, len(cols)*m.Rows)
	for r, row := range m.rows {
		for _, c := range row {
			if c.Val != 0 {
				vals[int(slot[c.Col]-1)*m.Rows+r] = c.Val
			}
		}
	}
	return cols, vals
}

// Compact repacks every row into one exact-size backing array and
// releases the build arena, leaving the canonical CSR layout: memory
// is exactly the live cells, and two matrices with equal content are
// deeply equal regardless of their build histories.
func (m *SparseInt64Matrix) Compact() {
	backing := make([]SparseCell, 0, m.nnz)
	for r, row := range m.rows {
		start := len(backing)
		backing = append(backing, row...)
		m.rows[r] = backing[start:len(backing):len(backing)]
	}
	m.arena = nil
	m.arenaBlock = sparseArenaStart
}

// ConcatColumns builds the compacted rows×cols matrix whose columns
// [offsets[i], offsets[i]+parts[i].Cols) hold parts[i]: each output row
// is the concatenation of the parts' rows in order, their columns
// rebased by the part's offset. The parts need not be compacted. The
// result is deeply equal to Appending every cell of the parts in that
// order and compacting, at one exact-size allocation instead of growing
// rows: the stored cells are counted first, then copied once. A stored
// zero cell of a part stays stored, where Append would drop it; every
// consumer treats the two alike. parts must be nonempty, share one row
// count, and lie in order without overlapping inside [0, cols).
func ConcatColumns(parts []*SparseInt64Matrix, offsets []int, cols int) *SparseInt64Matrix {
	if len(parts) == 0 || len(parts) != len(offsets) {
		panic(fmt.Sprintf("ds: %d parts with %d offsets", len(parts), len(offsets)))
	}
	rows := parts[0].Rows
	nnz, end := 0, 0
	for i, p := range parts {
		if p.Rows != rows {
			panic(fmt.Sprintf("ds: part %d has %d rows, want %d", i, p.Rows, rows))
		}
		if offsets[i] < end || offsets[i]+p.Cols > cols {
			panic(fmt.Sprintf("ds: part %d columns [%d,%d) overlap the previous part or leave [0,%d)", i, offsets[i], offsets[i]+p.Cols, cols))
		}
		end = offsets[i] + p.Cols
		nnz += p.nnz
	}
	out := NewSparseInt64Matrix(rows, cols)
	out.nnz = nnz
	backing := make([]SparseCell, 0, nnz)
	for r := range out.rows {
		start := len(backing)
		for i, p := range parts {
			off := int32(offsets[i])
			for _, c := range p.rows[r] {
				backing = append(backing, SparseCell{Col: c.Col + off, Val: c.Val})
			}
		}
		out.rows[r] = backing[start:len(backing):len(backing)]
	}
	return out
}

// Clone returns a compacted deep copy.
func (m *SparseInt64Matrix) Clone() *SparseInt64Matrix {
	out := NewSparseInt64Matrix(m.Rows, m.Cols)
	out.nnz = m.nnz
	backing := make([]SparseCell, 0, m.nnz)
	for r, row := range m.rows {
		start := len(backing)
		backing = append(backing, row...)
		out.rows[r] = backing[start:len(backing):len(backing)]
	}
	return out
}
