package ds

// SymMatrix is a symmetric n×n matrix of int64 with a zero diagonal,
// storing only the strict upper triangle. It backs the aggregate
// overlap matrix OM of the paper (Eq. 1).
type SymMatrix struct {
	N    int
	data []int64
}

// NewSymMatrix allocates a zeroed n×n symmetric matrix.
func NewSymMatrix(n int) *SymMatrix {
	return &SymMatrix{N: n, data: make([]int64, n*(n-1)/2)}
}

func (m *SymMatrix) index(i, j int) int {
	if i > j {
		i, j = j, i
	}
	// Strict upper triangle, row-major: row i holds N-1-i entries.
	return i*(2*m.N-i-1)/2 + (j - i - 1)
}

// At returns the element at (i, j); the diagonal is always zero.
func (m *SymMatrix) At(i, j int) int64 {
	if i == j {
		return 0
	}
	return m.data[m.index(i, j)]
}

// Set stores v at (i, j) and (j, i). Setting the diagonal panics.
func (m *SymMatrix) Set(i, j int, v int64) {
	if i == j {
		panic("ds: SymMatrix diagonal is fixed at zero")
	}
	m.data[m.index(i, j)] = v
}

// Clone returns a deep copy.
func (m *SymMatrix) Clone() *SymMatrix {
	out := NewSymMatrix(m.N)
	copy(out.data, m.data)
	return out
}

// Max returns the largest element value.
func (m *SymMatrix) Max() int64 {
	var best int64
	for _, v := range m.data {
		if v > best {
			best = v
		}
	}
	return best
}

// Total returns the sum over all unordered pairs.
func (m *SymMatrix) Total() int64 {
	var total int64
	for _, v := range m.data {
		total += v
	}
	return total
}
