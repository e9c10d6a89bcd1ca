package trace

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"slices"
)

// Fingerprint is a stable content hash used to address designs in the
// cross-request cache (internal/cache). Two analyses with equal
// solver-visible content — same receiver count, window edges, per-window
// loads, pair summaries and aggregate overlap matrix — fingerprint
// equal regardless of which kernel produced them, in what order their
// sparse rows were built, or whether a table stores explicit zeros.
type Fingerprint [sha256.Size]byte

// String renders the fingerprint as lowercase hex (the on-disk cache
// file name).
func (f Fingerprint) String() string { return hex.EncodeToString(f[:]) }

// analysisFPTag versions the canonical encoding below. Bump it whenever
// the byte layout changes so stale cache entries can never alias fresh
// fingerprints.
const analysisFPTag = "stbus.analysis.v3"

// fpWriter streams fixed-width little-endian words into a hash through
// a small buffer, keeping the per-value cost at a few appends instead
// of one hash.Write call per matrix cell.
type fpWriter struct {
	h   hash.Hash
	buf []byte
}

func newFPWriter(h hash.Hash) *fpWriter { return &fpWriter{h: h, buf: make([]byte, 0, 4096)} }

func (w *fpWriter) flush() {
	if len(w.buf) > 0 {
		w.h.Write(w.buf)
		w.buf = w.buf[:0]
	}
}

func (w *fpWriter) i64(v int64) {
	if cap(w.buf)-len(w.buf) < 8 {
		w.flush()
	}
	w.buf = binary.LittleEndian.AppendUint64(w.buf, uint64(v))
}

func (w *fpWriter) str(s string) {
	w.i64(int64(len(s)))
	w.flush()
	w.h.Write([]byte(s))
}

// Fingerprint returns the content hash of the analysis. The result is
// computed once and memoized (same benign-race contract as
// MaxWindowLoad: concurrent first calls all compute the same value).
// The analysis must not be mutated after the first call.
func (a *Analysis) Fingerprint() Fingerprint {
	if p := a.fp.Load(); p != nil {
		return *p
	}
	f := a.fingerprint()
	a.fp.Store(&f)
	return f
}

// fingerprint serializes the canonical form: a version tag, the shape,
// the two per-window tables (Analysis.tables order) as per-row nonzero
// counts followed by their (column, value) pairs — zero-valued stored
// cells skipped, so the hash depends on logical content, not on which
// kernel happened to store an explicit zero — then each pair summary as
// (I, J, critical flag, point count, points) closed by a −1, empty
// summaries skipped for the same reason, and the aggregate overlap
// upper triangle. The cost is O(R² + nonzeros), independent of the
// number of empty windows.
func (a *Analysis) fingerprint() Fingerprint {
	h := sha256.New()
	w := newFPWriter(h)
	w.str(analysisFPTag)
	nT := a.NumReceivers
	w.i64(int64(nT))
	w.i64(int64(len(a.Boundaries)))
	for _, b := range a.Boundaries {
		w.i64(b)
	}
	for _, sp := range a.tables() {
		for r := 0; r < sp.Rows; r++ {
			cells := sp.RowCells(r)
			nnz := 0
			for _, c := range cells {
				if c.Val != 0 {
					nnz++
				}
			}
			w.i64(int64(nnz))
			for _, c := range cells {
				if c.Val != 0 {
					w.i64(int64(c.Col))
					w.i64(c.Val)
				}
			}
		}
	}
	for _, p := range a.Pairs {
		crit := int64(0)
		if p.Critical {
			crit = 1
		} else if len(p.Frontier) == 0 {
			continue
		}
		w.i64(int64(p.I))
		w.i64(int64(p.J))
		w.i64(crit)
		w.i64(int64(len(p.Frontier)))
		for _, pt := range p.Frontier {
			w.i64(pt.Len)
			w.i64(pt.Cycles)
		}
	}
	w.i64(-1)
	for i := 0; i < nT; i++ {
		for j := i + 1; j < nT; j++ {
			w.i64(a.OM.At(i, j))
		}
	}
	w.flush()
	var f Fingerprint
	h.Sum(f[:0])
	return f
}

// Clone returns a deep copy of the analysis sharing no storage with the
// original, in O(R² + nonzeros). Memoized values (MaxWindowLoad,
// Fingerprint) are not carried over: a clone is typically about to be
// perturbed.
func (a *Analysis) Clone() *Analysis {
	pairs := slices.Clone(a.Pairs)
	for k := range pairs {
		pairs[k].Frontier = slices.Clone(pairs[k].Frontier)
	}
	return &Analysis{
		NumReceivers: a.NumReceivers,
		Boundaries:   append([]int64(nil), a.Boundaries...),
		Comm:         a.Comm.Clone(),
		CritComm:     a.CritComm.Clone(),
		Pairs:        pairs,
		OM:           a.OM.Clone(),
	}
}
