package core

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/ds"
	"repro/internal/trace"
)

// cellAt returns the element at (r, c) of a sparse table, zero when
// not stored.
func cellAt(m *ds.SparseInt64Matrix, r, c int) int64 {
	for _, cell := range m.RowCells(r) {
		if int(cell.Col) == c {
			return cell.Val
		}
	}
	return 0
}

// pairRows is the dense per-window pair overlap an analysis summarizes:
// ov[k][m] and crit[k][m] are the overlap and critical overlap of the
// k-th pair (i, j > i), row-major, in window m.
type pairRows struct {
	ov, crit [][]int64
}

// buildConflictsDense is the window-by-window BuildConflicts, kept as
// the oracle of the summary-reading version: every (pair, window) cell
// of the dense rows is read, zero cells included.
func buildConflictsDense(a *trace.Analysis, rows pairRows, opts Options) [][]bool {
	nT := a.NumReceivers
	conflicts := make([][]bool, nT)
	for i := range conflicts {
		conflicts[i] = make([]bool, nT)
	}
	k := 0
	for i := 0; i < nT; i++ {
		for j := i + 1; j < nT; j++ {
			c := false
			for m := 0; m < a.NumWindows() && !c; m++ {
				if opts.OverlapThreshold >= 0 {
					limit := opts.OverlapThreshold * float64(a.WindowLen(m))
					if float64(rows.ov[k][m]) > limit {
						c = true
					}
				}
				if opts.SeparateCritical && rows.crit[k][m] > 0 {
					c = true
				}
			}
			conflicts[i][j], conflicts[j][i] = c, c
			k++
		}
	}
	return conflicts
}

// summarize folds dense pair rows into pair summaries: the frontier is
// found by sorting the nonzero windows by ascending length, longest
// overlap first among equal lengths, and keeping each point that
// overlaps more than every shorter one. A pair that never overlaps
// stores an empty summary when storeEmpty is set (no kernel does, but
// every consumer must treat it as absent), otherwise nothing.
func summarize(nT int, boundaries []int64, rows pairRows, storeEmpty bool) []trace.PairSummary {
	var out []trace.PairSummary
	k := 0
	for i := 0; i < nT; i++ {
		for j := i + 1; j < nT; j++ {
			var pts []trace.WindowOverlap
			p := trace.PairSummary{I: i, J: j}
			for m, v := range rows.ov[k] {
				if v > 0 {
					pts = append(pts, trace.WindowOverlap{Len: boundaries[m+1] - boundaries[m], Cycles: v})
				}
				p.Critical = p.Critical || rows.crit[k][m] > 0
			}
			sort.Slice(pts, func(x, y int) bool {
				if pts[x].Len != pts[y].Len {
					return pts[x].Len < pts[y].Len
				}
				return pts[x].Cycles > pts[y].Cycles
			})
			for _, pt := range pts {
				if n := len(p.Frontier); n == 0 || pt.Cycles > p.Frontier[n-1].Cycles {
					p.Frontier = append(p.Frontier, pt)
				}
			}
			if len(p.Frontier) > 0 || p.Critical || storeEmpty {
				out = append(out, p)
			}
			k++
		}
	}
	return out
}

// reduceWindowsDense is the O(W²·R) all-pairs window reduction the
// Pareto-frontier version replaced, kept as its oracle.
func reduceWindowsDense(a *trace.Analysis) []int {
	nW := a.NumWindows()
	nT := a.NumReceivers
	keep := make([]int, 0, nW)
	dominated := make([]bool, nW)
	for m := 0; m < nW; m++ {
		if dominated[m] {
			continue
		}
		for m2 := 0; m2 < nW; m2++ {
			if m2 == m || dominated[m2] {
				continue
			}
			// Does m dominate m2?
			if a.WindowLen(m) > a.WindowLen(m2) {
				continue
			}
			dom := true
			for t := 0; t < nT; t++ {
				if cellAt(a.Comm, t, m) < cellAt(a.Comm, t, m2) {
					dom = false
					break
				}
			}
			if dom {
				dominated[m2] = true
			}
		}
	}
	for m := 0; m < nW; m++ {
		if !dominated[m] {
			keep = append(keep, m)
		}
	}
	return keep
}

// sparseFromDense builds a compacted sparse matrix from dense rows. A
// zero cell is stored explicitly (an Append of +1 then −1) with
// probability zeroP, which no kernel does but every consumer must
// tolerate.
func sparseFromDense(rng *rand.Rand, dense [][]int64, cols int, zeroP float64) *ds.SparseInt64Matrix {
	m := ds.NewSparseInt64Matrix(len(dense), cols)
	for r, row := range dense {
		for c, v := range row {
			if v == 0 && rng.Float64() < zeroP {
				m.Append(r, c, 1)
				m.Append(r, c, -1)
				continue
			}
			m.Append(r, c, v)
		}
	}
	m.Compact()
	return m
}

// randomPreprocessAnalysis builds an analysis directly (no trace) with
// the shapes the window passes must get right: many idle windows,
// all-idle analyses, identical and equal-length windows, a short idle
// last window, explicit zero cells in both load tables, empty pair
// summaries, and overlaps that sit exactly on a threshold. It also
// returns the dense pair rows the summaries fold.
func randomPreprocessAnalysis(rng *rand.Rand) (*trace.Analysis, pairRows) {
	nT := 1 + rng.Intn(7)
	nW := 1 + rng.Intn(40)
	lens := []int64{10, 10, 10, 20, 5}
	boundaries := make([]int64, nW+1)
	for m := 1; m <= nW; m++ {
		boundaries[m] = boundaries[m-1] + lens[rng.Intn(len(lens))]
	}
	shortIdleLast := rng.Intn(4) == 0
	if shortIdleLast {
		boundaries[nW] = boundaries[nW-1] + 1 + rng.Int63n(3)
	}
	idleP := []float64{0, 0.5, 0.9, 1}[rng.Intn(4)]
	zeroP := []float64{0, 0.1}[rng.Intn(2)]
	wl := func(m int) int64 { return boundaries[m+1] - boundaries[m] }

	comm := make([][]int64, nT)
	crit := make([][]int64, nT)
	for t := range comm {
		comm[t] = make([]int64, nW)
		crit[t] = make([]int64, nW)
	}
	for m := 0; m < nW; m++ {
		if rng.Float64() < idleP || (shortIdleLast && m == nW-1) {
			continue
		}
		if m > 0 && wl(m) == wl(m-1) && rng.Intn(4) == 0 {
			for t := range comm { // an identical window
				comm[t][m] = comm[t][m-1]
			}
			continue
		}
		for t := range comm {
			if rng.Intn(2) == 0 {
				comm[t][m] = rng.Int63n(wl(m) + 1)
				crit[t][m] = rng.Int63n(comm[t][m] + 1)
			}
		}
	}

	nPairs := nT * (nT - 1) / 2
	ov := make([][]int64, nPairs)
	cov := make([][]int64, nPairs)
	om := ds.NewSymMatrix(nT)
	row := 0
	for i := 0; i < nT; i++ {
		for j := i + 1; j < nT; j++ {
			ov[row] = make([]int64, nW)
			cov[row] = make([]int64, nW)
			for m := 0; m < nW; m++ {
				hi := min(comm[i][m], comm[j][m])
				if hi == 0 || rng.Intn(3) == 0 {
					continue
				}
				// Multiples of a tenth of the window hit the 0.3
				// threshold exactly now and then.
				ov[row][m] = min(hi, wl(m)*rng.Int63n(11)/10)
				cov[row][m] = min(ov[row][m], crit[i][m], crit[j][m])
				om.Set(i, j, om.At(i, j)+ov[row][m])
			}
			row++
		}
	}
	rows := pairRows{ov: ov, crit: cov}
	return &trace.Analysis{
		NumReceivers: nT,
		Boundaries:   boundaries,
		Comm:         sparseFromDense(rng, comm, nW, zeroP),
		CritComm:     sparseFromDense(rng, crit, nW, zeroP),
		Pairs:        summarize(nT, boundaries, rows, zeroP > 0),
		OM:           om,
	}, rows
}

// TestBuildConflictsMatchesDenseOracle pins the summary-reading
// conflict build to the window-by-window oracle over the dense rows the
// summaries fold, at thresholds −1, 0 and 0.3, with critical separation
// on and off.
func TestBuildConflictsMatchesDenseOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for trial := 0; trial < 600; trial++ {
		a, rows := randomPreprocessAnalysis(rng)
		for _, thr := range []float64{-1, 0, 0.3} {
			for _, sep := range []bool{false, true} {
				opts := Options{OverlapThreshold: thr, SeparateCritical: sep}
				got, want := BuildConflicts(a, opts), buildConflictsDense(a, rows, opts)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("trial %d (threshold %v, critical %v): conflicts %v, oracle %v", trial, thr, sep, got, want)
				}
			}
		}
	}
}

// TestReduceWindowsMatchesDenseOracle pins the Pareto-frontier window
// reduction to the all-pairs oracle: the same kept windows in the same
// order, including the tie-break to the lowest of identical windows
// and a short idle last window, with the kept loads read back exactly.
func TestReduceWindowsMatchesDenseOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 2000; trial++ {
		a, _ := randomPreprocessAnalysis(rng)
		keep, comm := reduceWindows(a)
		if want := reduceWindowsDense(a); !reflect.DeepEqual(keep, want) {
			t.Fatalf("trial %d (%d receivers, %d windows): kept %v, oracle %v", trial, a.NumReceivers, a.NumWindows(), keep, want)
		}
		for r := 0; r < a.NumReceivers; r++ {
			for k, m := range keep {
				if comm[r][k] != cellAt(a.Comm, r, m) {
					t.Fatalf("trial %d: load[%d][window %d] = %d, want %d", trial, r, m, comm[r][k], cellAt(a.Comm, r, m))
				}
			}
		}
	}
}

// randomWideAnalysis builds a Comm-only analysis in one of three
// shapes the generic generator above rarely reaches:
//
//   - shape 0: a few load columns repeated at different window
//     lengths, so an identical but shorter later window must displace
//     an earlier one, and exact duplicates must keep the lowest index;
//   - shape 1: 65–130 receivers with a handful busy per window, often
//     receivers t and t+64 together, so support masks fold receivers
//     onto shared bits;
//   - shape 2: hundreds of equal-sum columns (a large antichain) with
//     some dominated copies, duplicates and longer repeats mixed in.
func randomWideAnalysis(rng *rand.Rand, shape int) *trace.Analysis {
	var nT, nW int
	var lens []int64
	switch shape {
	case 0:
		nT, nW, lens = 1+rng.Intn(8), 20+rng.Intn(100), []int64{4, 5, 8, 10, 16, 20}
	case 1:
		nT, nW, lens = 65+rng.Intn(66), 10+rng.Intn(70), []int64{10, 10, 20}
	default:
		nT, nW, lens = 2+rng.Intn(5), 200+rng.Intn(300), []int64{40, 40, 40, 40, 50}
	}
	boundaries := make([]int64, nW+1)
	for m := 1; m <= nW; m++ {
		boundaries[m] = boundaries[m-1] + lens[rng.Intn(len(lens))]
	}
	comm := make([][]int64, nT)
	for t := range comm {
		comm[t] = make([]int64, nW)
	}
	// copyFrom makes window m a copy of an earlier window, with one
	// receiver's load lowered when dominated is set.
	copyFrom := func(m int, dominated bool) {
		src := rng.Intn(m)
		for t := range comm {
			comm[t][m] = comm[t][src]
		}
		if dominated {
			t := rng.Intn(nT)
			comm[t][m] = max(0, comm[t][m]-1-rng.Int63n(3))
		}
	}
	switch shape {
	case 0:
		base := make([][]int64, 1+rng.Intn(5))
		for i := range base {
			base[i] = make([]int64, nT)
			for t := range base[i] {
				if rng.Intn(3) > 0 {
					base[i][t] = rng.Int63n(5)
				}
			}
		}
		for m := 0; m < nW; m++ {
			if rng.Intn(5) == 0 {
				continue // idle
			}
			col := base[rng.Intn(len(base))]
			for t := range comm {
				comm[t][m] = col[t]
			}
		}
	case 1:
		for m := 0; m < nW; m++ {
			if m > 0 && rng.Intn(4) == 0 {
				copyFrom(m, rng.Intn(2) == 0)
				continue
			}
			for n := 1 + rng.Intn(6); n > 0; n-- {
				t := rng.Intn(nT)
				v := 1 + rng.Int63n(boundaries[m+1]-boundaries[m])
				comm[t][m] = v
				if t+64 < nT && rng.Intn(2) == 0 {
					comm[t+64][m] = 1 + rng.Int63n(v)
				}
			}
		}
	default:
		const sum = 24
		for m := 0; m < nW; m++ {
			if m > 0 && rng.Intn(10) == 0 {
				copyFrom(m, rng.Intn(3) > 0)
				continue
			}
			for left := int64(sum); left > 0; {
				v := 1 + rng.Int63n(min(left, 6))
				comm[rng.Intn(nT)][m] += v
				left -= v
			}
		}
	}
	return &trace.Analysis{
		NumReceivers: nT,
		Boundaries:   boundaries,
		Comm:         sparseFromDense(rng, comm, nW, 0.05),
	}
}

// TestReduceWindowsMatchesDenseOracleWide pins the window reduction to
// the all-pairs oracle on the three randomWideAnalysis shapes: shorter
// identical windows, more than 64 receivers, and large antichains.
func TestReduceWindowsMatchesDenseOracleWide(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for trial := 0; trial < 300; trial++ {
		shape := trial % 3
		a := randomWideAnalysis(rng, shape)
		keep, comm := reduceWindows(a)
		if want := reduceWindowsDense(a); !reflect.DeepEqual(keep, want) {
			t.Fatalf("trial %d (shape %d, %d receivers, %d windows): kept %v, oracle %v", trial, shape, a.NumReceivers, a.NumWindows(), keep, want)
		}
		for r := 0; r < a.NumReceivers; r++ {
			for k, m := range keep {
				if comm[r][k] != cellAt(a.Comm, r, m) {
					t.Fatalf("trial %d (shape %d): load[%d][window %d] = %d, want %d", trial, shape, r, m, comm[r][k], cellAt(a.Comm, r, m))
				}
			}
		}
	}
}
