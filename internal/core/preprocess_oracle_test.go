package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
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

// quantizedCase is one shape of randomQuantizedAnalysis: how many
// windows survive the reduction, how many receivers there are, how
// large the loads are, and the lengths windows draw from.
type quantizedCase struct {
	kept, nT int
	big      bool    // loads of 64 and above: the load dimensions bucket
	scale    int64   // every load is multiplied by scale
	lens     []int64 // ascending
}

// randomQuantizedAnalysis builds a Comm-only analysis whose reduction
// keeps exactly c.kept busy windows: an antichain of distinct columns
// with equal totals (none dominates another, whatever their lengths),
// where column j puts its largest load on receiver j mod nT. Mixed in,
// in random window order, are windows the antichain dominates:
// identical copies, copies at a longer length, copies with one load
// lowered, and, with big loads, a small load on one antichain member's
// largest receiver at the longest length, whose every value buckets to
// level 0 so its query is empty. A few idle windows at the longest
// length are mixed in too.
func randomQuantizedAnalysis(rng *rand.Rand, c quantizedCase) *trace.Analysis {
	peak, rest := int64(40), int64(20)
	if c.big {
		peak, rest = 1024, 600
	}
	maxLen := c.lens[len(c.lens)-1]
	type window struct {
		len int64
		col []int64
	}
	var ws []window
	seen := map[string]bool{}
	for len(ws) < c.kept {
		col := make([]int64, c.nT)
		col[len(ws)%c.nT] = peak
		for left := rest; left > 0; {
			v := 1 + rng.Int63n(min(left, rest/4+1))
			col[rng.Intn(c.nT)] += v
			left -= v
		}
		if key := fmt.Sprint(col); !seen[key] {
			seen[key] = true
			for t := range col {
				col[t] *= c.scale
			}
			ws = append(ws, window{c.lens[rng.Intn(len(c.lens))], col})
		}
	}
	for n := c.kept/2 + rng.Intn(c.kept); n > 0; n-- {
		w := ws[rng.Intn(c.kept)]
		w.col = slices.Clone(w.col)
		switch rng.Intn(4) {
		case 0: // identical
		case 1: // longer, when a longer length exists
			if i := sort.Search(len(c.lens), func(i int) bool { return c.lens[i] > w.len }); i < len(c.lens) {
				w.len = c.lens[i+rng.Intn(len(c.lens)-i)]
			}
		case 2: // one load lowered
			t := rng.Intn(c.nT)
			w.col[t] = max(0, w.col[t]-1-rng.Int63n(w.col[t]+1))
		default: // below level 1 everywhere, when loads bucket
			if !c.big {
				continue
			}
			t := slices.Index(w.col, slices.Max(w.col))
			clear(w.col)
			w.col[t], w.len = 1+rng.Int63n(15), maxLen
		}
		ws = append(ws, w)
	}
	for n := rng.Intn(4); n > 0; n-- {
		ws = append(ws, window{maxLen, make([]int64, c.nT)})
	}
	rng.Shuffle(len(ws), func(i, j int) { ws[i], ws[j] = ws[j], ws[i] })

	boundaries := make([]int64, len(ws)+1)
	comm := make([][]int64, c.nT)
	for t := range comm {
		comm[t] = make([]int64, len(ws))
	}
	for m, w := range ws {
		boundaries[m+1] = boundaries[m] + w.len
		for t, v := range w.col {
			comm[t][m] = v
		}
	}
	return &trace.Analysis{
		NumReceivers: c.nT,
		Boundaries:   boundaries,
		Comm:         sparseFromDense(rng, comm, len(ws), 0.05),
	}
}

// randomDustAnalysis builds a small analysis whose surviving windows
// include some with an empty query. Each receiver peaks at 512 or more
// in a spike window of the longest length L, so its loads below 16
// bucket to level 0; one short window, L−100 long, spreads the lengths
// so a length 1 short of L buckets to level 0 too. The dust windows are
// L−1 long with loads below 16: no spike dominates them (spikes are
// longer), and they are visited while the kept set still fits in its
// last 64-entry block.
func randomDustAnalysis(rng *rand.Rand, nT int) *trace.Analysis {
	const L = 1000
	var lens []int64
	var cols [][]int64
	add := func(ln int64, col []int64) {
		lens, cols = append(lens, ln), append(cols, col)
	}
	for t := 0; t < nT; t++ {
		col := make([]int64, nT)
		col[t] = 512 + rng.Int63n(512)
		add(L, col)
	}
	dust := func() []int64 {
		col := make([]int64, nT)
		for n := 1 + rng.Intn(3); n > 0; n-- {
			col[rng.Intn(nT)] = 1 + rng.Int63n(15)
		}
		return col
	}
	add(L-100, dust())
	for n := 1 + rng.Intn(40); n > 0; n-- {
		add(L-1, dust())
	}
	perm := rng.Perm(len(cols))
	boundaries := make([]int64, len(cols)+1)
	comm := make([][]int64, nT)
	for t := range comm {
		comm[t] = make([]int64, len(cols))
	}
	for m, p := range perm {
		boundaries[m+1] = boundaries[m] + lens[p]
		for t, v := range cols[p] {
			comm[t][m] = v
		}
	}
	return &trace.Analysis{
		NumReceivers: nT,
		Boundaries:   boundaries,
		Comm:         sparseFromDense(rng, comm, len(cols), 0.05),
	}
}

// TestReduceWindowsMatchesDenseOracleQuantized pins the window
// reduction to the all-pairs oracle where its dominance index buckets
// values: loads of 64 and above, lengths 64 or more apart, candidates
// whose query is empty, more than 64 receivers, and identical windows.
// Small loads at lengths under 64 apart keep every level exact; the
// 2^40-cycle lengths with 2^30-scaled loads do not fit one packed
// visit key. The kept counts 63, 64, 65 and 200 put the last
// surviving window on either side of a 64-entry block edge, and
// randomDustAnalysis keeps windows whose query is empty.
func TestReduceWindowsMatchesDenseOracleQuantized(t *testing.T) {
	// check compares one reduction with the oracle and returns how many
	// busy windows it keeps.
	check := func(name string, a *trace.Analysis) (busy int) {
		t.Helper()
		keep, comm := reduceWindows(a)
		if want := reduceWindowsDense(a); !reflect.DeepEqual(keep, want) {
			t.Fatalf("%s (%d receivers, %d windows): kept %v, oracle %v", name, a.NumReceivers, a.NumWindows(), keep, want)
		}
		for k, m := range keep {
			var load int64
			for r := 0; r < a.NumReceivers; r++ {
				if comm[r][k] != cellAt(a.Comm, r, m) {
					t.Fatalf("%s: load[%d][window %d] = %d, want %d", name, r, m, comm[r][k], cellAt(a.Comm, r, m))
				}
				load += comm[r][k]
			}
			if load > 0 {
				busy++
			}
		}
		return busy
	}
	rng := rand.New(rand.NewSource(24))
	for trial := 0; trial < 200; trial++ {
		check(fmt.Sprintf("dust trial %d", trial), randomDustAnalysis(rng, []int{6, 70}[trial%2]))
	}
	trials := 3
	if raceEnabled { // one goroutine: the detector only slows the oracle
		trials = 1
	}
	spreads := []struct {
		lens  []int64
		scale int64
	}{
		{[]int64{100}, 1},
		{[]int64{100, 120, 163}, 1},
		{[]int64{100, 164, 400, 1000}, 1},
		{[]int64{1 << 40, 1<<40 + 64, 3 << 40}, 1 << 30},
	}
	for _, kept := range []int{63, 64, 65, 200} {
		for _, nT := range []int{6, 70} {
			for _, big := range []bool{false, true} {
				for _, sp := range spreads {
					c := quantizedCase{kept: kept, nT: nT, big: big, scale: sp.scale, lens: sp.lens}
					for trial := 0; trial < trials; trial++ {
						name := fmt.Sprintf("%+v trial %d", c, trial)
						if busy := check(name, randomQuantizedAnalysis(rng, c)); busy != kept {
							t.Fatalf("%s: %d busy windows kept, built for %d", name, busy, kept)
						}
					}
				}
			}
		}
	}
}
