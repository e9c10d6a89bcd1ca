package core

import (
	"cmp"
	"context"
	"errors"
	"math"
	"math/bits"
	"slices"
	"sort"

	"repro/internal/ds"
	"repro/internal/obs"
	"repro/internal/trace"
)

// assignProblem is the specialized exact solver for the crossbar
// feasibility and binding problems. It exploits the assignment
// structure directly instead of going through the generic MILP: targets
// are placed one at a time (heaviest first) into buses under
// bandwidth/conflict/cap constraints, with symmetry breaking (a target
// may open at most one new bus) and capacity-based pruning.
type assignProblem struct {
	nT int
	// Reduced window view: only Pareto-maximal windows are kept for the
	// bandwidth constraints (a window whose per-target loads are all
	// dominated by another window can never be the binding constraint).
	ws   []int64   // reduced window lengths
	comm [][]int64 // comm[t][reduced window]

	conflict  [][]bool
	maxPerBus int
	om        *ds.SymMatrix
	order     []int     // visit order (decreasing total demand)
	suffix    [][]int64 // suffix[idx][w]: demand of targets order[idx:]
	maxNodes  int64
	// greedy memoizes the last greedyBinding: a binding probe's passes
	// and its anneal all start from the greedy binding at one count.
	greedy struct {
		k     int // 0: empty
		busOf []int
		obj   int64
		ok    bool
	}
}

// assignResult is the outcome of one solve.
type assignResult struct {
	feasible   bool
	busOf      []int
	maxOverlap int64
	nodes      int64
	// capped marks an optimize-mode solve whose node budget ran out
	// before the search tree was exhausted: busOf is the best incumbent
	// found, not a proven optimum.
	capped bool
	// pass1Nodes and pass1Cut report a binding probe's best-first
	// first pass: the nodes it spent (counted in nodes too) and whether
	// the budget cut it short (see bindExact).
	pass1Nodes int64
	pass1Cut   bool
}

const defaultMaxNodes = 20_000_000

func newAssignProblem(a *trace.Analysis, conflicts [][]bool, maxPerBus int, maxNodes int64) *assignProblem {
	if maxNodes <= 0 {
		maxNodes = defaultMaxNodes
	}
	nT := a.NumReceivers
	keep, comm := reduceWindows(a)
	p := &assignProblem{
		nT:        nT,
		ws:        make([]int64, len(keep)),
		comm:      comm,
		conflict:  conflicts,
		maxPerBus: maxPerBus,
		om:        a.OM,
		maxNodes:  maxNodes,
	}
	for wi, m := range keep {
		p.ws[wi] = a.WindowLen(m)
	}
	// Heaviest-demand-first ordering makes infeasibility surface early.
	p.order = make([]int, nT)
	totals := make([]int64, nT)
	for t := 0; t < nT; t++ {
		p.order[t] = t
		for _, v := range p.comm[t] {
			totals[t] += v
		}
	}
	sort.SliceStable(p.order, func(x, y int) bool { return totals[p.order[x]] > totals[p.order[y]] })
	nW := len(keep)
	p.suffix = make([][]int64, nT+1)
	p.suffix[nT] = make([]int64, nW)
	for idx := nT - 1; idx >= 0; idx-- {
		p.suffix[idx] = make([]int64, nW)
		for w, c := range p.comm[p.order[idx]] {
			p.suffix[idx][w] = p.suffix[idx+1][w] + c
		}
	}
	return p
}

// reduceWindows returns, in ascending order, the indices of the windows
// that are not dominated, and the receivers' loads in them
// (comm[t][k] is receiver t's load in window keep[k]). Window m
// dominates m' when every receiver's load in m is ≥ its load in m' and
// m is no longer than m' (tighter capacity, higher demand): then no
// binding can overload m' without overloading m. Of a set of identical
// windows only the lowest index is kept.
//
// The windows with traffic are visited by total load descending, then
// length ascending, then index ascending. A window that dominates
// another comes first in this order: its total is at least as large,
// and equal totals mean identical columns, settled by length and then
// index. So a window is dominated exactly when a kept window visited
// before it dominates it (dominance is transitive): nothing kept is
// ever evicted, and each window is tested once against the kept set.
// The order comes from stable radix passes over an int32 permutation,
// keyed by total and length together (by length first, in a pass of
// its own, when the two do not fit one 64-bit key).
//
// The kept set is searched through a bitset dominance index. Each
// receiver's load is one dimension and, when busy windows differ in
// length, maxLen − len is one more, so a dominator is at least the
// candidate in every dimension. A value v sits at level v >> shift,
// where the dimension's shift keeps its largest value below 64 levels
// (exact, shift 0, when that value is below 64). For each block of 64
// kept entries the index holds one word per (dimension, level ≥ 1)
// whose bit i is set when entry i reaches that level. A query ANDs,
// block by block, the words at the candidate's nonzero levels: the bits
// left are the entries at least the candidate's level everywhere. When
// every dimension is exact those are exactly its dominators; otherwise
// each is tested in full: its 64-bit support mask (bit t mod 64 for
// every busy receiver t, a necessary condition at any receiver count)
// must cover the candidate's, its length must be no greater, and its
// loads must cover the candidate's over the support. The entry that
// dominated the previous dominated window is tested first: periodic
// traffic repeats its dominators. The index holds at most 63 words per
// block and dimension, under one per (kept entry, dimension) in every
// full block.
//
// A window without traffic is dominated by every window at most as
// long, so at most one survives: the lowest-indexed of the shortest,
// when it is shorter than every window with traffic.
func reduceWindows(a *trace.Analysis) (keep []int, comm [][]int64) {
	nT := a.NumReceivers
	cols, vals := a.Comm.DenseColumns()
	column := func(k int) []int64 { return vals[k*nT : (k+1)*nT] }

	type window struct {
		len  int64
		mask uint64 // bit t mod 64 set for every busy receiver t
	}
	ws := make([]window, len(cols))
	key := make([]uint64, len(cols)) // the total load, then the visit key
	top := make([]int64, nT+1)       // each dimension's largest value
	minLen, maxLen, maxTotal := int64(math.MaxInt64), int64(0), int64(0)
	for k, m := range cols {
		w := window{len: a.WindowLen(m)}
		var total int64
		for t, v := range column(k) {
			total += v
			w.mask |= uint64(min(v, 1)) << (t & 63) // loads are ≥ 0
			top[t] = max(top[t], v)
		}
		ws[k], key[k] = w, uint64(total)
		minLen, maxLen, maxTotal = min(minLen, w.len), max(maxLen, w.len), max(maxTotal, total)
	}
	order := make([]int32, len(cols))
	for k := range order {
		order[k] = int32(k)
	}
	lenBits := bits.Len64(uint64(maxLen - minLen))
	if lenBits+bits.Len64(uint64(maxTotal)) > 64 {
		byLen := make([]uint64, len(cols))
		for k, w := range ws {
			byLen[k] = uint64(w.len - minLen)
		}
		order = radixSortStable(order, byLen)
		lenBits = 0
	}
	for k, w := range ws {
		key[k] = (uint64(maxTotal)-key[k])<<lenBits | uint64(w.len-minLen)&(1<<lenBits-1)
	}
	order = radixSortStable(order, key)

	// Each block of the index is stride words: level l ≥ 1 of dimension
	// d is word dim[d].base+l−1, for l up to top[d] >> dim[d].shift.
	if minLen < maxLen {
		top[nT] = maxLen - minLen
	} else {
		top = top[:nT]
	}
	type dimension struct{ shift, base int }
	dim := make([]dimension, len(top))
	stride, exact := 0, true
	for d, v := range top {
		sh := max(0, bits.Len64(uint64(v))-6)
		dim[d] = dimension{sh, stride}
		stride += int(v >> sh)
		exact = exact && sh == 0
	}

	// The kept entries' windows overwrite the visited prefix of order:
	// order[i] is entry i's window once i < kept.
	var idx []uint64
	type span struct{ from, to int } // a nonzero level's words, 1..level
	query := make([]span, 0, len(dim))
	add := func(d int, v int64) {
		if l := int(v >> dim[d].shift); l > 0 {
			query = append(query, span{dim[d].base, dim[d].base + l})
		}
	}
	kept := 0
	hint := 0 // the entry that dominated the last dominated window
	for _, k32 := range order {
		k := int(k32)
		w, c := ws[k], column(k)
		covers := func(i int) bool {
			e := ws[order[i]]
			if w.mask&^e.mask != 0 || e.len > w.len {
				return false
			}
			ec := column(int(order[i]))
			if nT <= 64 { // the mask is the exact support
				for m := w.mask; m != 0; m &= m - 1 {
					if t := bits.TrailingZeros64(m); ec[t] < c[t] {
						return false
					}
				}
				return true
			}
			for t, v := range c {
				if ec[t] < v {
					return false
				}
			}
			return true
		}
		if hint < kept && covers(hint) {
			continue
		}
		query = query[:0]
		if nT <= 64 {
			for m := w.mask; m != 0; m &= m - 1 {
				t := bits.TrailingZeros64(m)
				add(t, c[t])
			}
		} else {
			for t, v := range c {
				add(t, v)
			}
		}
		if len(dim) > nT {
			add(nT, maxLen-w.len)
		}
		dominated := false
		for lo := 0; lo < kept && !dominated; lo += 64 {
			blk := idx[lo/64*stride:]
			live := ^uint64(0)
			if n := kept - lo; n < 64 {
				live = 1<<n - 1
			}
			for _, q := range query {
				if live &= blk[q.to-1]; live == 0 {
					break
				}
			}
			for ; live != 0; live &= live - 1 {
				if i := lo + bits.TrailingZeros64(live); exact || covers(i) {
					dominated, hint = true, i
					break
				}
			}
		}
		if dominated {
			continue
		}
		if kept%64 == 0 {
			idx = append(idx, make([]uint64, stride)...)
		}
		blk, bit := idx[kept/64*stride:], uint64(1)<<(kept%64)
		for _, q := range query {
			for o := q.from; o < q.to; o++ {
				blk[o] |= bit
			}
		}
		order[kept] = k32
		kept++
	}

	// The shortest window with traffic is matched by a kept one:
	// whatever dominates it is at most as long.
	empty, next := -1, 0
	for m := 0; m < a.NumWindows(); m++ {
		if next < len(cols) && cols[next] == m {
			next++
			continue
		}
		if ln := a.WindowLen(m); ln < minLen {
			empty, minLen = m, ln
		}
	}

	byWindow := order[:kept]
	slices.Sort(byWindow)
	keep = make([]int, 0, kept+1)
	for _, k := range byWindow {
		keep = append(keep, cols[k])
	}
	if empty >= 0 {
		i, _ := slices.BinarySearch(keep, empty)
		keep = slices.Insert(keep, i, empty)
	}
	comm = make([][]int64, nT)
	for t := range comm {
		comm[t] = make([]int64, len(keep))
	}
	wi := 0 // keep and byWindow are both in ascending window order
	for _, k := range byWindow {
		if keep[wi] == empty {
			wi++
		}
		for t, v := range column(int(k)) {
			comm[t][wi] = v
		}
		wi++
	}
	return keep, comm
}

// radixSortStable returns order stably sorted by key[order[i]]
// ascending: an LSD radix sort, one counting pass per digit. A digit
// is at least 8 bits wide and at most as wide as the bit length of
// len(order), so keys below the entry count sort in a single pass.
// order may be reused as scratch.
func radixSortStable(order []int32, key []uint64) []int32 {
	var maxKey uint64
	for _, k := range key {
		maxKey = max(maxKey, k)
	}
	keyBits := bits.Len64(maxKey)
	if keyBits == 0 {
		return order
	}
	width := min(keyBits, max(8, bits.Len(uint(len(order)))))
	mask := uint64(1)<<width - 1
	count := make([]int32, mask+2)
	buf := make([]int32, len(order))
	for shift := 0; shift < keyBits; shift += width {
		clear(count)
		for _, o := range order {
			count[(key[o]>>shift)&mask+1]++
		}
		for d := 1; d < len(count); d++ {
			count[d] += count[d-1]
		}
		for _, o := range order {
			d := (key[o] >> shift) & mask
			buf[count[d]] = o
			count[d]++
		}
		order, buf = buf, order
	}
	return order
}

// lowerBound computes an analytic lower bound on the feasible bus
// count and names the bound that sets it ("bandwidth", "cardinality",
// "cap" or "clique"; on a tie the earlier one in that order):
//
//   - bandwidth: a window's total load over its length;
//   - cardinality: a bus holds at most j receivers that each carry
//     more than 1/(j+1) of a window, since j+1 of them overload it, so
//     the n_j such receivers need ⌈n_j/j⌉ buses (the simplest
//     dual-feasible-function bound of Fekete and Schepers, 2001);
//   - cap: the receivers over the targets-per-bus cap;
//   - clique: a conflict clique, whose members need distinct buses.
//
// Receiver t qualifies for j exactly when j ≥ ⌊ws/comm⌋, so n_j does
// not fall as j grows. Bucketing the receivers by that quotient and
// taking prefix sums gives every n_j of a window in O(nT + maxPerBus).
// j stops at maxPerBus, beyond which the cap bound is at least as
// strong, or at the largest quotient present, beyond which n_j stays
// put and ⌈n_j/j⌉ can only fall.
func (p *assignProblem) lowerBound() (int, string) {
	var band, card int
	byQuot := make([]int, p.maxPerBus+1) // receivers per ⌊ws/comm⌋ ≤ maxPerBus
	for wi, ws := range p.ws {
		var sum int64
		top := 0 // largest quotient bucketed
		for t := 0; t < p.nT; t++ {
			c := p.comm[t][wi]
			sum += c
			if c > 0 && ws/c <= int64(p.maxPerBus) {
				q := int(ws / c)
				byQuot[q]++
				top = max(top, q)
			}
		}
		band = max(band, int((sum+ws-1)/ws))
		n := byQuot[0]
		byQuot[0] = 0
		for j := 1; j <= top; j++ {
			n += byQuot[j]
			byQuot[j] = 0
			card = max(card, (n+j-1)/j)
		}
	}
	lb, kind := 0, ""
	for _, b := range []struct {
		need int
		kind string
	}{
		{band, "bandwidth"},
		{card, "cardinality"},
		{(p.nT + p.maxPerBus - 1) / p.maxPerBus, "cap"},
		// Exact at STbus sizes (see clique.go).
		{maxClique(p.conflict), "clique"},
	} {
		if b.need > lb {
			lb, kind = b.need, b.kind
		}
	}
	return lb, kind
}

// searchState is the mutable backtracking state of one solve.
type searchState struct {
	p         *assignProblem
	ctx       context.Context
	nB        int
	busOf     []int       // target -> bus (-1 unassigned)
	load      [][]int64   // load[bus][reduced window]
	count     []int       // targets per bus
	overlap   []int64     // per-bus aggregate pairwise overlap
	total     []int64     // summed load per reduced window (for the global prune)
	cands     []candidate // candidate buses of every node on the current path
	used      int         // buses opened so far
	nodes     int64
	maxNodes  int64               // node budget of this solve
	flushed   int64               // nodes already published to the core.solver_nodes metric
	rec       *obs.FlightRecorder // flight journal (nil-safe; looked up once per solve)
	best      int64               // incumbent objective (binding mode)
	bestBus   []int
	optimize  bool
	bestFirst bool  // try each node's buses by the overlap they would reach
	stopAt    int64 // binding mode: stop at the first binding this good (-1: never)
	capped    bool  // node budget exhausted
	stopErr   error // context cancellation observed mid-search
}

// candidate is a bus that can take the target placed at a node, and
// the overlap the target would add to it.
type candidate struct {
	bus   int
	added int64
}

// cancelCheckMask throttles context polling in the hot search loop:
// the context is consulted once every cancelCheckMask+1 nodes, cheap
// enough to be invisible yet prompt against any realistic deadline.
const cancelCheckMask = 1023

// pass1Divisor sets the node budget of a binding probe's best-first
// first pass to MaxNodes/pass1Divisor (see bindExact).
const pass1Divisor = 16

// searchPass tunes one solve beyond the plain index-order search.
type searchPass struct {
	// bestFirst tries the buses at each node in ascending order of the
	// overlap they would reach, ties in index order.
	bestFirst bool
	// maxNodes overrides the problem's node budget when positive.
	maxNodes int64
	// proven marks the seed's objective as the proven optimum: the
	// search stops at the first binding that attains it.
	proven bool
}

// solve finds a feasible assignment into nB buses; with optimize set it
// continues to the minimum-max-overlap binding (branch and bound seeded
// by a greedy incumbent). The context is polled at node-expansion
// boundaries; cancellation surfaces as a wrapped ErrCanceled.
func (p *assignProblem) solve(ctx context.Context, nB int, optimize bool) (*assignResult, error) {
	return p.solveSeeded(ctx, nB, optimize, nil, 0)
}

// solveSeeded is solve with an external warm incumbent for the
// optimize mode, which does not change the returned binding.
//
// seedBus is a known-feasible binding (already validated by the
// caller) with objective seedObj on THIS problem. When the seed beats
// the greedy incumbent it becomes the starting incumbent with the bound
// tightened to seedObj+1, pruning every subtree that cannot strictly
// improve on it. Let G be the greedy incumbent's objective and opt the
// true optimum.
//
//   - If opt < G, the unseeded search returns the first
//     depth-first binding achieving opt (each improvement overwrites
//     st.bestBus, and once st.best == opt no later equal binding can
//     displace it). Since seedObj ≥ opt, the seeded bound
//     min(G, seedObj+1) is still > opt, so every prefix of that first
//     opt-achiever (prefix overlaps ≤ opt < bound) survives pruning and
//     it is again the last binding recorded.
//   - If opt == G, then seedObj ≥ opt = G means seedObj+1 > G: the seed
//     does not tighten the bound, and the search is the unseeded one.
//
// A search cut short by the node budget before it improves on the seed
// returns the seed itself, capped, at its own objective seedObj. One cut
// short with no binding at all returns ErrSearchLimit together with a
// result that holds only the nodes it spent.
func (p *assignProblem) solveSeeded(ctx context.Context, nB int, optimize bool, seedBus []int, seedObj int64) (*assignResult, error) {
	return p.search(ctx, nB, optimize, seedBus, seedObj, searchPass{})
}

// bindExact is the exact binding probe at k buses, in two passes.
//
// Pass 1 tries the buses best-first and is seeded like any binding
// search. It usually meets the optimum opt early, so the bound prunes
// hard from then on, and running to completion it proves opt. Among
// the bindings that attain opt it may end on another than the
// index-order search would.
//
// Pass 2 is the index-order search seeded with pass 1's binding, so
// under the bound opt+1, and it stops at its first complete binding.
// Every binding it can reach attains opt, and by solveSeeded's argument
// the first one is the binding the unseeded index-order search
// returns: the answer does not depend on pass 1. When the greedy
// incumbent already attains opt, it is that answer, and pass 2 does not
// run.
//
// Pass 1 may spend MaxNodes/pass1Divisor nodes. When it is cut short
// it is discarded, and the index-order search runs from the warm seed
// alone under the full budget, as a one-pass probe would: capped
// designs do not move. The result counts the nodes of both passes.
func (p *assignProblem) bindExact(ctx context.Context, k int, seedBus []int, seedObj int64) (*assignResult, error) {
	first, err := p.search(ctx, k, true, seedBus, seedObj,
		searchPass{bestFirst: true, maxNodes: max(1, p.maxNodes/pass1Divisor)})
	cut := errors.Is(err, ErrSearchLimit) || err == nil && first.capped
	if err != nil && !cut {
		return nil, err
	}
	_, greedyObj, greedyOK := p.greedyBinding(k) // memoized by pass 1
	var res *assignResult
	switch {
	case cut:
		res, err = p.solveSeeded(ctx, k, true, seedBus, seedObj)
	case !first.feasible:
		res = &assignResult{} // pass 1 proved k buses infeasible
	case greedyOK && greedyObj <= first.maxOverlap:
		// Pass 1 never left the greedy incumbent, which is the answer.
		res = &assignResult{feasible: true, busOf: first.busOf, maxOverlap: first.maxOverlap}
	default:
		res, err = p.search(ctx, k, true, first.busOf, first.maxOverlap, searchPass{proven: true})
	}
	if res != nil {
		res.nodes += first.nodes
		res.pass1Nodes, res.pass1Cut = first.nodes, cut
	}
	return res, err
}

// search is solveSeeded tuned by pass.
func (p *assignProblem) search(ctx context.Context, nB int, optimize bool, seedBus []int, seedObj int64, pass searchPass) (*assignResult, error) {
	if nB <= 0 {
		return &assignResult{}, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, canceledErr(ctx)
	}
	st := p.newSearchState(ctx, nB, optimize)
	st.bestFirst = pass.bestFirst
	if pass.maxNodes > 0 {
		st.maxNodes = pass.maxNodes
	}
	seeded := false

	if optimize {
		// Seed the incumbent with a greedy min-overlap binding so the
		// branch and bound starts with a good bound.
		if busOf, obj, ok := p.greedyBinding(nB); ok {
			st.best = obj
			st.bestBus = busOf
			st.rec.Emit(obs.Event{Kind: obs.EvIncumbent, K: nB, Val: obj, Who: "greedy"})
		}
		// An external warm incumbent tightens the bound further (see
		// above for why +1 preserves the answer).
		if seedBus != nil && seedObj+1 < st.best {
			st.best = seedObj + 1
			st.bestBus = append([]int(nil), seedBus...)
			seeded = true
		}
		if pass.proven {
			st.stopAt = seedObj
		}
	}

	found := st.dfs(0, 0)
	metNodes.Add(st.nodes - st.flushed)
	res := &assignResult{nodes: st.nodes}
	if st.stopErr != nil {
		return nil, st.stopErr
	}
	if st.capped && !found && st.bestBus == nil {
		return res, ErrSearchLimit // res carries the nodes the probe spent
	}
	if optimize {
		if st.bestBus == nil {
			return res, nil // infeasible
		}
		res.feasible = true
		res.busOf = st.bestBus
		res.maxOverlap = st.best
		if seeded && st.best == seedObj+1 {
			// No improvement recorded: the incumbent is still the seed,
			// whose objective is seedObj, not the tightened bound.
			res.maxOverlap = seedObj
		}
		// A truncated optimality search still holds a feasible
		// incumbent, but it is not proven optimal — surface that
		// instead of passing the incumbent off as the optimum.
		res.capped = st.capped
		return res, nil
	}
	if !found {
		return res, nil
	}
	res.feasible = true
	res.busOf = append([]int(nil), st.busOf...)
	res.maxOverlap = MaxOverlapOfMatrix(p.om, nB, res.busOf)
	return res, nil
}

// newSearchState builds the backtracking state for one solve of p into
// nB buses.
func (p *assignProblem) newSearchState(ctx context.Context, nB int, optimize bool) *searchState {
	nW := len(p.ws)
	st := &searchState{
		p:        p,
		ctx:      ctx,
		rec:      obs.FlightRecorderFrom(ctx),
		nB:       nB,
		busOf:    make([]int, p.nT),
		load:     make([][]int64, nB),
		count:    make([]int, nB),
		overlap:  make([]int64, nB),
		total:    make([]int64, nW),
		maxNodes: p.maxNodes,
		optimize: optimize,
		best:     int64(1) << 62,
		stopAt:   -1,
	}
	for t := range st.busOf {
		st.busOf[t] = -1
	}
	for b := range st.load {
		st.load[b] = make([]int64, nW)
	}
	return st
}

// dfs places targets order[idx:]; curMax is the running binding
// objective. In feasibility mode it returns true at the first complete
// assignment (leaving st.busOf filled); in optimize mode it records
// improvements into st.bestBus and returns false so the search
// exhausts (subject to pruning), unless an improvement reaches
// st.stopAt.
func (st *searchState) dfs(idx int, curMax int64) bool {
	p := st.p
	st.nodes++
	if st.nodes > st.maxNodes {
		st.capped = true
		return false
	}
	if st.nodes&cancelCheckMask == 0 {
		delta := st.nodes - st.flushed
		metNodes.Add(delta)
		st.rec.Emit(obs.Event{Kind: obs.EvNodes, K: st.nB, Val: delta, Who: "bb"})
		st.flushed = st.nodes
		if err := st.ctx.Err(); err != nil {
			st.stopErr = canceledErr(st.ctx)
			st.capped = true // unwind through the capped fast path
			return false
		}
	}
	if idx == p.nT {
		if st.optimize {
			if curMax < st.best {
				st.best = curMax
				st.bestBus = append([]int(nil), st.busOf...)
				st.rec.Emit(obs.Event{Kind: obs.EvIncumbent, K: st.nB, Val: curMax, Who: "bb"})
				return curMax <= st.stopAt
			}
			return false
		}
		return true
	}
	t := p.order[idx]
	nW := len(p.ws)
	// Global capacity prune: remaining demand must fit the remaining
	// capacity across all buses.
	for w := 0; w < nW; w++ {
		if p.suffix[idx][w] > int64(st.nB)*p.ws[w]-st.total[w] {
			return false
		}
	}
	limit := st.used
	if limit >= st.nB {
		limit = st.nB - 1 // no new bus available
	}
	if !st.bestFirst {
		for b := 0; b <= limit; b++ {
			if added, ok := st.admits(t, b); ok {
				if st.branch(idx, t, b, added, curMax) {
					return true
				}
				if st.capped {
					return false
				}
			}
		}
		return false
	}
	// Best first: gather the buses that can take t onto the candidate
	// stack, above the entries of the nodes on the path to this one,
	// and try them by the overlap they would reach.
	base := len(st.cands)
	for b := 0; b <= limit; b++ {
		if added, ok := st.admits(t, b); ok {
			st.cands = append(st.cands, candidate{bus: b, added: added})
		}
	}
	end := len(st.cands)
	slices.SortStableFunc(st.cands[base:end], func(x, y candidate) int {
		return cmp.Compare(st.overlap[x.bus]+x.added, st.overlap[y.bus]+y.added)
	})
	for i := base; i < end; i++ {
		b, added := st.cands[i].bus, st.cands[i].added
		if st.overlap[b]+added >= st.best {
			break // the incumbent improved since b was gathered
		}
		if st.branch(idx, t, b, added, curMax) {
			return true
		}
		if st.capped {
			return false
		}
	}
	st.cands = st.cands[:base]
	return false
}

// admits reports whether bus b can take target t under the cap, the
// conflicts (Eq. 7) and the bandwidth of every reduced window (Eq. 4)
// and, in binding mode, whether the overlap t would add to it keeps
// the bus below the incumbent; added is that overlap.
func (st *searchState) admits(t, b int) (added int64, ok bool) {
	p := st.p
	if st.count[b] >= p.maxPerBus {
		return 0, false
	}
	for other, ob := range st.busOf {
		if ob == b && p.conflict[t][other] {
			return 0, false
		}
	}
	for w, ws := range p.ws {
		if st.load[b][w]+p.comm[t][w] > ws {
			return 0, false
		}
	}
	if st.optimize {
		for other, ob := range st.busOf {
			if ob == b {
				added += p.om.At(t, other)
			}
		}
		if st.overlap[b]+added >= st.best {
			return 0, false // cannot improve the incumbent
		}
	}
	return added, true
}

// branch places target t, the idx-th in visit order, on bus b, searches
// the rest, and undoes the placement unless the search ended there.
func (st *searchState) branch(idx, t, b int, added, curMax int64) bool {
	p := st.p
	newBus := b == st.used
	if newBus {
		st.used++
	}
	st.busOf[t] = b
	st.count[b]++
	st.overlap[b] += added
	for w, c := range p.comm[t] {
		st.load[b][w] += c
		st.total[w] += c
	}
	if st.dfs(idx+1, max(curMax, st.overlap[b])) {
		return true // keep the assignment in place
	}
	st.busOf[t] = -1
	st.count[b]--
	st.overlap[b] -= added
	for w, c := range p.comm[t] {
		st.load[b][w] -= c
		st.total[w] -= c
	}
	if newBus {
		st.used--
	}
	return false
}

// validBinding reports whether busOf is a feasible binding of every
// target into nB buses under this problem's conflict, cap and reduced-
// window bandwidth constraints. It is the gate for externally supplied
// (cached) bindings: O(nT² + nB·nW) — cheap enough to run on every
// candidate, so cached state never has to be trusted.
func (p *assignProblem) validBinding(nB int, busOf []int) bool {
	if nB <= 0 || len(busOf) != p.nT {
		return false
	}
	count := make([]int, nB)
	for t, b := range busOf {
		if b < 0 || b >= nB {
			return false
		}
		count[b]++
		if count[b] > p.maxPerBus {
			return false
		}
		for o := 0; o < t; o++ {
			if busOf[o] == b && p.conflict[t][o] {
				return false
			}
		}
	}
	load := make([]int64, nB)
	for w, ws := range p.ws {
		for b := range load {
			load[b] = 0
		}
		for t, b := range busOf {
			load[b] += p.comm[t][w]
		}
		for _, l := range load {
			if l > ws {
				return false
			}
		}
	}
	return true
}

// greedyBinding builds a feasible binding by placing each target on the
// admissible bus that increases its overlap the least (ties: lightest
// bus). Returns ok=false if the greedy order dead-ends. The binding is
// the caller's own: a memoized one is copied.
func (p *assignProblem) greedyBinding(nB int) (busOf []int, obj int64, ok bool) {
	g := &p.greedy
	if g.k != nB {
		g.busOf, g.obj, g.ok = p.greedyScan(nB)
		g.k = nB
	}
	return slices.Clone(g.busOf), g.obj, g.ok
}

// greedyScan computes greedyBinding.
func (p *assignProblem) greedyScan(nB int) (busOf []int, obj int64, ok bool) {
	nW := len(p.ws)
	busOf = make([]int, p.nT)
	for t := range busOf {
		busOf[t] = -1
	}
	load := make([][]int64, nB)
	for b := range load {
		load[b] = make([]int64, nW)
	}
	count := make([]int, nB)
	overlap := make([]int64, nB)
	total := make([]int64, nB) // sum of load[b] over the windows
	for _, t := range p.order {
		bestBus, bestAdd, bestLoad := -1, int64(1)<<62, int64(1)<<62
		for b := 0; b < nB; b++ {
			if count[b] >= p.maxPerBus {
				continue
			}
			okBus := true
			for other, ob := range busOf {
				if ob == b && p.conflict[t][other] {
					okBus = false
					break
				}
			}
			if !okBus {
				continue
			}
			for w := 0; w < nW; w++ {
				if load[b][w]+p.comm[t][w] > p.ws[w] {
					okBus = false
					break
				}
			}
			if !okBus {
				continue
			}
			var added int64
			for other, ob := range busOf {
				if ob == b {
					added += p.om.At(t, other)
				}
			}
			if added < bestAdd || (added == bestAdd && total[b] < bestLoad) {
				bestBus, bestAdd, bestLoad = b, added, total[b]
			}
		}
		if bestBus == -1 {
			return nil, 0, false
		}
		busOf[t] = bestBus
		count[bestBus]++
		overlap[bestBus] += bestAdd
		for w := 0; w < nW; w++ {
			load[bestBus][w] += p.comm[t][w]
			total[bestBus] += p.comm[t][w]
		}
	}
	for _, v := range overlap {
		if v > obj {
			obj = v
		}
	}
	return busOf, obj, true
}

// MaxOverlapOfMatrix is MaxOverlapOf against a raw overlap matrix.
func MaxOverlapOfMatrix(om *ds.SymMatrix, numBuses int, busOf []int) int64 {
	per := make([]int64, numBuses)
	for i := 0; i < om.N; i++ {
		for j := i + 1; j < om.N; j++ {
			if busOf[i] == busOf[j] {
				per[busOf[i]] += om.At(i, j)
			}
		}
	}
	var best int64
	for _, v := range per {
		if v > best {
			best = v
		}
	}
	return best
}
