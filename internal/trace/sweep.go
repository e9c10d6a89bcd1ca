package trace

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"

	"repro/internal/ds"
	"repro/internal/obs"
)

// Sweep-kernel instruments: coverage segments credited (one per maximal
// per-receiver busy interval), pair-summary points stored, and the peak
// size of the active-receiver set of the last analysis.
var (
	metSweepSegments = obs.NewCounter("trace.sweep.segments")
	metSparseCells   = obs.NewCounter("trace.sweep.sparse_cells")
	gagActivePeak    = obs.NewGauge("trace.sweep.active_peak")
)

// sweepStream is the sweep-line state of one traffic class (all
// traffic, or the critical subset). Events must be fed in
// nondecreasing Start order; the stream maintains, per receiver, the
// current maximal busy interval ("coverage") and an active-receiver
// bitset, and credits the outputs when a coverage interval closes:
//
//   - Comm[i] gets the closed interval, split across windows;
//   - for every receiver j still active, the pair (i,j) gets the
//     intersection [max(since_i, since_j), until_i), split across
//     windows (the critical class sets the pair's flag instead) — each
//     maximal pairwise overlap interval is credited exactly once, when
//     its earlier endpoint closes.
//
// Deactivations are processed in nondecreasing coverage-end order, so
// at i's deactivation every active j satisfies until_j ≥ until_i and
// the intersection is exact. The next receiver to close is found by a
// linear scan of the active bitset guarded by a cached lower bound on
// the minimum coverage end: the scan is O(active), the same order as
// the pair-credit loop every deactivation already pays, and far
// cheaper in constants than a heap at the active-set sizes real
// traffic produces. A closing interval that lies inside one window is
// credited without walking windows, and so is every pair overlap it
// bounds. Total work is O(E + active · segments) plus the windows
// actually touched — versus the legacy kernel's O(R²·intervals)
// allocated interval-set intersections.
type sweepStream struct {
	boundaries []int64

	// comm is the class's load table and pairs the summaries both
	// classes share; the critical class's pair credits set the flag.
	// Deactivations arrive in nondecreasing end order, so Comm rows and
	// pairs get their credits in nondecreasing window order.
	comm     *ds.SparseInt64Matrix
	pairs    *pairTable
	critical bool

	active      []uint64 // active-receiver bitset (1 word for R ≤ 64)
	activeCount int
	peakActive  int
	segments    int64

	since []int64 // coverage start per active receiver
	until []int64 // coverage end per active receiver

	// minUntil is a lower bound on min(until[r] : r active), MaxInt64
	// when no receiver is active, and minRecv the receiver achieving it
	// (-1 when unknown). deactivate refreshes both for free inside its
	// pair-credit loop, so steady-state draining needs no extra scans;
	// a coverage extension can leave them stale, which advance detects
	// and repairs with one O(active) scan.
	minUntil int64
	minRecv  int

	// hiWin is the window containing the most recent credit end. Both
	// ends and credit intervals advance monotonically, so windows are
	// located by nudging this cursor instead of binary searching.
	hiWin int
}

func newSweepStream(nT int, boundaries []int64, comm *ds.SparseInt64Matrix, pairs *pairTable, critical bool) *sweepStream {
	return &sweepStream{
		boundaries: boundaries,
		comm:       comm,
		pairs:      pairs,
		critical:   critical,
		active:     make([]uint64, (nT+63)/64),
		since:      make([]int64, nT),
		until:      make([]int64, nT),
		minUntil:   math.MaxInt64,
		minRecv:    -1,
	}
}

// apply feeds one busy interval [start, end) of receiver r. Start
// values must be nondecreasing across calls.
func (s *sweepStream) apply(start, end int64, r int) {
	if s.minUntil <= start {
		s.advance(start)
	}
	if s.active[r>>6]&(1<<uint(r&63)) != 0 {
		// Already covered through until[r] > start: extend if the new
		// interval reaches further, otherwise it is subsumed. Extending
		// the tracked minimum makes it stale; advance repairs that.
		if end > s.until[r] {
			s.until[r] = end
			if r == s.minRecv {
				s.minRecv = -1
			}
		}
		return
	}
	s.active[r>>6] |= 1 << uint(r&63)
	s.activeCount++
	if s.activeCount > s.peakActive {
		s.peakActive = s.activeCount
	}
	s.since[r] = start
	s.until[r] = end
	if end < s.minUntil {
		s.minUntil = end
		s.minRecv = r
	}
}

// advance closes every coverage interval ending at or before t, in
// nondecreasing end order. Receivers whose ends coincide may close in
// any order: the pair credit between them is emitted by whichever
// closes first and the result is identical.
func (s *sweepStream) advance(t int64) {
	for s.minUntil <= t {
		r := s.minRecv
		if r < 0 || s.until[r] != s.minUntil {
			// Stale from an extension: rescan for the true minimum.
			m := int64(math.MaxInt64)
			r = -1
			for wi, w := range s.active {
				base := wi << 6
				for w != 0 {
					j := base + bits.TrailingZeros64(w)
					w &= w - 1
					if s.until[j] < m {
						r, m = j, s.until[j]
					}
				}
			}
			s.minUntil, s.minRecv = m, r
			if r < 0 || m > t {
				return
			}
		}
		s.deactivate(r)
	}
}

// finish closes all remaining coverage.
func (s *sweepStream) finish() { s.advance(math.MaxInt64) }

func (s *sweepStream) deactivate(r int) {
	since, end := s.since[r], s.until[r]
	s.active[r>>6] &^= 1 << uint(r&63)
	s.activeCount--
	s.segments++

	// Move the window cursor to the window containing cycle end-1;
	// deactivations arrive in nondecreasing end order.
	nW := len(s.boundaries) - 1
	for s.hiWin < nW-1 && s.boundaries[s.hiWin+1] < end {
		s.hiWin++
	}
	m := s.hiWin
	// A segment inside window m (the common case at windows longer than
	// a burst) is credited in one step, and so is every pair overlap it
	// bounds, which starts no earlier than the segment.
	one := s.boundaries[m] <= since
	if one {
		s.comm.Append(r, m, end-since)
	} else {
		s.creditComm(r, since, end)
	}
	// The credit loop already visits every remaining active receiver, so
	// the next deactivation candidate falls out for free.
	nextMin, nextRecv := int64(math.MaxInt64), -1
	var slots []int32 // r's pair slots, fetched on its first overlap
	for wi, w := range s.active {
		base := wi << 6
		for w != 0 {
			j := base + bits.TrailingZeros64(w)
			w &= w - 1
			if u := s.until[j]; u < nextMin {
				nextMin, nextRecv = u, j
			}
			lo := max(since, s.since[j])
			if lo >= end {
				continue
			}
			if slots == nil {
				slots = s.pairs.slotRow(r)
			}
			k := slots[j]
			if k == 0 {
				k = s.pairs.create(slots, r, j)
			}
			p := &s.pairs.state[k-1]
			switch {
			case s.critical:
				p.Critical = true
			case one:
				s.pairs.add(p, m, end-lo)
			default:
				s.pairs.credit(p, lo, end, m)
			}
		}
	}
	s.minUntil, s.minRecv = nextMin, nextRecv
}

// creditComm adds the coverage [lo, hi) of receiver i to its sparse
// Comm row, split across windows.
func (s *sweepStream) creditComm(i int, lo, hi int64) {
	m := s.hiWin
	for s.boundaries[m] > lo {
		m--
	}
	for lo < hi {
		wEnd := s.boundaries[m+1]
		if wEnd > hi {
			wEnd = hi
		}
		s.comm.Append(i, m, wEnd-lo)
		lo = wEnd
		m++
	}
}

// pairTable builds the pair summaries of one sweep: both classes credit
// per-window overlap into it. A pair's state is created on its first
// credit, never up front, and found through per-receiver slot rows: in
// receiver i's row, slot j is 1 + the position of pair (i, j)'s state
// (0: none yet). A pair is entered in both receivers' rows, so the
// closing receiver's row finds every partner. A row is allocated on its
// receiver's first overlap, so the index costs 4 bytes per receiver
// plus at most one nT×nT int32 table, half the bytes of the OM triangle
// that mergeParts allocates once the sweeps are done.
type pairTable struct {
	nT         int
	boundaries []int64
	rowOf      []int32   // 1 + the position of receiver i's slot row (0: none yet)
	slots      [][]int32 // the slot rows, in allocation order
	state      []pairState
}

// pairState is a summary under construction: the frontier of the
// closed windows, the open window win (−1: none) with its overlap val,
// and the total over all windows.
type pairState struct {
	PairSummary
	win        int
	val, total int64
}

// slotRow returns receiver i's slot row, allocating it on first use.
func (t *pairTable) slotRow(i int) []int32 {
	if t.rowOf == nil {
		t.rowOf = make([]int32, t.nT)
	}
	if k := t.rowOf[i]; k != 0 {
		return t.slots[k-1]
	}
	row := make([]int32, t.nT)
	t.slots = append(t.slots, row)
	t.rowOf[i] = int32(len(t.slots))
	return row
}

// create enters pair (i, j) in both receivers' slot rows (slots is
// i's) and returns 1 + the position of its new state.
func (t *pairTable) create(slots []int32, i, j int) int32 {
	t.state = append(t.state, pairState{PairSummary: PairSummary{I: min(i, j), J: max(i, j)}, win: -1})
	k := int32(len(t.state))
	slots[j] = k
	t.slotRow(j)[i] = k
	return k
}

// add credits v cycles of overlap in window m to p. A pair's credits
// arrive in nondecreasing window order, so one open window per pair
// suffices.
func (t *pairTable) add(p *pairState, m int, v int64) {
	if m != p.win {
		t.close(p)
		p.win, p.val = m, 0
	}
	p.val += v
	p.total += v
}

// credit adds the overlap [lo, hi) to p, split across windows; m is a
// window at or after lo's.
func (t *pairTable) credit(p *pairState, lo, hi int64, m int) {
	for t.boundaries[m] > lo {
		m--
	}
	for ; lo < hi; m++ {
		end := min(t.boundaries[m+1], hi)
		t.add(p, m, end-lo)
		lo = end
	}
}

// close folds the open window of p into its frontier.
func (t *pairTable) close(p *pairState) {
	if p.win >= 0 {
		p.Frontier = addPoint(p.Frontier, WindowOverlap{t.boundaries[p.win+1] - t.boundaries[p.win], p.val})
	}
}

// finish closes the open windows and returns the summaries in (I, J)
// order with their totals; both are nil when no pair overlaps.
func (t *pairTable) finish() ([]PairSummary, []int64) {
	if len(t.state) == 0 {
		return nil, nil
	}
	t.rowOf, t.slots = nil, nil // the positions are about to move
	slices.SortFunc(t.state, func(x, y pairState) int { return comparePairs(x.PairSummary, y.PairSummary) })
	pairs, totals := make([]PairSummary, len(t.state)), make([]int64, len(t.state))
	for k := range t.state {
		p := &t.state[k]
		t.close(p)
		pairs[k], totals[k] = p.PairSummary, p.total
	}
	return pairs, totals
}

// sweeper drives the two per-class streams over one start-ordered
// event feed.
type sweeper struct {
	pairs      pairTable
	busy, crit *sweepStream
}

func newSweeper(nT int, boundaries []int64) *sweeper {
	nW := len(boundaries) - 1
	sw := &sweeper{pairs: pairTable{nT: nT, boundaries: boundaries}}
	sw.busy = newSweepStream(nT, boundaries, ds.NewSparseInt64Matrix(nT, nW), &sw.pairs, false)
	sw.crit = newSweepStream(nT, boundaries, ds.NewSparseInt64Matrix(nT, nW), &sw.pairs, true)
	return sw
}

func (sw *sweeper) feed(start, length int64, recv int, critical bool) {
	end := start + length
	sw.busy.apply(start, end, recv)
	if critical {
		sw.crit.apply(start, end, recv)
	}
}

// finish flushes both streams and returns the partial analysis of the
// sweep's windows (every window, for the in-memory sweep), which
// mergeParts completes.
func (sw *sweeper) finish() part {
	sw.busy.finish()
	sw.crit.finish()
	p := part{comm: sw.busy.comm, crit: sw.crit.comm}
	p.pairs, p.totals = sw.pairs.finish()
	return p
}

// annotate records the kernel's instruments for the analysis a it
// produced on the span and the package metrics.
func (sw *sweeper) annotate(span *obs.Span, a *Analysis) {
	segments := sw.busy.segments + sw.crit.segments
	metSweepSegments.Add(segments)
	metSparseCells.Add(int64(a.summaryPoints()))
	gagActivePeak.Set(int64(sw.busy.peakActive))
	span.SetInt("segments", segments)
	span.SetInt("active_peak", int64(sw.busy.peakActive))
}

// sweepCancelStride is how many events the kernels process between
// cancellation polls.
const sweepCancelStride = 1 << 13

// analyzeSweep is the in-memory entry of the sweep kernel: it sorts a
// copy of the events by start cycle (radix sort — the only O(E) scratch
// the kernel needs) and runs the single-pass sweep. Inputs are already
// validated.
func analyzeSweep(ctx context.Context, tr *Trace, boundaries []int64) (*Analysis, error) {
	nT := tr.NumReceivers
	nW := len(boundaries) - 1

	ctx, span := obs.Start(ctx, "trace.analyze")
	defer span.End()
	span.SetStr("kernel", "sweep")
	span.SetInt("receivers", int64(nT))
	span.SetInt("windows", int64(nW))
	span.SetInt("events", int64(len(tr.Events)))
	metAnalyses.Inc()
	metWindows.Add(int64(nW))

	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("trace: analysis canceled: %w", err)
	}
	events := sortEventsByStart(tr.Events)
	sw := newSweeper(nT, boundaries)
	for k := range events {
		if k%sweepCancelStride == 0 {
			if err := ctx.Err(); err != nil {
				return nil, fmt.Errorf("trace: analysis canceled: %w", err)
			}
		}
		e := &events[k]
		sw.feed(e.Start, e.Len, e.Receiver, e.Critical)
	}
	a := mergeParts(nT, boundaries, []part{sw.finish()}, []int{0})
	sw.annotate(span, a)
	return a, nil
}

// sortEventsByStart returns the events ordered by start cycle: the
// input itself when it is already ordered (cycle-accurate simulators
// emit traces that way, so the common case costs one comparison pass
// and no copy), otherwise a sorted copy. Large inputs use an LSD radix
// sort over the Start bytes (starts are validated nonnegative, so
// unsigned byte order is value order), skipping byte planes beyond the
// largest start and planes where all keys agree; this is several times
// faster than a comparison sort at the multi-million-event sizes the
// kernel targets.
func sortEventsByStart(events []Event) []Event {
	sorted := true
	for i := 1; i < len(events); i++ {
		if events[i-1].Start > events[i].Start {
			sorted = false
			break
		}
	}
	if sorted {
		return events
	}
	out := make([]Event, len(events))
	copy(out, events)
	if len(out) < 4096 {
		sort.Slice(out, func(a, b int) bool { return out[a].Start < out[b].Start })
		return out
	}
	var maxStart int64
	for i := range out {
		if out[i].Start > maxStart {
			maxStart = out[i].Start
		}
	}
	scratch := make([]Event, len(out))
	var counts [256]int
	for shift := 0; shift < 64 && maxStart>>shift != 0; shift += 8 {
		for i := range counts {
			counts[i] = 0
		}
		for i := range out {
			counts[byte(uint64(out[i].Start)>>shift)]++
		}
		skip := false
		for _, c := range counts {
			if c == len(out) {
				skip = true // constant byte plane: already in place
				break
			}
		}
		if skip {
			continue
		}
		sum := 0
		for i, c := range counts {
			counts[i] = sum
			sum += c
		}
		for i := range out {
			b := byte(uint64(out[i].Start) >> shift)
			scratch[counts[b]] = out[i]
			counts[b]++
		}
		out, scratch = scratch, out
	}
	return out
}
