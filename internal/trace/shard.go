package trace

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/conc"
	"repro/internal/obs"
)

// Sharded-driver instruments: sharded analyses run, and shards executed
// across them.
var (
	metShardedRuns = obs.NewCounter("trace.sharded.analyses")
	metShardsRun   = obs.NewCounter("trace.sharded.shards")
)

// ErrUnsorted reports a streaming analysis (AnalyzeReader) that met an
// event starting before its predecessor: a single pass over a reader
// cannot sort. The byte-image entry points never return it; they decode
// an unsorted v1 image and sort it in memory instead.
var ErrUnsorted = errors.New("trace: events not start-ordered")

// ShardStat describes one shard of a sharded analysis: the window range
// it covered, the event pieces it fed (a grant straddling a cut is
// counted once per shard it touches) and the wall-clock time of its
// sweep pass.
type ShardStat struct {
	Windows int
	Events  int64
	NS      int64
}

// ShardStats is the optional instrumentation output of the sharded
// analysis drivers, for tools that report per-shard throughput
// (tracestat -stream -shards).
type ShardStats struct {
	Shards  []ShardStat
	PlanNS  int64
	MergeNS int64
}

// EventsPerSec returns the aggregate event throughput implied by the
// slowest shard (the parallel wall clock), 0 when unmeasurable.
func (s *ShardStats) EventsPerSec() float64 {
	var total, maxNS int64
	for _, st := range s.Shards {
		total += st.Events
		if st.NS > maxNS {
			maxNS = st.NS
		}
	}
	if maxNS <= 0 {
		return 0
	}
	return float64(total) / (float64(maxNS) / 1e9)
}

// resolveShards turns the shard-count knob into an effective count:
// nonpositive means one shard per CPU core, and the count never exceeds
// the window count (cuts snap to window boundaries, so more shards than
// windows cannot all be nonempty).
func resolveShards(shards, nW int) int {
	if shards <= 0 {
		shards = conc.Workers(0)
	}
	if shards > nW {
		shards = nW
	}
	if shards < 1 {
		shards = 1
	}
	return shards
}

// shardSpan is one shard of the plan: the half-open window range
// [winLo, winHi) and the half-open range [evLo, evHi) of source events
// whose start cycle lies inside the shard's cycle range.
type shardSpan struct {
	winLo, winHi int
	evLo, evHi   int
}

// shardSrc is an indexed, start-ordered event source the sharded driver
// can partition, such as the fixed-stride v1 binary image (v1Src).
// startAt/endAt are the cheap planning accessors; feed
// decodes event k fully, clips it to [lo, hi) and feeds the sweeper
// (validating the record when it comes from untrusted bytes).
type shardSrc interface {
	events() int
	startAt(k int) int64
	endAt(k int) int64
	feed(sw *sweeper, k int, lo, hi int64) error
}

// planShards chooses the cut cycles and carry-in lists. Cuts are
// event-count balanced: the s-th cut aims at event index n·s/shards and
// snaps down to the boundary of the window containing that event's
// start, so every window — and therefore every output table cell —
// belongs to exactly one shard. carries[s] lists the events that start
// before shard s but whose grant extends into it; the driver feeds them
// first, clipped to the shard's cycle range, which is what keeps the
// sharded result bit-identical to the single-pass sweep.
//
// The planning pass reads every event's start and end once; for
// byte-backed sources it doubles as the stream-order check.
func planShards(boundaries []int64, src shardSrc, shards int) (spans []shardSpan, carries [][]int, err error) {
	nW := len(boundaries) - 1
	n := src.events()

	// Window cut indices: cutW[s] is the first window of shard s.
	cutW := make([]int, shards+1)
	cutW[shards] = nW
	for s := 1; s < shards; s++ {
		var w int
		if n == 0 {
			w = nW * s / shards
		} else {
			ti := n * s / shards
			if ti >= n {
				ti = n - 1
			}
			cs := src.startAt(ti)
			// The window containing cycle cs: the last boundary ≤ cs.
			w = sort.Search(nW, func(m int) bool { return boundaries[m+1] > cs })
		}
		if w < cutW[s-1] {
			w = cutW[s-1] // zero-length shard; kept, handled as empty
		}
		if w > nW {
			w = nW
		}
		cutW[s] = w
	}

	spans = make([]shardSpan, shards)
	for s := 0; s < shards; s++ {
		lo, hi := cutW[s], cutW[s+1]
		spans[s] = shardSpan{
			winLo: lo,
			winHi: hi,
			evLo:  sort.Search(n, func(k int) bool { return src.startAt(k) >= boundaries[lo] }),
			evHi:  sort.Search(n, func(k int) bool { return src.startAt(k) >= boundaries[hi] }),
		}
		if lo < hi && hi == nW {
			// The last shard also owns the events that start at or past
			// the horizon: they belong to no window, and its feed
			// rejects them as the single-pass reader does.
			spans[s].evHi = n
		}
	}

	// Carry-ins: one ordered pass over every event. h tracks the home
	// shard of event k (the shard whose cycle range holds its start).
	carries = make([][]int, shards)
	h := 0
	last := int64(-1)
	for k := 0; k < n; k++ {
		start := src.startAt(k)
		if start < last {
			return nil, nil, fmt.Errorf("%w: event %d starts at %d, before the previous start %d — sharded analysis requires start-ordered traces", ErrUnsorted, k, start, last)
		}
		last = start
		for h+1 < shards && start >= boundaries[cutW[h+1]] {
			h++
		}
		end := src.endAt(k)
		for s := h + 1; s < shards && end > boundaries[cutW[s]]; s++ {
			if cutW[s] < cutW[s+1] { // skip zero-length shards
				carries[s] = append(carries[s], k)
			}
		}
	}
	return spans, carries, nil
}

// analyzeShardedIndexed is the sharded driver over an indexed source:
// plan the cuts, run one sweep kernel per shard on the worker pool, and
// merge the per-shard tables. The result is bit-identical to the
// single-pass sweep at every shard count (the shard_test suite and the
// differential harness gate this).
func analyzeShardedIndexed(ctx context.Context, nT int, boundaries []int64, src shardSrc, shards int, events int64, stats *ShardStats) (*Analysis, error) {
	nW := len(boundaries) - 1

	ctx, span := obs.Start(ctx, "trace.analyze")
	defer span.End()
	span.SetStr("kernel", "sharded")
	span.SetInt("receivers", int64(nT))
	span.SetInt("windows", int64(nW))
	span.SetInt("events", events)
	span.SetInt("shards", int64(shards))
	metAnalyses.Inc()
	metWindows.Add(int64(nW))
	metShardedRuns.Inc()
	metShardsRun.Add(int64(shards))

	t0 := time.Now()
	spans, carries, err := planShards(boundaries, src, shards)
	if err != nil {
		return nil, err
	}
	planNS := time.Since(t0).Nanoseconds()

	parts := make([]*Analysis, shards)
	stat := make([]ShardStat, shards)
	err = conc.ForEach(ctx, shards, 0, func(ctx context.Context, s int) error {
		ts := time.Now()
		sp := spans[s]
		lo, hi := boundaries[sp.winLo], boundaries[sp.winHi]
		sw := newSweeper(nT, boundaries[sp.winLo:sp.winHi+1])
		var fed int64
		for _, k := range carries[s] {
			if err := src.feed(sw, k, lo, hi); err != nil {
				return err
			}
			fed++
		}
		for k := sp.evLo; k < sp.evHi; k++ {
			if fed%sweepCancelStride == 0 {
				if err := ctx.Err(); err != nil {
					return err
				}
			}
			if err := src.feed(sw, k, lo, hi); err != nil {
				return err
			}
			fed++
		}
		parts[s] = sw.finishTables()
		stat[s] = ShardStat{Windows: sp.winHi - sp.winLo, Events: fed, NS: time.Since(ts).Nanoseconds()}
		return nil
	})
	if err != nil {
		if ctx.Err() != nil {
			return nil, fmt.Errorf("trace: analysis canceled: %w", err)
		}
		return nil, err
	}

	tm := time.Now()
	a := mergeShards(nT, boundaries, spans, parts)
	if stats != nil {
		stats.Shards = stat
		stats.PlanNS = planNS
		stats.MergeNS = time.Since(tm).Nanoseconds()
	}
	span.SetInt("sparse_cells", int64(a.Overlap.NNZ()+a.CritOverlap.NNZ()))
	return a, nil
}

// mergeShards assembles the global analysis from the per-shard partial
// tables. Every window belongs to exactly one shard, so each row of
// every table is the ordered concatenation of the shards' cells with
// their columns rebased — the cells the single-pass sweep appends, in
// its order — which ConcatColumns lays out as the same compacted CSR
// structure at exact size. OM is derived from the merged rows exactly
// as the single-pass finish does.
func mergeShards(nT int, boundaries []int64, spans []shardSpan, parts []*Analysis) *Analysis {
	offsets := make([]int, len(spans))
	for s, sp := range spans {
		offsets[s] = sp.winLo
	}
	a := concatAnalyses(nT, boundaries, parts, offsets)
	deriveOM(a)
	return a
}
