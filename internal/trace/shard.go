package trace

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/conc"
	"repro/internal/obs"
)

// Sharded-driver instruments: image analyses run, and shards executed
// across them.
var (
	metShardedRuns = obs.NewCounter("trace.sharded.analyses")
	metShardsRun   = obs.NewCounter("trace.sharded.shards")
)

// errUnsorted reports a v1 image whose events are not start-ordered:
// the block-index driver sweeps events in file order, so it cannot
// analyze one. AnalyzeBytesSharded catches it and decodes the image in
// memory instead (AnalyzeCtx sorts); v2 images are start-ordered by
// construction.
var errUnsorted = errors.New("trace: events not start-ordered")

// ShardStat describes one shard of an image analysis: the window range
// it covered, the event pieces it fed (a grant straddling a cut is
// counted once per shard it touches) and the wall-clock time of its
// sweep pass.
type ShardStat struct {
	Windows int
	Events  int64
	NS      int64
}

// ShardStats is the optional instrumentation output of the image
// analysis (AnalyzeBytesSharded, AnalyzeFileSharded) at every shard
// count, for tools that report per-shard throughput (tracestat
// -stream). PlanNS covers the block index and the cut plan.
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

// imageBlock is one entry of a binary image's block index: a run of
// consecutive events that one call decodes. In a v2 image it is a
// container block; in a v1 image, a run of up to v1BlockEvents
// fixed-stride records. bh is the planning summary in the v2 block
// header's shape (count, payload bytes, first start, max end).
type imageBlock struct {
	off       int // payload offset in the image body
	bh        v2BlockHeader
	cumEvents uint64 // events before this block
}

// analyzeImage is the analysis driver for binary images, v1 and v2, at
// every shard count. It builds the block index, cuts the window range
// into shards, sweeps each shard on the worker pool and merges the
// per-shard analyses.
//
// Cuts are event-count balanced: the s-th cut aims at event
// numEvents·s/shards and snaps down to the boundary of the window
// holding that event's start (a v1 record is read directly; a v2 cut
// sums the start deltas of the block holding the event), so every
// window belongs to exactly one shard. A shard decodes every block
// whose [firstStart, maxEnd) range meets its cycle range [lo, hi) into
// columns, and one loop over the columns validates each event and feeds
// it clipped to [lo, hi), which keeps the merged result bit-identical
// to the single-pass sweep. The shard holding a block's first start
// (the last shard, for a block starting at or past the horizon) always
// decodes it, so every record is validated. It returns errUnsorted for
// an out-of-order v1 image.
func analyzeImage(ctx context.Context, body []byte, hdr binHeader, boundaries []int64, shards int, stats *ShardStats) (*Analysis, error) {
	nW := len(boundaries) - 1
	nT, nS, horizon := int(hdr.numReceivers), int(hdr.numSenders), hdr.horizon
	shards = resolveShards(shards, nW)
	v2 := hdr.version == binaryVersionV2

	ctx, span := obs.Start(ctx, "trace.analyze")
	defer span.End()
	span.SetStr("kernel", "sharded")
	span.SetInt("receivers", int64(nT))
	span.SetInt("windows", int64(nW))
	span.SetInt("events", int64(hdr.numEvents))
	span.SetInt("shards", int64(shards))
	metAnalyses.Inc()
	metWindows.Add(int64(nW))
	metShardedRuns.Inc()
	metShardsRun.Add(int64(shards))

	t0 := time.Now()
	var idx []imageBlock
	var err error
	if v2 {
		idx, err = parseV2Index(body, hdr)
	} else {
		idx, err = parseV1Index(body, hdr)
	}
	if err != nil {
		return nil, err
	}
	cutW := make([]int, shards+1)
	cutW[shards] = nW
	for s := 1; s < shards; s++ {
		w := nW * s / shards
		if len(idx) > 0 {
			te := hdr.numEvents * uint64(s) / uint64(shards)
			var cs int64
			if v2 {
				b := idx[sort.Search(len(idx), func(i int) bool { return idx[i].cumEvents > te })-1]
				cs = v2EventStart(body[b.off:b.off+int(b.bh.payloadLen)], b.bh.firstStart, int(te-b.cumEvents))
			} else {
				cs = int64(min(binary.LittleEndian.Uint64(body[te*binaryEventSize:]), uint64(horizon)))
			}
			cs = min(cs, horizon-1) // a start past the horizon: the last shard rejects it
			w = sort.Search(nW, func(m int) bool { return boundaries[m+1] > cs })
		}
		cutW[s] = min(max(w, cutW[s-1]), nW) // a zero-length shard is kept, and sweeps nothing
	}
	planNS := time.Since(t0).Nanoseconds()

	parts := make([]part, shards)
	stat := make([]ShardStat, shards)
	// A shard stops for the caller's cancellation, not for a sibling's
	// failure: the lowest failing shard then holds the image's first
	// error in file order, which is the one-shard error, and ForEach
	// returns the lowest shard's error.
	err = conc.ForEach(ctx, shards, 0, func(_ context.Context, s int) error {
		ts := time.Now()
		lo, hi := boundaries[cutW[s]], boundaries[cutW[s+1]]
		sw := newSweeper(nT, boundaries[cutW[s]:cutW[s+1]+1])
		var dec blockDecoder
		var fed int64
		last := int64(-1) // start of the last decoded event
		for _, b := range idx {
			// The last shard also decodes the blocks that start at or
			// past the horizon, so their events fail validation instead
			// of going unread.
			if cutW[s] == cutW[s+1] || (b.bh.firstStart >= hi && s < shards-1) || b.bh.maxEnd <= lo {
				continue
			}
			if err := ctx.Err(); err != nil {
				return err
			}
			// v2 stores starts as in-block deltas, so only the order
			// across blocks can break (the v1 index pass checked every
			// record). In an ordered image the blocks a shard skips start
			// no earlier than the last event it decoded, so comparing
			// with that event never rejects one.
			if b.bh.firstStart < last {
				return fmt.Errorf("trace: v2 block at event %d starts at %d, before the previous start %d", b.cumEvents, b.bh.firstStart, last)
			}
			payload := body[b.off : b.off+int(b.bh.payloadLen)]
			n := int(b.bh.count)
			if v2 {
				if err := dec.v2Columns(b.bh, payload); err != nil {
					return err
				}
			} else {
				dec.v1Columns(payload)
			}
			lens, senders, recvs := dec.lens[:n], dec.senders[:n], dec.recvs[:n]
			maxEnd := int64(0)
			for k, start := range dec.starts[:n] {
				length := lens[k]
				end := start + length
				if end < start && v2 {
					return v2SpanError(k)
				}
				maxEnd = max(maxEnd, end)
				r, snd := int(recvs[k]), int(senders[k])
				if r >= nT || snd >= nS || length <= 0 || start < 0 || start >= horizon || length > horizon-start {
					return validateStreamEvent(b.cumEvents+uint64(k), Event{Start: start, Len: length, Sender: snd, Receiver: r}, nT, nS, horizon)
				}
				if cs, ce := max(start, lo), min(end, hi); cs < ce {
					sw.feed(cs, ce-cs, r, dec.critical(k))
					fed++
				}
			}
			if v2 && maxEnd != b.bh.maxEnd {
				return v2MaxEndError(b.bh.maxEnd, maxEnd)
			}
			last = dec.starts[n-1]
		}
		parts[s] = sw.finish()
		stat[s] = ShardStat{Windows: cutW[s+1] - cutW[s], Events: fed, NS: time.Since(ts).Nanoseconds()}
		return nil
	})
	if err != nil {
		if ctx.Err() != nil {
			return nil, fmt.Errorf("trace: analysis canceled: %w", err)
		}
		return nil, err
	}

	tm := time.Now()
	a := mergeParts(nT, boundaries, parts, cutW[:shards])
	if stats != nil {
		*stats = ShardStats{Shards: stat, PlanNS: planNS, MergeNS: time.Since(tm).Nanoseconds()}
	}
	span.SetInt("sparse_cells", int64(a.summaryPoints()))
	return a, nil
}
