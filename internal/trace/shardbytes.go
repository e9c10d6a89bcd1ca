package trace

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"sort"
	"time"

	"repro/internal/conc"
	"repro/internal/obs"
)

// binaryHeaderSize is the fixed v1/v2 file header: magic + five fields.
const binaryHeaderSize = 4 + 4 + 4 + 4 + 8 + 8

// v1Src adapts a v1 binary event image (the bytes after the file
// header) as an indexed shard source. Planning reads only the start
// and length words; full decode and semantic validation happen in
// feed, which every event's home shard always reaches.
type v1Src struct {
	body    []byte
	nT, nS  int
	horizon int64
}

func (s v1Src) events() int { return len(s.body) / binaryEventSize }

func (s v1Src) startAt(k int) int64 {
	return int64(binary.LittleEndian.Uint64(s.body[k*binaryEventSize:]))
}

func (s v1Src) endAt(k int) int64 {
	off := k * binaryEventSize
	return int64(binary.LittleEndian.Uint64(s.body[off:]) + binary.LittleEndian.Uint64(s.body[off+8:]))
}

func (s v1Src) feed(sw *sweeper, k int, lo, hi int64) error {
	var buf [binaryEventSize]byte
	copy(buf[:], s.body[k*binaryEventSize:])
	e := decodeBinaryEvent(&buf)
	if err := validateStreamEvent(uint64(k), e, s.nT, s.nS, s.horizon); err != nil {
		return err
	}
	start, end := e.Start, e.End()
	if start < lo {
		start = lo
	}
	if end > hi {
		end = hi
	}
	if start < end {
		sw.feed(start, end-start, e.Receiver, e.Critical)
	}
	return nil
}

// AnalyzeBytesSharded runs the sharded analysis directly over a binary
// trace image (v1 or v2) without materializing the event slice,
// typically fed by AnalyzeFileSharded's mmap. shards ≤ 0 means one per
// CPU core; one shard degrades to the streaming single-pass kernel.
// stats may be nil. A v1 image whose events are not start-ordered
// cannot be swept out of core, so it is decoded and analyzed in memory
// (AnalyzeCtx sorts), which costs the event slice but gives the same
// analysis as for the sorted image.
func AnalyzeBytesSharded(ctx context.Context, data []byte, ws int64, shards int, stats *ShardStats) (*Analysis, error) {
	a, err := analyzeImage(ctx, data, ws, shards, stats)
	if !errors.Is(err, ErrUnsorted) {
		return a, err
	}
	tr, err := ReadBinary(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	return AnalyzeCtx(ctx, tr, ws)
}

// analyzeImage is AnalyzeBytesSharded for start-ordered images: it
// returns ErrUnsorted on an out-of-order v1 image (v2 stores start
// deltas, so it is ordered by construction).
func analyzeImage(ctx context.Context, data []byte, ws int64, shards int, stats *ShardStats) (*Analysis, error) {
	hdr, err := readBinaryHeader(bufio.NewReader(bytes.NewReader(data)))
	if err != nil {
		return nil, err
	}
	if err := validateStreamHeader(hdr); err != nil {
		return nil, err
	}
	boundaries, err := windowBoundaries(hdr.horizon, ws)
	if err != nil {
		return nil, err
	}
	body := data[binaryHeaderSize:]
	nT, nS := int(hdr.numReceivers), int(hdr.numSenders)

	shards = resolveShards(shards, len(boundaries)-1)
	if shards <= 1 {
		t0 := time.Now()
		a, err := AnalyzeReader(ctx, bytes.NewReader(data), ws)
		if err == nil && stats != nil {
			stats.Shards = []ShardStat{{Windows: len(boundaries) - 1, Events: int64(hdr.numEvents), NS: time.Since(t0).Nanoseconds()}}
		}
		return a, err
	}

	if hdr.version == binaryVersionV2 {
		return analyzeV2Sharded(ctx, body, hdr, boundaries, shards, stats)
	}
	want := hdr.numEvents * binaryEventSize
	if hdr.numEvents > 1<<57 || uint64(len(body)) != want {
		return nil, fmt.Errorf("trace: v1 image is %d event bytes, header declares %d events (%d bytes)", len(body), hdr.numEvents, want)
	}
	src := v1Src{body: body, nT: nT, nS: nS, horizon: hdr.horizon}
	return analyzeShardedIndexed(ctx, nT, boundaries, src, shards, int64(hdr.numEvents), stats)
}

// validateStreamHeader applies the shape checks shared by AnalyzeReader
// and the byte-backed sharded paths.
func validateStreamHeader(hdr binHeader) error {
	if hdr.numReceivers == 0 {
		return fmt.Errorf("trace: NumReceivers must be positive")
	}
	if hdr.numSenders == 0 {
		return fmt.Errorf("trace: NumSenders must be positive")
	}
	const maxStreamReceivers = 1 << 12
	if hdr.numReceivers > maxStreamReceivers {
		return fmt.Errorf("trace: %d receivers exceeds the streaming-analysis limit %d", hdr.numReceivers, maxStreamReceivers)
	}
	if hdr.horizon <= 0 {
		return fmt.Errorf("trace: Horizon must be positive")
	}
	return nil
}

// analyzeV2Sharded is the block-granular sharded driver for v2 images.
// Cuts are planned from the block index (event-count balanced, snapped
// to the window boundary containing the cut block's first start); each
// shard fully decodes every block whose [firstStart, maxEnd) summary
// intersects its cycle range and feeds the events clipped to the
// range. A block's home shard always decodes it, and the decoder
// verifies the maxEnd summary against the decoded events, so a corrupt
// summary surfaces as an error instead of silently dropped overlap.
func analyzeV2Sharded(ctx context.Context, body []byte, hdr binHeader, boundaries []int64, shards int, stats *ShardStats) (*Analysis, error) {
	nW := len(boundaries) - 1
	nT, nS := int(hdr.numReceivers), int(hdr.numSenders)

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
	idx, err := parseV2Index(body, hdr)
	if err != nil {
		return nil, err
	}
	cutW := make([]int, shards+1)
	cutW[shards] = nW
	for s := 1; s < shards; s++ {
		var w int
		if len(idx) == 0 {
			w = nW * s / shards
		} else {
			te := hdr.numEvents * uint64(s) / uint64(shards)
			bi := sort.Search(len(idx), func(i int) bool { return idx[i].cumEvents > te }) - 1
			if bi < 0 {
				bi = 0
			}
			cs := idx[bi].bh.firstStart
			if cs >= hdr.horizon {
				cs = hdr.horizon - 1 // hostile block start past the horizon; feed will reject it
			}
			w = sort.Search(nW, func(m int) bool { return boundaries[m+1] > cs })
		}
		if w < cutW[s-1] {
			w = cutW[s-1]
		}
		if w > nW {
			w = nW
		}
		cutW[s] = w
	}
	spans := make([]shardSpan, shards)
	for s := 0; s < shards; s++ {
		spans[s] = shardSpan{winLo: cutW[s], winHi: cutW[s+1]}
	}
	planNS := time.Since(t0).Nanoseconds()

	parts := make([]*Analysis, shards)
	stat := make([]ShardStat, shards)
	err = conc.ForEach(ctx, shards, 0, func(ctx context.Context, s int) error {
		ts := time.Now()
		sp := spans[s]
		lo, hi := boundaries[sp.winLo], boundaries[sp.winHi]
		sw := newSweeper(nT, boundaries[sp.winLo:sp.winHi+1])
		var dec v2BlockDecoder
		var fed int64
		for _, ent := range idx {
			// The last shard also decodes the blocks that start at or
			// past the horizon, so their events fail validation as in
			// the single-pass reader instead of going unread.
			if sp.winLo == sp.winHi || (ent.bh.firstStart >= hi && sp.winHi < nW) || ent.bh.maxEnd <= lo {
				continue
			}
			if err := ctx.Err(); err != nil {
				return err
			}
			payload := body[ent.off : ent.off+int(ent.bh.payloadLen)]
			i := ent.cumEvents
			err := dec.decode(ent.bh, payload, func(e Event) error {
				if err := validateStreamEvent(i, e, nT, nS, hdr.horizon); err != nil {
					return err
				}
				i++
				start, end := e.Start, e.End()
				if start < lo {
					start = lo
				}
				if end > hi {
					end = hi
				}
				if start < end {
					sw.feed(start, end-start, e.Receiver, e.Critical)
					fed++
				}
				return nil
			})
			if err != nil {
				return err
			}
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

// AnalyzeFileSharded memory-maps a binary trace file (v1 or v2) and
// runs the sharded analysis over the mapping: the out-of-core entry
// point, with peak heap bounded by the output tables plus per-shard
// frontier state regardless of the file size. On platforms without
// mmap the file is read into memory instead.
func AnalyzeFileSharded(ctx context.Context, path string, ws int64, shards int, stats *ShardStats) (*Analysis, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	if fi.Size() < binaryHeaderSize {
		return nil, fmt.Errorf("trace: %s: %d bytes is smaller than a trace header", path, fi.Size())
	}
	data, unmap, err := mapFile(f, int(fi.Size()))
	if err != nil {
		return nil, fmt.Errorf("trace: mapping %s: %w", path, err)
	}
	defer unmap() //nolint:errcheck // read-only mapping
	return AnalyzeBytesSharded(ctx, data, ws, shards, stats)
}
