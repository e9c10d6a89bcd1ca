package trace

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
)

// HeaderSize is the fixed header that starts every binary trace, v1 or
// v2: magic + five fields.
const HeaderSize = 4 + 4 + 4 + 4 + 8 + 8

// v1BlockEvents is the record stride of a v1 image's block index: a
// few thousand records keep the index small (40 bytes per block) and a
// shard's decode of a block it only partly meets short.
const v1BlockEvents = 4096

// AnalyzeBytesSharded runs the window analysis directly over a binary
// trace image (v1 or v2) without materializing the event slice,
// typically fed by AnalyzeFileSharded's mmap. shards ≤ 0 means one per
// CPU core, and the count never exceeds the window count. Every count,
// one included, runs the same block-index driver, so an image is
// accepted or rejected alike at every count. stats may be nil. A v1
// image whose events are not start-ordered cannot be swept out of
// core, so it is decoded and analyzed in memory (the sweep sorts),
// which costs the event slice but gives the same analysis as for the
// sorted image; stats is then left unwritten.
func AnalyzeBytesSharded(ctx context.Context, data []byte, ws int64, shards int, stats *ShardStats) (*Analysis, error) {
	hdr, err := readImageHeader(data)
	if err != nil {
		return nil, err
	}
	boundaries, err := windowBoundaries(hdr.horizon, ws)
	if err != nil {
		return nil, err
	}
	return analyzeBytes(ctx, data, hdr, boundaries, shards, stats)
}

// analyzeBytes is AnalyzeBytesSharded over explicit window boundaries
// that end at the header's horizon: the image driver, with the
// in-memory fallback for an out-of-order v1 image.
func analyzeBytes(ctx context.Context, data []byte, hdr binHeader, boundaries []int64, shards int, stats *ShardStats) (*Analysis, error) {
	a, err := analyzeImage(ctx, data[HeaderSize:], hdr, boundaries, shards, stats)
	if !errors.Is(err, errUnsorted) {
		return a, err
	}
	tr, err := ReadBinary(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	return AnalyzeWithBoundariesCtx(ctx, tr, boundaries)
}

// readImageHeader parses the header of a binary image and applies the
// shape checks of the out-of-core analysis.
func readImageHeader(data []byte) (binHeader, error) {
	hdr, err := readBinaryHeader(bufio.NewReader(bytes.NewReader(data)))
	if err != nil {
		return hdr, err
	}
	if hdr.numReceivers == 0 {
		return hdr, fmt.Errorf("trace: NumReceivers must be positive")
	}
	if hdr.numSenders == 0 {
		return hdr, fmt.Errorf("trace: NumSenders must be positive")
	}
	if hdr.numReceivers > maxReceivers {
		return hdr, fmt.Errorf("trace: %d receivers exceeds the streaming-analysis limit %d", hdr.numReceivers, maxReceivers)
	}
	if hdr.horizon <= 0 {
		return hdr, fmt.Errorf("trace: Horizon must be positive")
	}
	return hdr, nil
}

// parseV1Index builds the block index of a v1 image (body is the image
// after the file header) in one pass over the fixed-stride records,
// reading each record's start and length. It checks the body size
// against the header and the start order, returning errUnsorted for an
// out-of-order image. A block's firstStart and maxEnd are plan values
// clipped to [0, horizon], with every record counted at least one
// cycle long: maxEnd exceeds firstStart unless the block starts at or
// past the horizon. The records themselves are validated by the shards
// that decode them.
func parseV1Index(body []byte, hdr binHeader) ([]imageBlock, error) {
	want := hdr.numEvents * binaryEventSize
	if hdr.numEvents > 1<<57 || uint64(len(body)) != want {
		return nil, fmt.Errorf("trace: v1 image is %d event bytes, header declares %d events (%d bytes)", len(body), hdr.numEvents, want)
	}
	n, horizon := int(hdr.numEvents), uint64(hdr.horizon)
	idx := make([]imageBlock, 0, (n+v1BlockEvents-1)/v1BlockEvents)
	var last uint64
	for k0 := 0; k0 < n; k0 += v1BlockEvents {
		count := min(n-k0, v1BlockEvents)
		first := binary.LittleEndian.Uint64(body[k0*binaryEventSize:])
		var maxEnd uint64
		for k := k0; k < k0+count; k++ {
			rec := body[k*binaryEventSize:]
			start := binary.LittleEndian.Uint64(rec)
			if start < last {
				return nil, fmt.Errorf("%w: event %d starts at %d, before the previous start %d", errUnsorted, k, start, last)
			}
			last = start
			end := start + max(binary.LittleEndian.Uint64(rec[8:]), 1)
			if end < start {
				end = math.MaxUint64 // overflow: an invalid record, which its shard rejects
			}
			maxEnd = max(maxEnd, end)
		}
		idx = append(idx, imageBlock{
			off: k0 * binaryEventSize,
			bh: v2BlockHeader{
				count:      uint32(count),
				payloadLen: uint32(count * binaryEventSize),
				firstStart: int64(min(first, horizon)),
				maxEnd:     int64(min(maxEnd, horizon)),
			},
			cumEvents: uint64(k0),
		})
	}
	return idx, nil
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
	if fi.Size() < HeaderSize {
		return nil, fmt.Errorf("trace: %s: %d bytes is smaller than a trace header", path, fi.Size())
	}
	data, unmap, err := mapFile(f, int(fi.Size()))
	if err != nil {
		return nil, fmt.Errorf("trace: mapping %s: %w", path, err)
	}
	defer unmap() //nolint:errcheck // read-only mapping
	return AnalyzeBytesSharded(ctx, data, ws, shards, stats)
}
