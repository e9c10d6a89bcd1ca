package trace

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"testing"
)

// benchImageWindow is the analysis window of the tiled benchmark image.
const benchImageWindow = 800

// benchImageV2 returns a v2 image of the shape the out-of-core service
// path analyzes: a 9,600-event, 12-receiver base tile of bursty,
// start-ordered grants (three phases of four receivers, short grants,
// one critical grant in eight), tiled 60 times with every copy starting
// on a window boundary. That is 576,000 events in ≈2.4 MB, ≈9,700
// windows at benchImageWindow cycles. It is built once per test binary.
var benchImageV2 = sync.OnceValue(func() []byte {
	const (
		recv    = 12
		senders = 9
		perTile = 9600
		tiles   = 60
	)
	rng := rand.New(rand.NewSource(1))
	base := make([]Event, 0, perTile)
	var t, maxEnd int64
	for k := 0; k < perTile; k++ {
		t += int64(rng.Intn(28))
		phase := (k / 400) % 3
		r := phase*3 + rng.Intn(3)
		if rng.Intn(4) == 0 {
			r = 9 + phase
		}
		e := Event{Start: t, Len: int64(2 + rng.Intn(9)), Sender: rng.Intn(senders), Receiver: r, Critical: rng.Intn(8) == 0}
		base = append(base, e)
		maxEnd = max(maxEnd, e.End())
	}
	period := (maxEnd/benchImageWindow + 1) * benchImageWindow
	var buf bytes.Buffer
	vw, err := NewV2Writer(&buf, recv, senders, period*tiles, perTile*tiles)
	if err != nil {
		panic(err)
	}
	for tile := int64(0); tile < tiles; tile++ {
		for _, e := range base {
			e.Start += tile * period
			if err := vw.Add(e); err != nil {
				panic(err)
			}
		}
	}
	if err := vw.Close(); err != nil {
		panic(err)
	}
	return buf.Bytes()
})

// BenchmarkAnalyzeBytesSharded times the out-of-core analysis of the
// tiled benchmark image at a fixed two shards. Run with -benchmem to
// see the bytes and allocations per call.
func BenchmarkAnalyzeBytesSharded(b *testing.B) {
	data := benchImageV2()
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := AnalyzeBytesSharded(context.Background(), data, benchImageWindow, 2, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// benchImageV1 is benchImageV2's trace in the fixed-stride v1
// container (576,000 records, ≈14.4 MB).
var benchImageV1 = sync.OnceValue(func() []byte {
	tr, err := ReadBinary(bytes.NewReader(benchImageV2()))
	if err != nil {
		panic(err)
	}
	var buf bytes.Buffer
	if err := WriteBinary(&buf, tr); err != nil {
		panic(err)
	}
	return buf.Bytes()
})

// BenchmarkAnalyzeBytesOneShard times the image analysis of the tiled
// benchmark trace at one shard, in both containers.
func BenchmarkAnalyzeBytesOneShard(b *testing.B) {
	for _, img := range []struct {
		name string
		data func() []byte
	}{{"v1", benchImageV1}, {"v2", benchImageV2}} {
		b.Run(img.name, func(b *testing.B) {
			data := img.data()
			b.SetBytes(int64(len(data)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := AnalyzeBytesSharded(context.Background(), data, benchImageWindow, 1, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// allocBytesPerCall measures the heap bytes one call of f allocates,
// averaged over runs calls after a warm-up call.
func allocBytesPerCall(runs int, f func()) uint64 {
	f()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&m1)
	return (m1.TotalAlloc - m0.TotalAlloc) / uint64(runs)
}

// allocBytesLimit pins one AnalyzeBytesSharded call on the benchmark
// image (Go 1.24, linux/amd64) at 9.0 MB, half of the 18.0 MB it
// allocated while the analysis kept per-window pair tables (41.9 MB
// when every v2 block decode made fresh columns and the merge
// re-Appended every cell). The load tables' build slab, which copies no
// cell while it grows, and their exact-size layout bring a call to
// about 5.9 MB; the per-row arena they replaced made it 12.9 MB.
const allocBytesLimit = 9_000_000

// TestAnalyzeBytesShardedAllocBytes pins the sharded analysis of the
// benchmark image at no more than allocBytesLimit per call: the block
// decoder reuses one column scratch per shard, the shards collect
// their load-table cells in slabs and the merge lays the tables out at
// exact size. It also checks the result against the in-memory
// single-pass sweep, so the saving cannot come from skipped work.
func TestAnalyzeBytesShardedAllocBytes(t *testing.T) {
	data := benchImageV2()
	tr, err := ReadBinary(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	want, err := AnalyzeCtx(context.Background(), tr, benchImageWindow)
	if err != nil {
		t.Fatal(err)
	}
	var got *Analysis
	perCall := allocBytesPerCall(3, func() {
		if got, err = AnalyzeBytesSharded(context.Background(), data, benchImageWindow, 2, nil); err != nil {
			t.Fatal(err)
		}
	})
	mustEqualAnalyses(t, "bench-image/sh2", got, want)
	t.Logf("%d bytes per call (limit %d)", perCall, allocBytesLimit)
	if perCall > allocBytesLimit {
		t.Errorf("AnalyzeBytesSharded allocates %d bytes per call, want at most %d", perCall, allocBytesLimit)
	}
}

// TestEventFreeAllocBytes: an analysis allocates per receiver and per
// overlapping pair, not per receiver pair up front, so on an
// event-free trace every path — the in-memory sweep and the image
// driver at one and two shards — allocates at most the OM triangle
// plus 256 KiB. Sizes stop at R = 512; the growth is the point.
func TestEventFreeAllocBytes(t *testing.T) {
	ctx := context.Background()
	for _, nT := range []int{64, 256, 512} {
		tr := &Trace{NumReceivers: nT, NumSenders: 1, Horizon: 1000}
		image := encodeTrace(t, tr)
		limit := uint64(8*nT*(nT-1)/2 + 256<<10)
		paths := []struct {
			name string
			run  func() (*Analysis, error)
		}{
			{"sweep", func() (*Analysis, error) { return AnalyzeCtx(ctx, tr, 10) }},
			{"image/sh1", func() (*Analysis, error) { return AnalyzeBytesSharded(ctx, image, 10, 1, nil) }},
			{"image/sh2", func() (*Analysis, error) { return AnalyzeBytesSharded(ctx, image, 10, 2, nil) }},
		}
		for _, p := range paths {
			var err error
			perCall := allocBytesPerCall(3, func() { _, err = p.run() })
			if err != nil {
				t.Fatalf("R=%d %s: %v", nT, p.name, err)
			}
			t.Logf("R=%d %s: %d bytes per call (limit %d)", nT, p.name, perCall, limit)
			if perCall > limit {
				t.Errorf("R=%d %s: %d bytes per call, want at most %d", nT, p.name, perCall, limit)
			}
		}
	}
}

// TestV2DecoderScratchReuse decodes a two-block image whose second
// block is smaller than its first through one decoder, as every stream
// and shard does, and checks each block against a fresh decoder's
// events: a stale value left in the scratch tail would surface as a
// mismatch. ReadBinary over the image must return the same events.
func TestV2DecoderScratchReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tr := &Trace{NumReceivers: 7, NumSenders: 5, Horizon: 1 << 30}
	start := int64(0)
	for k := 0; k < v2BlockMaxEvents+37; k++ {
		start += int64(rng.Intn(300))
		tr.Events = append(tr.Events, Event{
			Start:    start,
			Len:      1 + int64(rng.Intn(2000)),
			Sender:   rng.Intn(5),
			Receiver: rng.Intn(7),
			Critical: rng.Intn(3) == 0,
		})
	}
	data := encodeTraceV2(t, tr)
	hdr, err := readBinaryHeader(bufio.NewReader(bytes.NewReader(data)))
	if err != nil {
		t.Fatal(err)
	}
	body := data[HeaderSize:]
	idx, err := parseV2Index(body, hdr)
	if err != nil {
		t.Fatal(err)
	}
	if len(idx) != 2 || idx[1].bh.count >= idx[0].bh.count {
		t.Fatalf("image has %d blocks; want a full block then a smaller one", len(idx))
	}
	collect := func(dec *blockDecoder, ent imageBlock) []Event {
		if err := dec.v2Columns(ent.bh, body[ent.off:ent.off+int(ent.bh.payloadLen)]); err != nil {
			t.Fatal(err)
		}
		evs := make([]Event, ent.bh.count)
		for k := range evs {
			evs[k] = Event{Start: dec.starts[k], Len: dec.lens[k], Sender: int(dec.senders[k]), Receiver: int(dec.recvs[k]), Critical: dec.critical(k)}
		}
		return evs
	}
	var shared blockDecoder
	var all []Event
	for b, ent := range idx {
		got := collect(&shared, ent)
		if want := collect(&blockDecoder{}, ent); !reflect.DeepEqual(got, want) {
			t.Fatalf("block %d: reused decoder disagrees with a fresh one", b)
		}
		all = append(all, got...)
	}
	if !reflect.DeepEqual(all, tr.Events) {
		t.Fatal("decoded events differ from the encoded trace")
	}
	back, err := ReadBinary(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back.Events, tr.Events) {
		t.Fatal("ReadBinary events differ from the encoded trace")
	}
}

// v2OneBlockImage is a hand-built v2 image of one block: 4 receivers,
// 2 senders, horizon 100, and the given block header fields and
// payload (payloadLen is the payload's length).
func v2OneBlockImage(count uint32, firstStart, maxEnd int64, payload []byte) []byte {
	b := append([]byte(nil), binaryMagic[:]...)
	b = binary.LittleEndian.AppendUint32(b, binaryVersionV2)
	b = binary.LittleEndian.AppendUint32(b, 4)
	b = binary.LittleEndian.AppendUint32(b, 2)
	b = binary.LittleEndian.AppendUint64(b, 100)
	b = binary.LittleEndian.AppendUint64(b, uint64(count))
	b = binary.LittleEndian.AppendUint32(b, count)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(payload)))
	b = binary.LittleEndian.AppendUint64(b, uint64(firstStart))
	b = binary.LittleEndian.AppendUint64(b, uint64(maxEnd))
	return append(b, payload...)
}

// TestV2CorruptBlockErrorsAgree feeds corrupt blocks to the v2 decode
// paths — the image analysis at one and at two shards, and ReadBinary —
// and expects each to fail with the same error. The valid block holds
// events [10,+5) sender 0 receiver 1 and [12,+3) sender 1 receiver 0,
// so its max end is 15.
func TestV2CorruptBlockErrorsAgree(t *testing.T) {
	uv := func(v uint64) []byte { return binary.AppendUvarint(nil, v) }
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	valid := cat(uv(2), uv(5), uv(3), uv(0), uv(1), uv(1), uv(0), []byte{0})
	if _, err := ReadBinary(bytes.NewReader(v2OneBlockImage(2, 10, 15, valid))); err != nil {
		t.Fatalf("valid block rejected: %v", err)
	}
	for _, tc := range []struct {
		name    string
		image   []byte
		wantErr string
	}{
		{"truncated-varint", v2OneBlockImage(2, 10, 15, cat(uv(2), uv(5), uv(3), uv(0), uv(1), uv(1), []byte{0x80})),
			"trace: v2 block: truncated or oversized varint at payload offset 6"},
		{"start-overflow", v2OneBlockImage(2, 10, 15, cat(uv(1<<64-5), uv(5), uv(3), uv(0), uv(1), uv(1), uv(0), []byte{0})),
			"trace: v2 block: start delta overflows at event 1"},
		{"implausible-sender", v2OneBlockImage(2, 10, 15, cat(uv(2), uv(5), uv(3), uv(0), uv(1<<31+1), uv(1), uv(0), []byte{0})),
			"trace: v2 block: implausible sender 2147483649"},
		{"implausible-receiver", v2OneBlockImage(2, 10, 15, cat(uv(2), uv(5), uv(3), uv(0), uv(1), uv(1<<31+1), uv(0), []byte{0})),
			"trace: v2 block: implausible receiver 2147483649"},
		{"bitmap-length", v2OneBlockImage(2, 10, 15, cat(uv(2), uv(5), uv(3), uv(0), uv(1), uv(1), uv(0), []byte{0, 0})),
			"trace: v2 block: 2 payload bytes after columns, want 1 bitmap bytes"},
		{"maxEnd-mismatch", v2OneBlockImage(2, 10, 16, valid),
			"trace: v2 block: header maxEnd 16 does not match decoded 15"},
	} {
		_, errOne := AnalyzeBytesSharded(context.Background(), tc.image, 4, 1, nil)
		_, errTwo := AnalyzeBytesSharded(context.Background(), tc.image, 4, 2, nil)
		_, errRead := ReadBinary(bytes.NewReader(tc.image))
		for _, got := range []struct {
			path string
			err  error
		}{{"AnalyzeBytesSharded/sh1", errOne}, {"AnalyzeBytesSharded/sh2", errTwo}, {"ReadBinary", errRead}} {
			if got.err == nil || got.err.Error() != tc.wantErr {
				t.Errorf("%s: %s: err = %v, want %q", tc.name, got.path, got.err, tc.wantErr)
			}
		}
	}
}

// TestAnalyzeBytesShardedRejectsPastHorizon: an event that starts at or
// past the horizon belongs to no window. The image analysis must reject
// it at every shard count, over v1 and v2 images — the last shard owns
// such events rather than no shard reading them.
func TestAnalyzeBytesShardedRejectsPastHorizon(t *testing.T) {
	uv := func(v uint64) []byte { return binary.AppendUvarint(nil, v) }
	v2 := v2OneBlockImage(2, 150, 155, bytes.Join([][]byte{uv(2), uv(5), uv(3), uv(0), uv(1), uv(1), uv(0), {0}}, nil))

	v1 := append([]byte(nil), binaryMagic[:]...)
	v1 = binary.LittleEndian.AppendUint32(v1, binaryVersion)
	v1 = binary.LittleEndian.AppendUint32(v1, 4)
	v1 = binary.LittleEndian.AppendUint32(v1, 2)
	v1 = binary.LittleEndian.AppendUint64(v1, 100)
	v1 = binary.LittleEndian.AppendUint64(v1, 2)
	for _, start := range []uint64{10, 150} {
		var rec [binaryEventSize]byte
		binary.LittleEndian.PutUint64(rec[0:], start)
		binary.LittleEndian.PutUint64(rec[8:], 5)
		v1 = append(v1, rec[:]...)
	}

	for _, tc := range []struct {
		name    string
		image   []byte
		wantErr string
	}{
		{"v1", v1, "trace: event 1 [150,+5) outside horizon 100"},
		{"v2", v2, "trace: event 0 [150,+5) outside horizon 100"},
	} {
		for _, shards := range []int{1, 2, 3, 25} {
			if _, err := AnalyzeBytesSharded(context.Background(), tc.image, 4, shards, nil); err == nil || err.Error() != tc.wantErr {
				t.Errorf("%s: %d shards: err = %v, want %q", tc.name, shards, err, tc.wantErr)
			}
		}
	}
}

// TestV2CrossBlockOrderAgree: v2 stores starts as in-block deltas, so a
// block whose first start precedes the previous block's last start is
// the one way a v2 image can be out of order. The image analysis must
// reject it at every shard count, before any event reaches a sweep,
// with ReadBinary's error.
func TestV2CrossBlockOrderAgree(t *testing.T) {
	uv := func(v uint64) []byte { return binary.AppendUvarint(nil, v) }
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	// Block 1: [10,+5) and [12,+3); block 2: [11,+2) and [13,+2).
	image := v2OneBlockImage(2, 10, 15, cat(uv(2), uv(5), uv(3), uv(0), uv(1), uv(1), uv(0), []byte{0}))
	binary.LittleEndian.PutUint64(image[24:], 4) // numEvents
	second := cat(uv(2), uv(2), uv(2), uv(0), uv(1), uv(1), uv(0), []byte{0})
	image = binary.LittleEndian.AppendUint32(image, 2)
	image = binary.LittleEndian.AppendUint32(image, uint32(len(second)))
	image = binary.LittleEndian.AppendUint64(image, 11)
	image = binary.LittleEndian.AppendUint64(image, 15)
	image = append(image, second...)

	const wantErr = "trace: v2 block at event 2 starts at 11, before the previous start 12"
	if _, err := ReadBinary(bytes.NewReader(image)); err == nil || err.Error() != wantErr {
		t.Fatalf("ReadBinary: err = %v, want %q", err, wantErr)
	}
	for _, shards := range []int{1, 2, 3, 0} {
		if _, err := AnalyzeBytesSharded(context.Background(), image, 4, shards, nil); err == nil || err.Error() != wantErr {
			t.Errorf("%d shards: err = %v, want %q", shards, err, wantErr)
		}
	}
}

// TestAnalyzeBytesShardedSizeErrorsAgree: an image with bytes past its
// last event, or missing some, gets one answer — rejection, with the
// same error — at every shard count, with a one-window analysis (which
// always resolves to one shard), and through AnalyzeFileSharded.
func TestAnalyzeBytesShardedSizeErrorsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	tr := sortedCopy(randomSweepTrace(rng, 6, 400, 4000))
	v1, v2 := encodeTrace(t, tr), encodeTraceV2(t, tr)
	trailing := func(b []byte) []byte { return append(append([]byte(nil), b...), 1, 2, 3) }
	dir := t.TempDir()
	for _, tc := range []struct {
		name    string
		image   []byte
		wantErr string
	}{
		{"v1-trailing", trailing(v1), "trace: v1 image is 10003 event bytes, header declares 400 events (10000 bytes)"},
		{"v2-trailing", trailing(v2), "trace: 3 trailing bytes after the last v2 block"},
		{"v1-truncated", v1[:len(v1)-3], "trace: v1 image is 9997 event bytes, header declares 400 events (10000 bytes)"},
		{"v2-truncated", v2[:len(v2)-3], "trace: v2 image truncated at block payload (event 0)"},
	} {
		path := filepath.Join(dir, tc.name+".trc")
		if err := os.WriteFile(path, tc.image, 0o644); err != nil {
			t.Fatal(err)
		}
		for _, run := range []struct {
			ws     int64
			shards int
		}{{100, 1}, {100, 2}, {100, 0}, {tr.Horizon, 2}, {tr.Horizon, 0}} {
			tag := fmt.Sprintf("%s ws=%d shards=%d", tc.name, run.ws, run.shards)
			if _, err := AnalyzeBytesSharded(context.Background(), tc.image, run.ws, run.shards, nil); err == nil || err.Error() != tc.wantErr {
				t.Errorf("%s: AnalyzeBytesSharded err = %v, want %q", tag, err, tc.wantErr)
			}
			if _, err := AnalyzeFileSharded(context.Background(), path, run.ws, run.shards, nil); err == nil || err.Error() != tc.wantErr {
				t.Errorf("%s: AnalyzeFileSharded err = %v, want %q", tag, err, tc.wantErr)
			}
		}
	}
}
