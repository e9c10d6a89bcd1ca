package trace

import (
	"bytes"
	"cmp"
	"context"
	"encoding/binary"
	"math"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
)

// decodeFuzzTrace builds a trace from raw fuzz bytes. The receiver
// count ranges up to 96 so fuzz inputs cross the sweep kernel's 64-bit
// active-bitset word boundary. Event fields are taken in one of two
// forms, selected per event by a flag bit: reduced modulo the horizon
// (so mutations usually stay structurally valid and reach the analysis
// code) or raw int64 (so mutations can attack Validate itself with
// extreme values — that form found the Start+Len overflow). Callers
// must still run Validate.
func decodeFuzzTrace(data []byte) *Trace {
	if len(data) < 4 {
		return nil
	}
	tr := &Trace{
		NumReceivers: 1 + int(data[0]%96),
		NumSenders:   1 + int(data[1]%4),
		Horizon:      1 + int64(binary.LittleEndian.Uint16(data[2:4]))%4096,
	}
	data = data[4:]
	const evBytes = 19
	for len(data) >= evBytes && len(tr.Events) < 64 {
		start := int64(binary.LittleEndian.Uint64(data[0:8]))
		length := int64(binary.LittleEndian.Uint64(data[8:16]))
		raw := data[16]&2 != 0
		if !raw {
			start = ((start % tr.Horizon) + tr.Horizon) % tr.Horizon
			rem := tr.Horizon - start // ≥ 1
			length = 1 + ((length%rem)+rem)%rem
		}
		tr.Events = append(tr.Events, Event{
			Start:    start,
			Len:      length,
			Sender:   int(data[17]) % tr.NumSenders,
			Receiver: int(data[18]) % tr.NumReceivers,
			Critical: data[16]&1 != 0,
		})
		data = data[evBytes:]
	}
	return tr
}

// fuzzEvent encodes one decodeFuzzTrace event record in the raw form
// (start and length taken verbatim), used to build precise seeds.
func fuzzEvent(start, length int64, recv, sender byte, critical bool) []byte {
	var ev [19]byte
	binary.LittleEndian.PutUint64(ev[0:8], uint64(start))
	binary.LittleEndian.PutUint64(ev[8:16], uint64(length))
	ev[16] = 2 // raw form
	if critical {
		ev[16] |= 1
	}
	ev[17] = sender
	ev[18] = recv
	return ev[:]
}

// FuzzAnalyze feeds arbitrary traces and window sizes through the
// window analysis and cross-checks the result three ways: against a
// brute-force per-cycle oracle over the receivers that actually carry
// traffic (every Comm entry, pairwise overlap and OM entry must match
// counts over an explicit busy-cycle bitmap), against the retained
// legacy pairwise kernel, and against the streaming reader fed the
// binary encoding of the same trace — all three must be bit-identical.
func FuzzAnalyze(f *testing.F) {
	f.Add([]byte{3, 1, 40, 0}, int64(10))
	f.Add(append([]byte{2, 1, 64, 0},
		fuzzEvent(0, 8, 0, 0, false)...), int64(7))
	// Window size far beyond the horizon (single short window).
	f.Add([]byte{5, 2, 100, 0}, int64(math.MaxInt64))
	// Regression: a raw-form event whose Start+Len overflows int64 —
	// before the Validate fix it passed validation and corrupted the
	// interval sets.
	f.Add(append([]byte{2, 1, 64, 0},
		fuzzEvent(5, math.MaxInt64-2, 0, 0, false)...), int64(16))
	// Coincident endpoints: two receivers covering the same interval and
	// a third starting exactly where they end, which is also a window
	// boundary — the sweep's deactivation order is arbitrary among them.
	coincident := []byte{2, 0, 64, 0}
	coincident = append(coincident, fuzzEvent(8, 8, 0, 0, true)...)
	coincident = append(coincident, fuzzEvent(8, 8, 1, 0, false)...)
	coincident = append(coincident, fuzzEvent(16, 8, 2, 0, true)...)
	f.Add(coincident, int64(8))
	// Coverage ends flush with window boundaries (no partial windows).
	aligned := []byte{2, 0, 100, 0}
	aligned = append(aligned, fuzzEvent(10, 10, 0, 0, false)...)
	aligned = append(aligned, fuzzEvent(20, 10, 1, 0, true)...)
	aligned = append(aligned, fuzzEvent(10, 20, 2, 0, false)...)
	f.Add(aligned, int64(10))
	// All receivers simultaneously active (maximum pair fan-out).
	allActive := []byte{7, 0, 64, 0}
	for r := byte(0); r < 8; r++ {
		allActive = append(allActive, fuzzEvent(int64(r), 32, r, 0, r%2 == 0)...)
	}
	f.Add(allActive, int64(16))
	// Receivers above 64: the active bitset spans two words.
	wide := []byte{95, 0, 200, 0}
	wide = append(wide, fuzzEvent(0, 40, 70, 0, true)...)
	wide = append(wide, fuzzEvent(10, 40, 90, 0, false)...)
	wide = append(wide, fuzzEvent(20, 40, 1, 0, true)...)
	f.Add(wide, int64(25))

	f.Fuzz(func(t *testing.T, data []byte, ws int64) {
		tr := decodeFuzzTrace(data)
		if tr == nil {
			return
		}
		if tr.Validate() != nil {
			// Validate rejected it; the oracle below would be
			// meaningless. Reaching here with extreme raw fields is
			// itself the test that Validate cannot be bypassed.
			return
		}
		a, err := AnalyzeCtx(context.Background(), tr, ws)
		if err != nil {
			if ws <= 0 {
				return // the documented rejection
			}
			t.Fatalf("Analyze rejected a valid trace: %v", err)
		}

		// Structural window invariants.
		nW := a.NumWindows()
		if a.Boundaries[0] != 0 || a.Boundaries[nW] != tr.Horizon {
			t.Fatalf("boundaries %v do not span [0,%d]", a.Boundaries, tr.Horizon)
		}
		for m := 0; m < nW; m++ {
			if a.WindowLen(m) <= 0 || (ws > 0 && a.WindowLen(m) > ws) {
				t.Fatalf("window %d has length %d (ws=%d)", m, a.WindowLen(m), ws)
			}
		}

		// Cross-kernel equivalence. The legacy kernel buffers every pair
		// row densely, so it is gated on the table area staying sane;
		// the image driver at one shard costs about the same as the
		// sweep and always runs (on a start-sorted copy's v1 image —
		// order must not matter).
		nPairs := tr.NumReceivers * (tr.NumReceivers - 1) / 2
		if nPairs*nW <= 1<<22 {
			legacy, err := AnalyzeLegacy(tr, ws)
			if err != nil {
				t.Fatalf("AnalyzeLegacy rejected a valid trace: %v", err)
			}
			if diffs := DiffAnalyses(a, legacy); len(diffs) > 0 {
				t.Fatalf("sweep vs legacy:\n%s", strings.Join(diffs, "\n"))
			}
		}
		image, err := AnalyzeBytesSharded(context.Background(), encodeTrace(t, sortedCopy(tr)), ws, 1, nil)
		if err != nil {
			t.Fatalf("the one-shard image analysis rejected a valid v1 image: %v", err)
		}
		if diffs := DiffAnalyses(a, image); len(diffs) > 0 {
			t.Fatalf("sweep vs one-shard v1 image:\n%s", strings.Join(diffs, "\n"))
		}

		// Brute-force oracle: explicit busy bitmaps, restricted to
		// receivers that appear in events (idle receivers cannot be
		// credited — the cross-kernel check above covers their rows).
		activeSet := map[int]bool{}
		for _, e := range tr.Events {
			activeSet[e.Receiver] = true
		}
		active := make([]int, 0, len(activeSet))
		for r := range activeSet {
			active = append(active, r)
		}
		sort.Ints(active)
		busy := make(map[int][]bool, len(active))
		for _, r := range active {
			busy[r] = make([]bool, tr.Horizon)
		}
		for _, e := range tr.Events {
			for c := e.Start; c < e.End(); c++ {
				busy[e.Receiver][c] = true
			}
		}
		countIn := func(marks []bool, lo, hi int64) int64 {
			var n int64
			for c := lo; c < hi; c++ {
				if marks[c] {
					n++
				}
			}
			return n
		}
		for ii, i := range active {
			for m := 0; m < nW; m++ {
				want := countIn(busy[i], a.Boundaries[m], a.Boundaries[m+1])
				if got := CellAt(a.Comm, i, m); got != want {
					t.Fatalf("Comm(%d,%d) = %d, oracle %d", i, m, got, want)
				}
			}
			for _, j := range active[ii+1:] {
				both := make([]bool, tr.Horizon)
				for c := int64(0); c < tr.Horizon; c++ {
					both[c] = busy[i][c] && busy[j][c]
				}
				var total int64
				var pts []WindowOverlap
				for m := 0; m < nW; m++ {
					if v := countIn(both, a.Boundaries[m], a.Boundaries[m+1]); v > 0 {
						pts = append(pts, WindowOverlap{Len: a.WindowLen(m), Cycles: v})
						total += v
					}
				}
				var got []WindowOverlap
				for _, p := range a.Pairs {
					if p.I == i && p.J == j {
						got = p.Frontier
					}
				}
				if want := bruteFrontier(pts); !slices.Equal(got, want) {
					t.Fatalf("pair (%d,%d) frontier %v, oracle %v", i, j, got, want)
				}
				if got := a.OM.At(i, j); got != total {
					t.Fatalf("OM(%d,%d) = %d, oracle %d", i, j, got, total)
				}
			}
		}
	})
}

// bruteFrontier returns the points of pts that no other point
// dominates (no longer and overlapping no less), once each, by
// ascending length: the frontier by its definition, in O(n²).
func bruteFrontier(pts []WindowOverlap) []WindowOverlap {
	var out []WindowOverlap
	for k, p := range pts {
		kept := true
		for l, q := range pts {
			if q.Len <= p.Len && q.Cycles >= p.Cycles && (q != p || l < k) {
				kept = false
				break
			}
		}
		if kept {
			out = append(out, p)
		}
	}
	slices.SortFunc(out, func(x, y WindowOverlap) int { return cmp.Compare(x.Len, y.Len) })
	return out
}

// FuzzShardedAnalyze cross-checks the image driver against the
// single-pass sweep on arbitrary traces: the v1 image of a start-sorted
// copy, the v2 image, and the v1 image in the trace's own event order
// (an unordered one takes the in-memory fallback) must all be
// bit-identical to Analyze at an arbitrary shard count — the fuzz form
// of the shard-boundary suite.
func FuzzShardedAnalyze(f *testing.F) {
	f.Add([]byte{3, 1, 40, 0}, int64(10), int64(2))
	// A grant spanning the whole horizon straddles every cut.
	straddle := append([]byte{2, 1, 200, 0}, fuzzEvent(0, 200, 0, 0, true)...)
	straddle = append(straddle, fuzzEvent(50, 100, 1, 0, false)...)
	f.Add(straddle, int64(25), int64(7))
	// Everything clustered in one window: most shards are empty.
	cluster := []byte{4, 1, 255, 15}
	for r := byte(0); r < 4; r++ {
		cluster = append(cluster, fuzzEvent(int64(r), 6, r, 0, r%2 == 0)...)
	}
	f.Add(cluster, int64(16), int64(8))
	// More shards than windows.
	f.Add(append([]byte{2, 1, 64, 0}, fuzzEvent(0, 8, 0, 0, false)...), int64(math.MaxInt64), int64(6))
	// Auto shard count, wide bitset.
	wide := []byte{95, 0, 200, 0}
	wide = append(wide, fuzzEvent(0, 150, 70, 0, true)...)
	wide = append(wide, fuzzEvent(10, 120, 90, 0, false)...)
	f.Add(wide, int64(25), int64(0))
	// Events out of start order: the as-is v1 image takes the fallback.
	unsorted := []byte{3, 1, 200, 0}
	unsorted = append(unsorted, fuzzEvent(150, 30, 2, 0, true)...)
	unsorted = append(unsorted, fuzzEvent(20, 100, 0, 0, false)...)
	unsorted = append(unsorted, fuzzEvent(60, 40, 1, 0, true)...)
	f.Add(unsorted, int64(50), int64(3))

	f.Fuzz(func(t *testing.T, data []byte, ws int64, shards int64) {
		tr := decodeFuzzTrace(data)
		if tr == nil || tr.Validate() != nil {
			return
		}
		want, err := AnalyzeCtx(context.Background(), tr, ws)
		if err != nil {
			return // FuzzAnalyze owns rejection behavior
		}
		// 0 (auto) or 1..9 explicit shards.
		n := int(((shards % 10) + 10) % 10)

		for _, leg := range []struct {
			name  string
			image []byte
		}{
			{"sorted v1", encodeTrace(t, sortedCopy(tr))},
			{"v2", encodeTraceV2(t, tr)},
			{"as-is v1", encodeTrace(t, tr)},
		} {
			got, err := AnalyzeBytesSharded(context.Background(), leg.image, ws, n, nil)
			if err != nil {
				t.Fatalf("%s image, %d shards: %v", leg.name, n, err)
			}
			if diffs := DiffAnalyses(got, want); len(diffs) > 0 {
				t.Fatalf("%s image, %d shards, vs sweep:\n%s", leg.name, n, strings.Join(diffs, "\n"))
			}
		}
	})
}

// FuzzAnalyzeImage hammers the image driver with arbitrary bytes at
// one and two shards: it must never panic, both counts must accept or
// reject alike, and an accepted image must decode with ReadBinary to a
// trace whose in-memory analysis is bit-identical. The window size is a
// quarter of the declared horizon, so the analysis has a few windows
// whatever the header says. The seeds are a valid v1 and v2 image and
// a v2 image with a corrupt start delta.
func FuzzAnalyzeImage(f *testing.F) {
	valid := &Trace{NumReceivers: 3, NumSenders: 2, Horizon: 64, Events: []Event{
		{Start: 0, Len: 20, Sender: 0, Receiver: 0, Critical: true},
		{Start: 5, Len: 30, Sender: 1, Receiver: 1},
		{Start: 33, Len: 4, Sender: 1, Receiver: 2},
		{Start: 40, Len: 24, Sender: 0, Receiver: 0},
	}}
	var v1, v2 bytes.Buffer
	if err := WriteBinary(&v1, valid); err != nil {
		f.Fatal(err)
	}
	if err := WriteBinaryV2(&v2, valid); err != nil {
		f.Fatal(err)
	}
	f.Add(v1.Bytes())
	f.Add(v2.Bytes())
	// A corrupt start delta before the two-shard cut's target event
	// (event 3 of 6, in the first of two blocks): the planner falls back
	// to the block's first start, and both counts reject the image.
	corrupt := append([]Event(nil), valid.Events...)
	corrupt = append(corrupt, Event{Start: 44, Len: 2, Sender: 1, Receiver: 1}, Event{Start: 50, Len: 4, Sender: 0, Receiver: 2})
	corrupt[2].Start = corrupt[1].Start - 1
	f.Add(rawV2Image(valid.Horizon, corrupt, 4))

	f.Fuzz(func(t *testing.T, data []byte) {
		// The tables are O(R²) rows, so a large declared receiver count
		// only costs memory here.
		if len(data) < HeaderSize || binary.LittleEndian.Uint32(data[8:]) > 256 {
			return
		}
		ws := max(1, int64(binary.LittleEndian.Uint64(data[16:])/4))
		one, errOne := AnalyzeBytesSharded(context.Background(), data, ws, 1, nil)
		_, errTwo := AnalyzeBytesSharded(context.Background(), data, ws, 2, nil)
		if (errOne == nil) != (errTwo == nil) {
			t.Fatalf("one shard: %v; two shards: %v", errOne, errTwo)
		}
		if errOne != nil {
			return
		}
		tr, err := ReadBinary(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("the image analysis accepted an image ReadBinary rejects: %v", err)
		}
		want, err := AnalyzeCtx(context.Background(), tr, ws)
		if err != nil {
			t.Fatalf("AnalyzeCtx: %v", err)
		}
		if diffs := DiffAnalyses(one, want); len(diffs) > 0 {
			t.Fatalf("image vs in-memory sweep:\n%s", strings.Join(diffs, "\n"))
		}
	})
}

// FuzzTraceEncode hammers the binary decoder with arbitrary bytes and
// requires that anything it accepts survives a binary and a JSON
// round-trip bit-identically.
func FuzzTraceEncode(f *testing.F) {
	// A small valid trace, properly encoded.
	valid := &Trace{NumReceivers: 2, NumSenders: 1, Horizon: 32, Events: []Event{
		{Start: 0, Len: 4, Sender: 0, Receiver: 0, Critical: true},
		{Start: 8, Len: 2, Sender: 0, Receiver: 1},
	}}
	var buf bytes.Buffer
	if err := WriteBinary(&buf, valid); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	// Regression: header declaring ~2^28 events with no payload — the
	// decoder used to preallocate the whole slice before reading.
	hdr := append([]byte("STBT"), make([]byte, 28)...)
	binary.LittleEndian.PutUint32(hdr[4:], 1)      // version
	binary.LittleEndian.PutUint32(hdr[8:], 2)      // receivers
	binary.LittleEndian.PutUint32(hdr[12:], 1)     // senders
	binary.LittleEndian.PutUint64(hdr[16:], 32)    // horizon
	binary.LittleEndian.PutUint64(hdr[24:], 1<<27) // events
	f.Add(hdr)
	f.Add([]byte("STBT"))
	f.Add([]byte{})
	// The same small trace in the v2 columnar container, so mutations
	// explore the block decoder too.
	var v2buf bytes.Buffer
	if err := WriteBinaryV2(&v2buf, valid); err != nil {
		f.Fatal(err)
	}
	f.Add(v2buf.Bytes())

	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := ReadBinary(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("ReadBinary returned an invalid trace: %v", err)
		}
		var bin bytes.Buffer
		if err := WriteBinary(&bin, tr); err != nil {
			t.Fatalf("WriteBinary: %v", err)
		}
		back, err := ReadBinary(&bin)
		if err != nil {
			t.Fatalf("binary round-trip decode: %v", err)
		}
		if !tracesEqual(tr, back) {
			t.Fatalf("binary round-trip changed the trace: %+v vs %+v", tr, back)
		}
		var js bytes.Buffer
		if err := WriteJSON(&js, tr); err != nil {
			t.Fatalf("WriteJSON: %v", err)
		}
		back, err = ReadJSON(&js)
		if err != nil {
			t.Fatalf("JSON round-trip decode: %v", err)
		}
		if !tracesEqual(tr, back) {
			t.Fatalf("JSON round-trip changed the trace: %+v vs %+v", tr, back)
		}
		var v2 bytes.Buffer
		if err := WriteBinaryV2(&v2, tr); err != nil {
			t.Fatalf("WriteBinaryV2: %v", err)
		}
		back, err = ReadBinary(&v2)
		if err != nil {
			t.Fatalf("v2 round-trip decode: %v", err)
		}
		if !tracesEqual(sortedCopy(tr), back) {
			t.Fatalf("v2 round-trip changed the trace: %+v vs %+v", tr, back)
		}
	})
}

// tracesEqual compares traces treating nil and empty event slices as
// equal (the encodings do not distinguish them).
func tracesEqual(a, b *Trace) bool {
	if a.NumReceivers != b.NumReceivers || a.NumSenders != b.NumSenders || a.Horizon != b.Horizon {
		return false
	}
	if len(a.Events) != len(b.Events) {
		return false
	}
	return len(a.Events) == 0 || reflect.DeepEqual(a.Events, b.Events)
}
