package trace

import (
	"bytes"
	"context"
	"encoding/binary"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// mustEqualAnalyses asserts got and want are bit-identical: every
// exported quantity matches (DiffAnalyses) and the in-memory
// representation is deeply equal (sparse tables are compacted to a
// canonical layout, so equal content means equal structure).
func mustEqualAnalyses(t *testing.T, tag string, got, want *Analysis) {
	t.Helper()
	if diffs := DiffAnalyses(got, want); len(diffs) > 0 {
		t.Fatalf("%s: analyses differ:\n  %s", tag, strings.Join(diffs, "\n  "))
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: analyses content-equal but representations differ", tag)
	}
}

// randomTrace builds a reproducible random trace. Event starts are
// unordered; the kernels must not care.
func randomSweepTrace(rng *rand.Rand, receivers, events int, horizon int64) *Trace {
	tr := &Trace{NumReceivers: receivers, NumSenders: 2, Horizon: horizon}
	for k := 0; k < events; k++ {
		start := rng.Int63n(horizon)
		maxLen := horizon - start
		length := int64(1)
		if maxLen > 1 {
			length += rng.Int63n(min(maxLen, 40))
		}
		tr.Events = append(tr.Events, Event{
			Start:    start,
			Len:      length,
			Sender:   rng.Intn(2),
			Receiver: rng.Intn(receivers),
			Critical: rng.Intn(3) == 0,
		})
	}
	return tr
}

func TestSweepMatchesLegacyRandom(t *testing.T) {
	for _, receivers := range []int{1, 2, 3, 5, 8, 17, 33, 64, 65, 70, 100} {
		rng := rand.New(rand.NewSource(int64(receivers)))
		events := 40 + receivers*8
		for trial := 0; trial < 6; trial++ {
			horizon := int64(64 + rng.Intn(4000))
			tr := randomSweepTrace(rng, receivers, events, horizon)
			for _, ws := range []int64{1, 7, horizon / 3, horizon, horizon + 13} {
				if ws <= 0 {
					continue
				}
				sweep, err := AnalyzeCtx(context.Background(), tr, ws)
				if err != nil {
					t.Fatalf("sweep R=%d ws=%d: %v", receivers, ws, err)
				}
				legacy, err := AnalyzeLegacy(tr, ws)
				if err != nil {
					t.Fatalf("legacy R=%d ws=%d: %v", receivers, ws, err)
				}
				mustEqualAnalyses(t, "R="+itoa(receivers)+" ws="+itoa(int(ws)), sweep, legacy)
			}
		}
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [24]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

// TestSweepMatchesLegacyAdversarial pins the crafted edge cases the
// sweep kernel's invariants depend on: coincident endpoints, intervals
// ending exactly on window boundaries, back-to-back coverage of one
// receiver, nested and extending events, and all receivers active at
// once.
func TestSweepMatchesLegacyAdversarial(t *testing.T) {
	cases := []struct {
		name string
		tr   *Trace
		ws   int64
	}{
		{
			name: "coincident endpoints",
			tr: &Trace{NumReceivers: 4, NumSenders: 1, Horizon: 100, Events: []Event{
				{Start: 10, Len: 20, Receiver: 0},
				{Start: 10, Len: 20, Receiver: 1, Critical: true},
				{Start: 10, Len: 20, Receiver: 2},
				{Start: 30, Len: 10, Receiver: 3}, // starts exactly where the others end
			}},
			ws: 25,
		},
		{
			name: "window-aligned ends",
			tr: &Trace{NumReceivers: 3, NumSenders: 1, Horizon: 120, Events: []Event{
				{Start: 0, Len: 30, Receiver: 0},  // ends at boundary 30
				{Start: 30, Len: 30, Receiver: 0}, // adjacent: coverage merges across boundary
				{Start: 29, Len: 31, Receiver: 1}, // ends at boundary 60
				{Start: 60, Len: 60, Receiver: 2, Critical: true},
			}},
			ws: 30,
		},
		{
			name: "all receivers active",
			tr: func() *Trace {
				tr := &Trace{NumReceivers: 16, NumSenders: 1, Horizon: 64}
				for r := 0; r < 16; r++ {
					tr.Events = append(tr.Events, Event{Start: 0, Len: 64, Receiver: r, Critical: r%2 == 0})
				}
				return tr
			}(),
			ws: 16,
		},
		{
			name: "nested and extending coverage",
			tr: &Trace{NumReceivers: 2, NumSenders: 1, Horizon: 200, Events: []Event{
				{Start: 10, Len: 100, Receiver: 0},
				{Start: 20, Len: 10, Receiver: 0},  // nested, subsumed
				{Start: 50, Len: 120, Receiver: 0}, // extends the same coverage
				{Start: 40, Len: 30, Receiver: 1, Critical: true},
				{Start: 90, Len: 50, Receiver: 1}, // gap then new coverage
			}},
			ws: 33,
		},
		{
			name: "single window spans everything",
			tr: &Trace{NumReceivers: 3, NumSenders: 1, Horizon: 50, Events: []Event{
				{Start: 0, Len: 50, Receiver: 0},
				{Start: 0, Len: 50, Receiver: 1},
				{Start: 49, Len: 1, Receiver: 2},
			}},
			ws: 50,
		},
		{
			name: "short tail window",
			tr: &Trace{NumReceivers: 2, NumSenders: 1, Horizon: 101, Events: []Event{
				{Start: 95, Len: 6, Receiver: 0},
				{Start: 99, Len: 2, Receiver: 1, Critical: true},
			}},
			ws: 20, // last window is [100,101)
		},
		{
			name: "multi-word bitset fallback",
			tr: func() *Trace {
				tr := &Trace{NumReceivers: 70, NumSenders: 1, Horizon: 256}
				for r := 0; r < 70; r++ {
					tr.Events = append(tr.Events, Event{Start: int64(r), Len: int64(1 + r%40), Receiver: r, Critical: r%3 == 0})
				}
				return tr
			}(),
			ws: 32,
		},
		{
			name: "empty trace",
			tr:   &Trace{NumReceivers: 4, NumSenders: 1, Horizon: 40},
			ws:   10,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sweep, err := AnalyzeCtx(context.Background(), tc.tr, tc.ws)
			if err != nil {
				t.Fatalf("sweep: %v", err)
			}
			legacy, err := AnalyzeLegacy(tc.tr, tc.ws)
			if err != nil {
				t.Fatalf("legacy: %v", err)
			}
			mustEqualAnalyses(t, tc.name, sweep, legacy)
		})
	}
}

// TestSweepExplicitBoundaries exercises the variable-window path with
// irregular edges on both kernels.
func TestSweepExplicitBoundaries(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	tr := randomSweepTrace(rng, 9, 200, 500)
	boundaries := []int64{0, 1, 17, 18, 100, 499, 500}
	sweep, err := AnalyzeWithBoundariesCtx(context.Background(), tr, boundaries)
	if err != nil {
		t.Fatal(err)
	}
	legacy, err := AnalyzeLegacyWithBoundariesCtx(context.Background(), tr, boundaries)
	if err != nil {
		t.Fatal(err)
	}
	mustEqualAnalyses(t, "explicit boundaries", sweep, legacy)
}

func TestSortEventsByStart(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{0, 1, 2, 5, 4095, 4096, 9000} {
		events := make([]Event, n)
		for i := range events {
			events[i] = Event{Start: rng.Int63n(1 << 40), Len: int64(i + 1), Receiver: i}
		}
		got := sortEventsByStart(events)
		if len(got) != n {
			t.Fatalf("n=%d: sorted length %d", n, len(got))
		}
		for i := 1; i < n; i++ {
			if got[i-1].Start > got[i].Start {
				t.Fatalf("n=%d: out of order at %d: %d > %d", n, i, got[i-1].Start, got[i].Start)
			}
		}
	}
	// All-zero starts must not loop or reorder lengths arbitrarily.
	zeros := make([]Event, 5000)
	for i := range zeros {
		zeros[i] = Event{Len: int64(i + 1)}
	}
	if got := sortEventsByStart(zeros); len(got) != 5000 {
		t.Fatal("zero-start sort lost events")
	}
}

func encodeTrace(t *testing.T, tr *Trace) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteBinary(&buf, tr); err != nil {
		t.Fatalf("WriteBinary: %v", err)
	}
	return buf.Bytes()
}

func sortedCopy(tr *Trace) *Trace {
	out := *tr
	out.Events = sortEventsByStart(tr.Events)
	return &out
}

// TestV1ImageMatchesAnalyze runs the image driver over v1 images of
// start-sorted random traces at one and two shards.
func TestV1ImageMatchesAnalyze(t *testing.T) {
	rng := rand.New(rand.NewSource(1234))
	for trial := 0; trial < 8; trial++ {
		receivers := 1 + rng.Intn(70)
		tr := sortedCopy(randomSweepTrace(rng, receivers, 300, int64(200+rng.Intn(2000))))
		ws := int64(1 + rng.Intn(int(tr.Horizon)))
		want, err := AnalyzeCtx(context.Background(), tr, ws)
		if err != nil {
			t.Fatal(err)
		}
		for _, shards := range []int{1, 2} {
			got, err := AnalyzeBytesSharded(context.Background(), encodeTrace(t, tr), ws, shards, nil)
			if err != nil {
				t.Fatalf("v1 image, %d shards: %v", shards, err)
			}
			mustEqualAnalyses(t, "v1 trial "+itoa(trial)+"/sh"+itoa(shards), got, want)
		}
	}
}

// TestAnalyzeReaderErrors keeps the name of the streaming reader whose
// error contract it first pinned; its cases run the image driver
// (AnalyzeBytesSharded) at one and two shards, which must agree.
func TestAnalyzeReaderErrors(t *testing.T) {
	tr := &Trace{NumReceivers: 2, NumSenders: 1, Horizon: 100, Events: []Event{
		{Start: 10, Len: 5, Receiver: 0},
		{Start: 20, Len: 5, Receiver: 1},
	}}
	good := encodeTrace(t, tr)
	ctx := context.Background()
	mustFail := func(t *testing.T, ctx context.Context, data []byte, ws int64, want string) {
		t.Helper()
		var first error
		for _, shards := range []int{1, 2} {
			_, err := AnalyzeBytesSharded(ctx, data, ws, shards, nil)
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("%d shards: err = %v, want %q", shards, err, want)
			}
			if first == nil {
				first = err
			} else if err.Error() != first.Error() {
				t.Fatalf("2 shards: err = %v, 1 shard: %v", err, first)
			}
		}
	}

	t.Run("bad magic", func(t *testing.T) {
		bad := append([]byte{}, good...)
		bad[0] = 'X'
		mustFail(t, ctx, bad, 10, "magic")
	})
	t.Run("truncated event", func(t *testing.T) {
		mustFail(t, ctx, good[:len(good)-3], 10, "v1 image is 47 event bytes, header declares 2 events (50 bytes)")
	})
	t.Run("bad window size", func(t *testing.T) {
		mustFail(t, ctx, good, 0, "window size")
	})
	t.Run("unsorted stream", func(t *testing.T) {
		// An unordered v1 image is accepted: the in-memory fallback
		// sorts it.
		rev := *tr
		rev.Events = []Event{tr.Events[1], tr.Events[0]}
		want, err := AnalyzeCtx(ctx, tr, 10)
		if err != nil {
			t.Fatal(err)
		}
		for _, shards := range []int{1, 2} {
			got, err := AnalyzeBytesSharded(ctx, encodeTrace(t, &rev), 10, shards, nil)
			if err != nil {
				t.Fatalf("%d shards: %v", shards, err)
			}
			mustEqualAnalyses(t, "unsorted/sh"+itoa(shards), got, want)
		}
	})
	t.Run("receiver out of range", func(t *testing.T) {
		bad := *tr
		bad.Events = []Event{{Start: 10, Len: 5, Receiver: 0}}
		raw := encodeTrace(t, &bad)
		// Patch the receiver field (offset 20 within the 25-byte record)
		// of the only event, which lives at the end of the buffer.
		binary.LittleEndian.PutUint32(raw[len(raw)-5:], 7)
		mustFail(t, ctx, raw, 10, "trace: event 0 receiver 7 out of range [0,2)")
	})
	t.Run("canceled", func(t *testing.T) {
		cctx, cancel := context.WithCancel(ctx)
		cancel()
		mustFail(t, cctx, good, 10, "canceled")
	})
	t.Run("hostile receiver count", func(t *testing.T) {
		raw := append([]byte{}, good...)
		binary.LittleEndian.PutUint32(raw[8:], 1<<19) // numReceivers field
		mustFail(t, ctx, raw, 10, "streaming-analysis limit")
	})
}

// syntheticImage builds a valid v1 image of numEvents records without
// a Trace: event i starts at cycle i/4 (nondecreasing, coincident in
// groups of four), lasts 1+i%13 cycles, goes to receiver i mod
// receivers, and every eighth is critical. The horizon is
// numEvents/4+64.
func syntheticImage(receivers int, numEvents uint64) []byte {
	data := make([]byte, HeaderSize, HeaderSize+numEvents*binaryEventSize)
	copy(data, binaryMagic[:])
	binary.LittleEndian.PutUint32(data[4:], binaryVersion)
	binary.LittleEndian.PutUint32(data[8:], uint32(receivers))
	binary.LittleEndian.PutUint32(data[12:], 1)
	binary.LittleEndian.PutUint64(data[16:], numEvents/4+64)
	binary.LittleEndian.PutUint64(data[24:], numEvents)
	var rec [binaryEventSize]byte
	for i := uint64(0); i < numEvents; i++ {
		binary.LittleEndian.PutUint64(rec[0:], i/4)
		binary.LittleEndian.PutUint64(rec[8:], 1+i%13)
		binary.LittleEndian.PutUint32(rec[20:], uint32(i%uint64(receivers)))
		rec[24] = 0
		if i%8 == 0 {
			rec[24] = 1
		}
		data = append(data, rec[:]...)
	}
	return data
}

// TestAnalyzeBytesShardedMemoryBounded analyzes a 2M-event v1 image
// (≈50 MB; ≈96 MB as a materialized []Event) at one shard and asserts
// that the analysis allocates tens of times less than that, the image
// itself excluded: peak state is the block index, the output tables
// and the O(R) frontier, independent of the event count.
func TestAnalyzeBytesShardedMemoryBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("analyzes 2M events")
	}
	const numEvents = 2_000_000
	data := syntheticImage(8, numEvents)

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	a, err := AnalyzeBytesSharded(context.Background(), data, (int64(numEvents)/4+64)/64, 1, nil)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if got := CellAt(a.Comm, 0, 0); got <= 0 {
		t.Fatal("analysis came back empty")
	}
	allocated := after.TotalAlloc - before.TotalAlloc
	const limit = 8 << 20
	if allocated > limit {
		t.Errorf("one-shard image analysis allocated %d bytes for %d events, want < %d (event-count independent)", allocated, numEvents, limit)
	}

	// A smaller image of the same shape, materialized, must agree
	// bit-for-bit.
	small := syntheticImage(8, 50_000)
	tr, err := ReadBinary(bytes.NewReader(small))
	if err != nil {
		t.Fatal(err)
	}
	want, err := AnalyzeCtx(context.Background(), tr, 128)
	if err != nil {
		t.Fatal(err)
	}
	got, err := AnalyzeBytesSharded(context.Background(), small, 128, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	mustEqualAnalyses(t, "synthetic image vs materialized", got, want)
}

func TestMaxWindowLoadMemoized(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	tr := randomSweepTrace(rng, 6, 300, 1000)
	a, err := AnalyzeCtx(context.Background(), tr, 100)
	if err != nil {
		t.Fatal(err)
	}
	legacy, err := AnalyzeLegacy(tr, 100)
	if err != nil {
		t.Fatal(err)
	}
	want := legacy.MaxWindowLoad()
	if got := a.MaxWindowLoad(); got != want {
		t.Fatalf("MaxWindowLoad = %d, legacy %d", got, want)
	}
	if got := a.MaxWindowLoad(); got != want {
		t.Fatalf("memoized MaxWindowLoad = %d, want %d", got, want)
	}
	if a.mwl.Load() != int64(want) {
		t.Fatal("MaxWindowLoad not memoized")
	}
}

func benchTrace(receivers, events int) *Trace {
	rng := rand.New(rand.NewSource(42))
	tr := &Trace{NumReceivers: receivers, NumSenders: 1}
	for k := 0; k < events; k++ {
		start := int64(k / 4 * 28)
		tr.Events = append(tr.Events, Event{
			Start:    start,
			Len:      int64(9 + rng.Intn(24)),
			Receiver: k % receivers,
			Critical: k%8 == 0,
		})
	}
	tr.Horizon = tr.Events[len(tr.Events)-1].Start + 64
	return tr
}

// benchWindow is a fixed 500-cycle contention window: a few bursts
// wide, so per-window overlap is meaningful for bus binding.
const benchWindow = 500

func BenchmarkAnalyzeSweep(b *testing.B) {
	tr := benchTrace(32, 100_000)
	ws := int64(benchWindow)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := AnalyzeCtx(context.Background(), tr, ws); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAnalyzeLegacy(b *testing.B) {
	tr := benchTrace(32, 100_000)
	ws := int64(benchWindow)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := AnalyzeLegacy(tr, ws); err != nil {
			b.Fatal(err)
		}
	}
}
