package trace

import (
	"bytes"
	"context"
	"encoding/binary"
	"io"
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

func TestAnalyzeReaderMatchesAnalyze(t *testing.T) {
	rng := rand.New(rand.NewSource(1234))
	for trial := 0; trial < 8; trial++ {
		receivers := 1 + rng.Intn(70)
		tr := sortedCopy(randomSweepTrace(rng, receivers, 300, int64(200+rng.Intn(2000))))
		ws := int64(1 + rng.Intn(int(tr.Horizon)))
		want, err := AnalyzeCtx(context.Background(), tr, ws)
		if err != nil {
			t.Fatal(err)
		}
		got, err := AnalyzeReader(context.Background(), bytes.NewReader(encodeTrace(t, tr)), ws)
		if err != nil {
			t.Fatalf("AnalyzeReader: %v", err)
		}
		mustEqualAnalyses(t, "stream trial "+itoa(trial), got, want)
	}
}

func TestAnalyzeReaderErrors(t *testing.T) {
	tr := &Trace{NumReceivers: 2, NumSenders: 1, Horizon: 100, Events: []Event{
		{Start: 10, Len: 5, Receiver: 0},
		{Start: 20, Len: 5, Receiver: 1},
	}}
	good := encodeTrace(t, tr)
	ctx := context.Background()

	t.Run("bad magic", func(t *testing.T) {
		bad := append([]byte{}, good...)
		bad[0] = 'X'
		if _, err := AnalyzeReader(ctx, bytes.NewReader(bad), 10); err == nil || !strings.Contains(err.Error(), "magic") {
			t.Fatalf("err = %v, want bad magic", err)
		}
	})
	t.Run("truncated event", func(t *testing.T) {
		if _, err := AnalyzeReader(ctx, bytes.NewReader(good[:len(good)-3]), 10); err == nil || !strings.Contains(err.Error(), "reading event") {
			t.Fatalf("err = %v, want truncated read", err)
		}
	})
	t.Run("bad window size", func(t *testing.T) {
		if _, err := AnalyzeReader(ctx, bytes.NewReader(good), 0); err == nil || !strings.Contains(err.Error(), "window size") {
			t.Fatalf("err = %v, want window size error", err)
		}
	})
	t.Run("unsorted stream", func(t *testing.T) {
		rev := *tr
		rev.Events = []Event{tr.Events[1], tr.Events[0]}
		if _, err := AnalyzeReader(ctx, bytes.NewReader(encodeTrace(t, &rev)), 10); err == nil || !strings.Contains(err.Error(), "start-ordered") {
			t.Fatalf("err = %v, want start-order error", err)
		}
	})
	t.Run("receiver out of range", func(t *testing.T) {
		bad := *tr
		bad.Events = []Event{{Start: 10, Len: 5, Receiver: 0}}
		raw := encodeTrace(t, &bad)
		// Patch the receiver field (offset 20 within the 25-byte record)
		// of the only event, which lives at the end of the buffer.
		binary.LittleEndian.PutUint32(raw[len(raw)-5:], 7)
		if _, err := AnalyzeReader(ctx, bytes.NewReader(raw), 10); err == nil || !strings.Contains(err.Error(), "receiver") {
			t.Fatalf("err = %v, want receiver range error", err)
		}
	})
	t.Run("canceled", func(t *testing.T) {
		cctx, cancel := context.WithCancel(ctx)
		cancel()
		if _, err := AnalyzeReader(cctx, bytes.NewReader(good), 10); err == nil || !strings.Contains(err.Error(), "canceled") {
			t.Fatalf("err = %v, want cancellation", err)
		}
	})
	t.Run("hostile receiver count", func(t *testing.T) {
		raw := append([]byte{}, good...)
		binary.LittleEndian.PutUint32(raw[8:], 1<<19) // numReceivers field
		if _, err := AnalyzeReader(ctx, bytes.NewReader(raw), 10); err == nil || !strings.Contains(err.Error(), "streaming-analysis limit") {
			t.Fatalf("err = %v, want streaming receiver limit", err)
		}
	})
}

// syntheticStream serves a valid binary trace of the requested size
// record by record, never materializing it: the memory-boundedness test
// below streams millions of events from it while asserting the analyzer
// allocates nothing proportional to the event count.
type syntheticStream struct {
	pending   []byte
	rec       [binaryEventSize]byte
	emitted   uint64
	numEvents uint64
	receivers int
	horizon   int64
}

func newSyntheticStream(receivers int, numEvents uint64) *syntheticStream {
	s := &syntheticStream{
		numEvents: numEvents,
		receivers: receivers,
		horizon:   int64(numEvents/4) + 64,
	}
	var hdr bytes.Buffer
	hdr.Write(binaryMagic[:])
	for _, v := range []any{uint32(binaryVersion), uint32(receivers), uint32(1), uint64(s.horizon), numEvents} {
		binary.Write(&hdr, binary.LittleEndian, v)
	}
	s.pending = hdr.Bytes()
	return s
}

// record fills the reusable record buffer for event i, which starts at
// cycle i/4 (nondecreasing, coincident in groups of four). Reusing the
// buffer keeps the stream itself allocation-free so the test's memory
// accounting sees only the analyzer.
func (s *syntheticStream) record(i uint64) {
	binary.LittleEndian.PutUint64(s.rec[0:], i/4)
	binary.LittleEndian.PutUint64(s.rec[8:], uint64(1+i%13))
	binary.LittleEndian.PutUint32(s.rec[16:], 0)
	binary.LittleEndian.PutUint32(s.rec[20:], uint32(i)%uint32(s.receivers))
	s.rec[24] = 0
	if i%8 == 0 {
		s.rec[24] = 1
	}
}

func (s *syntheticStream) Read(p []byte) (int, error) {
	n := 0
	for n < len(p) {
		if len(s.pending) == 0 {
			if s.emitted == s.numEvents {
				if n == 0 {
					return 0, io.EOF
				}
				return n, nil
			}
			s.record(s.emitted)
			s.emitted++
			s.pending = s.rec[:]
		}
		c := copy(p[n:], s.pending)
		s.pending = s.pending[c:]
		n += c
	}
	return n, nil
}

// TestAnalyzeReaderMemoryBounded streams 2M events (≈50 MB on the wire,
// ≈96 MB as a materialized []Event) and asserts the analyzer's total
// allocation stays tens of times below that: peak state is the output
// tables plus the O(R) frontier, independent of the event count.
func TestAnalyzeReaderMemoryBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("streams 2M events")
	}
	const numEvents = 2_000_000
	src := newSyntheticStream(8, numEvents)

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	a, err := AnalyzeReader(context.Background(), src, (int64(numEvents)/4+64)/64)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if got := a.Comm.At(0, 0); got <= 0 {
		t.Fatal("analysis came back empty")
	}
	allocated := after.TotalAlloc - before.TotalAlloc
	const limit = 8 << 20
	if allocated > limit {
		t.Errorf("streaming analysis allocated %d bytes for %d events, want < %d (event-count independent)", allocated, numEvents, limit)
	}

	// Same stream materialized must agree bit-for-bit.
	small := newSyntheticStream(8, 50_000)
	tr, err := ReadBinary(small)
	if err != nil {
		t.Fatal(err)
	}
	want, err := AnalyzeCtx(context.Background(), tr, 128)
	if err != nil {
		t.Fatal(err)
	}
	got, err := AnalyzeReader(context.Background(), newSyntheticStream(8, 50_000), 128)
	if err != nil {
		t.Fatal(err)
	}
	mustEqualAnalyses(t, "synthetic stream vs materialized", got, want)
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
