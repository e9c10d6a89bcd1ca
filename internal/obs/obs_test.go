package obs

import (
	"context"
	"io"
	"maps"
	"slices"
	"sync"
	"testing"
	"time"
)

func TestSpanNestingAndAttributes(t *testing.T) {
	r, advance := fakeFlightRecorder(64)
	ctx := WithFlightRecorder(context.Background(), r)

	ctx1, root := Start(ctx, "root")
	root.SetStr("app", "mat2")
	advance(10 * time.Millisecond)

	_, child := Start(ctx1, "child")
	child.SetInt("buses", 3)
	child.SetBool("feasible", true)
	advance(5 * time.Millisecond)
	child.End()

	advance(5 * time.Millisecond)
	root.End()

	// The ring holds the spans as events, in emission order.
	var kinds []EventKind
	for _, e := range r.Events() {
		kinds = append(kinds, e.Kind)
	}
	wantKinds := []EventKind{EvSpanBegin, EvSpanAttr, EvSpanBegin, EvSpanAttr, EvSpanAttr, EvSpanEnd, EvSpanEnd}
	if !slices.Equal(kinds, wantKinds) {
		t.Fatalf("event kinds = %v, want %v", kinds, wantKinds)
	}

	spans, _ := chromeSpans(r.Events())
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	// Start order: root first.
	rt, c := spans[0], spans[1]
	if rt.name != "root" || c.name != "child" {
		t.Fatalf("span order = %q, %q; want root, child", rt.name, c.name)
	}
	if c.parent != rt.id {
		t.Errorf("child parent = %d, want root ID %d", c.parent, rt.id)
	}
	if rt.parent != 0 {
		t.Errorf("root parent = %d, want 0", rt.parent)
	}
	if ms := int64(time.Millisecond); c.start != 10*ms || c.end != 15*ms {
		t.Errorf("child interval = [%d, %d), want [10ms, 15ms)", c.start, c.end)
	}
	if rt.start != 0 || rt.end != int64(20*time.Millisecond) {
		t.Errorf("root interval = [%d, %d), want [0, 20ms)", rt.start, rt.end)
	}
	want := map[string]any{"buses": int64(3), "feasible": true}
	if !maps.Equal(c.args, want) {
		t.Errorf("child args = %v, want %v", c.args, want)
	}
	if want := map[string]any{"app": "mat2"}; !maps.Equal(rt.args, want) {
		t.Errorf("root args = %v, want %v", rt.args, want)
	}
}

func TestStartWithoutRecorder(t *testing.T) {
	ctx := context.Background()
	ctx2, s := Start(ctx, "ignored")
	if ctx2 != ctx {
		t.Error("Start without recorder should return the input context")
	}
	if s != nil {
		t.Fatal("Start without recorder should return a nil span")
	}
	// Nil-span methods must be safe no-ops.
	s.SetInt("k", 1)
	s.SetStr("k", "v")
	s.SetBool("k", true)
	s.SetError(io.EOF)
	s.End()
}

func TestSpanEndIdempotent(t *testing.T) {
	r := NewFlightRecorder(16)
	_, s := Start(WithFlightRecorder(context.Background(), r), "once")
	s.End()
	s.End()
	ends := 0
	for _, e := range r.Events() {
		if e.Kind == EvSpanEnd {
			ends++
		}
	}
	if ends != 1 {
		t.Errorf("double End recorded %d span ends, want 1", ends)
	}
}

// TestSpanIDsUniqueAcrossRecorders: span IDs come from one process-wide
// counter, so rings forwarded into one (a daemon's jobs into its global
// recorder) never merge two spans.
func TestSpanIDsUniqueAcrossRecorders(t *testing.T) {
	a, b := NewFlightRecorder(64), NewFlightRecorder(64)
	ctxA := WithFlightRecorder(context.Background(), a)
	ctxB := WithFlightRecorder(context.Background(), b)
	var wg sync.WaitGroup
	for _, ctx := range []context.Context{ctxA, ctxB} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				_, s := Start(ctx, "span")
				s.End()
			}
		}()
	}
	wg.Wait()
	seen := map[int64]bool{}
	for _, r := range []*FlightRecorder{a, b} {
		for _, e := range r.Events() {
			if e.Kind != EvSpanBegin {
				continue
			}
			if seen[e.Val] {
				t.Fatalf("span ID %d recorded twice", e.Val)
			}
			seen[e.Val] = true
		}
	}
	if len(seen) != 20 {
		t.Errorf("recorded %d spans, want 20", len(seen))
	}
}

// Metrics used across the metric tests; registered once since the
// registry rejects duplicate names.
var (
	testCounter = NewCounter("test.counter")
	testGauge   = NewGauge("test.gauge")
	testHist    = NewHistogram("test.hist")
)

func TestConcurrentMetrics(t *testing.T) {
	const workers, perWorker = 8, 10_000
	// Deltas, not absolutes: other tests in the package share these
	// process-global metrics.
	c0, g0, h0 := testCounter.Value(), testGauge.Value(), testHist.Count()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				testCounter.Inc()
				testGauge.Add(1)
				testGauge.Add(-1)
				testHist.Observe(int64(i % 100))
			}
		}()
	}
	wg.Wait()
	if got := testCounter.Value() - c0; got != workers*perWorker {
		t.Errorf("counter delta = %d, want %d", got, workers*perWorker)
	}
	if got := testGauge.Value() - g0; got != 0 {
		t.Errorf("gauge delta = %d, want 0 after balanced adds", got)
	}
	if got := testHist.Count() - h0; got != workers*perWorker {
		t.Errorf("histogram count delta = %d, want %d", got, workers*perWorker)
	}
}

// TestHistogramSnapshotBuckets pins the power-of-two bucketing the
// Prometheus exposition serves: each sample lands in the bucket whose
// inclusive upper edge is the next 2^i - 1, and a snapshot's count is
// the sum of the buckets it read.
func TestHistogramSnapshotBuckets(t *testing.T) {
	var h Histogram
	for _, v := range []int64{0, 1, 2, 3, 1000} {
		h.Observe(v)
	}
	if h.Count() != 5 || h.Sum() != 1006 {
		t.Errorf("count/sum = %d/%d, want 5/1006", h.Count(), h.Sum())
	}
	snap := h.Snapshot()
	want := []HistogramBucket{{Le: 0, N: 1}, {Le: 1, N: 1}, {Le: 3, N: 2}, {Le: 1023, N: 1}}
	if len(snap.Buckets) != len(want) {
		t.Fatalf("buckets = %+v, want %+v", snap.Buckets, want)
	}
	var sum int64
	for i, b := range snap.Buckets {
		if b != want[i] {
			t.Errorf("bucket %d = %+v, want %+v", i, b, want[i])
		}
		sum += b.N
	}
	if snap.Count != 5 || sum != snap.Count || snap.Sum != 1006 {
		t.Errorf("snapshot count/sum = %d/%d, buckets sum to %d", snap.Count, snap.Sum, sum)
	}
	if empty := (&Histogram{}).Snapshot(); empty.Count != 0 || empty.Buckets != nil {
		t.Errorf("empty histogram snapshot = %+v", empty)
	}
}

// TestDisabledPathAllocationFree is the overhead guarantee: with no
// recorder in the context, the full span API and the metric updates must
// not allocate at all.
func TestDisabledPathAllocationFree(t *testing.T) {
	ctx := context.Background()
	if n := testing.AllocsPerRun(1000, func() {
		ctx2, s := Start(ctx, "disabled")
		s.SetInt("k", 1)
		s.SetStr("k", "v")
		s.SetBool("k", true)
		s.SetError(io.EOF)
		s.End()
		_ = ctx2
	}); n != 0 {
		t.Errorf("disabled Start path allocates %.1f per op, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() {
		testCounter.Add(1)
		testGauge.Set(5)
		testHist.Observe(7)
	}); n != 0 {
		t.Errorf("metric updates allocate %.1f per op, want 0", n)
	}
}

func BenchmarkStartDisabled(b *testing.B) {
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, s := Start(ctx, "bench")
		s.SetInt("k", int64(i))
		s.End()
	}
}

func BenchmarkCounterAdd(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		testCounter.Add(1)
	}
}

// TestSpanSetError pins the error-annotation contract: nil errors and
// nil spans are no-ops, real errors mark the span failed and attach the
// error text.
func TestSpanSetError(t *testing.T) {
	r, _ := fakeFlightRecorder(16) // a still clock: spans order by ID
	ctx := WithFlightRecorder(context.Background(), r)

	_, ok := Start(ctx, "ok")
	ok.SetError(nil)
	ok.End()
	_, bad := Start(ctx, "bad")
	bad.SetError(io.ErrUnexpectedEOF)
	bad.End()
	var nilSpan *Span
	nilSpan.SetError(io.ErrUnexpectedEOF) // must not panic

	spans, _ := chromeSpans(r.Events())
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	if a := spans[0].args; len(a) != 0 {
		t.Errorf("nil error annotated the span: %v", a)
	}
	a := spans[1].args
	if a["error"] != true || a["error_msg"] != io.ErrUnexpectedEOF.Error() {
		t.Errorf("error attributes = %v", a)
	}
}
