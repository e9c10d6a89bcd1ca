package obs

import (
	"context"
	"io"
	"sync"
	"testing"
	"time"
)

// fakeTracer returns a tracer driven by a manual clock starting at
// epoch; advance moves the clock forward.
func fakeTracer() (tr *Tracer, advance func(d time.Duration)) {
	now := time.Unix(1000, 0)
	tr = &Tracer{now: func() time.Time { return now }}
	tr.epoch = now
	return tr, func(d time.Duration) { now = now.Add(d) }
}

func TestSpanNestingAndAttributes(t *testing.T) {
	tr, advance := fakeTracer()
	ctx := WithTracer(context.Background(), tr)

	ctx1, root := Start(ctx, "root")
	root.SetStr("app", "mat2")
	advance(10 * time.Millisecond)

	ctx2, child := Start(ctx1, "child")
	child.SetInt("buses", 3)
	child.SetBool("feasible", true)
	child.SetFloat("threshold", 0.3)
	advance(5 * time.Millisecond)
	child.End()

	if got := SpanFrom(ctx2); got != child {
		t.Errorf("SpanFrom(child ctx) = %v, want the child span", got)
	}
	if got := SpanFrom(ctx1); got != root {
		t.Errorf("SpanFrom(root ctx) = %v, want the root span", got)
	}

	advance(5 * time.Millisecond)
	root.End()

	spans := tr.Spans()
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	// Completion order: child first.
	c, r := spans[0], spans[1]
	if c.Name != "child" || r.Name != "root" {
		t.Fatalf("span order = %q, %q; want child, root", c.Name, r.Name)
	}
	if c.Parent != r.ID {
		t.Errorf("child.Parent = %d, want root ID %d", c.Parent, r.ID)
	}
	if r.Parent != 0 {
		t.Errorf("root.Parent = %d, want 0", r.Parent)
	}
	if c.Start != 10*time.Millisecond || c.Dur != 5*time.Millisecond {
		t.Errorf("child interval = (%v, %v), want (10ms, 5ms)", c.Start, c.Dur)
	}
	if r.Start != 0 || r.Dur != 20*time.Millisecond {
		t.Errorf("root interval = (%v, %v), want (0, 20ms)", r.Start, r.Dur)
	}
	want := map[string]any{"buses": int64(3), "feasible": true, "threshold": 0.3}
	got := map[string]any{}
	for _, a := range c.Attrs {
		got[a.Key] = a.Value()
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("child attr %s = %v, want %v", k, got[k], v)
		}
	}
}

func TestStartWithoutTracer(t *testing.T) {
	ctx := context.Background()
	ctx2, s := Start(ctx, "ignored")
	if ctx2 != ctx {
		t.Error("Start without tracer should return the input context")
	}
	if s != nil {
		t.Fatal("Start without tracer should return a nil span")
	}
	// Nil-span methods must be safe no-ops.
	s.SetInt("k", 1)
	s.SetStr("k", "v")
	s.SetBool("k", true)
	s.SetFloat("k", 1.5)
	s.End()
	if got := TracerFrom(ctx); got != nil {
		t.Errorf("TracerFrom(background) = %v, want nil", got)
	}
}

func TestStartDetached(t *testing.T) {
	if s := StartDetached(nil, nil, "x"); s != nil {
		t.Fatal("StartDetached(nil tracer) should return nil")
	}
	tr, advance := fakeTracer()
	parent := StartDetached(tr, nil, "parent")
	child := StartDetached(tr, parent, "child")
	advance(time.Millisecond)
	child.End()
	parent.End()
	spans := tr.Spans()
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	if spans[0].Parent != spans[1].ID {
		t.Errorf("detached child parent = %d, want %d", spans[0].Parent, spans[1].ID)
	}
}

func TestSpanEndIdempotent(t *testing.T) {
	tr, _ := fakeTracer()
	_, s := Start(WithTracer(context.Background(), tr), "once")
	s.End()
	s.End()
	if got := len(tr.Spans()); got != 1 {
		t.Errorf("double End recorded %d spans, want 1", got)
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
// tracer in the context, the full span API and the metric updates must
// not allocate at all.
func TestDisabledPathAllocationFree(t *testing.T) {
	ctx := context.Background()
	if n := testing.AllocsPerRun(1000, func() {
		ctx2, s := Start(ctx, "disabled")
		s.SetInt("k", 1)
		s.SetStr("k", "v")
		s.SetBool("k", true)
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
	if n := testing.AllocsPerRun(1000, func() {
		_ = StartDetached(nil, nil, "disabled")
	}); n != 0 {
		t.Errorf("disabled StartDetached allocates %.1f per op, want 0", n)
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
// nil spans are no-ops, real errors attach the error flag and text.
func TestSpanSetError(t *testing.T) {
	tr, _ := fakeTracer()
	ctx := WithTracer(context.Background(), tr)

	_, ok := Start(ctx, "ok")
	ok.SetError(nil)
	ok.End()
	_, bad := Start(ctx, "bad")
	bad.SetError(io.ErrUnexpectedEOF)
	bad.End()
	var nilSpan *Span
	nilSpan.SetError(io.ErrUnexpectedEOF) // must not panic

	spans := tr.Spans()
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	attrs := func(s SpanRecord) map[string]any {
		m := map[string]any{}
		for _, a := range s.Attrs {
			m[a.Key] = a.Value()
		}
		return m
	}
	if a := attrs(spans[0]); len(a) != 0 {
		t.Errorf("nil error annotated the span: %v", a)
	}
	a := attrs(spans[1])
	if a["error"] != true || a["error_msg"] != io.ErrUnexpectedEOF.Error() {
		t.Errorf("error attributes = %v", a)
	}
}
