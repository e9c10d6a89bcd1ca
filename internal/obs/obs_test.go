package obs

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
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
	testCounter  = NewCounter("test.counter")
	testGauge    = NewGauge("test.gauge")
	testHist     = NewHistogram("test.hist")
	testProgress = NewCounter("test.progress")
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

func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	for _, v := range []int64{0, 1, 2, 3, 1000} {
		h.Observe(v)
	}
	if h.Count() != 5 || h.Sum() != 1006 {
		t.Errorf("count/sum = %d/%d, want 5/1006", h.Count(), h.Sum())
	}
	// p50 falls in the bucket of 2..3 → inclusive upper edge 3.
	if got := h.Quantile(0.5); got != 3 {
		t.Errorf("p50 = %d, want 3", got)
	}
	// p99 falls in the bucket of 1000 (512..1023) → inclusive edge 1023.
	if got := h.Quantile(0.99); got != 1023 {
		t.Errorf("p99 = %d, want 1023", got)
	}
	if got := (&Histogram{}).Quantile(0.5); got != 0 {
		t.Errorf("empty histogram p50 = %d, want 0", got)
	}
}

func TestSnapshotContainsRegisteredMetrics(t *testing.T) {
	testCounter.Add(0) // ensure registered
	snap := Snapshot()
	if _, ok := snap["test.counter"].(int64); !ok {
		t.Errorf("snapshot missing test.counter: %v", snap["test.counter"])
	}
	hv, ok := snap["test.hist"].(HistogramSnapshot)
	if !ok {
		t.Fatalf("snapshot test.hist = %T, want HistogramSnapshot", snap["test.hist"])
	}
	if hv.Count > 0 {
		var sum int64
		for _, b := range hv.Buckets {
			sum += b.N
		}
		if sum != hv.Count {
			t.Errorf("snapshot buckets sum to %d, count is %d", sum, hv.Count)
		}
	}
}

func TestServeTelemetryJSONEndpoints(t *testing.T) {
	bound, _, shutdown, err := ServeTelemetry("127.0.0.1:0", TelemetryConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown() //nolint:errcheck

	for _, path := range []string{"/debug/vars", "/progress"} {
		resp, err := http.Get("http://" + bound + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("reading %s: %v", path, err)
		}
		var parsed map[string]any
		if err := json.Unmarshal(body, &parsed); err != nil {
			t.Errorf("%s is not JSON: %v\n%s", path, err, body)
		}
	}
}

func TestLogProgress(t *testing.T) {
	var mu sync.Mutex
	var buf strings.Builder
	w := writerFunc(func(p []byte) (int, error) {
		mu.Lock()
		defer mu.Unlock()
		return buf.Write(p)
	})
	stop := LogProgress(w, 10*time.Millisecond)
	deadline := time.Now().Add(2 * time.Second)
	for {
		testProgress.Inc()
		mu.Lock()
		done := strings.Contains(buf.String(), "test.progress=")
		mu.Unlock()
		if done || time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	stop()
	mu.Lock()
	out := buf.String()
	mu.Unlock()
	if !strings.Contains(out, "progress") || !strings.Contains(out, "test.progress=") {
		t.Errorf("progress output missing expected line:\n%s", out)
	}
}

type writerFunc func(p []byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

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
