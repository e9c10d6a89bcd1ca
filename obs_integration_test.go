package stbusgen_test

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"

	stbusgen "repro"
	"repro/internal/obs"
	"repro/internal/trace"
)

// ringSpan is one span read back from a flight recording.
type ringSpan struct {
	name       string
	begin, end int64
	ended      bool
	failed     bool
	strs       map[string]string // string attributes
}

// ringSpans rebuilds the spans a recording holds from its span events,
// in begin order.
func ringSpans(events []obs.Event) []*ringSpan {
	var spans []*ringSpan
	byID := map[int64]*ringSpan{}
	for _, e := range events {
		switch e.Kind {
		case obs.EvSpanBegin:
			s := &ringSpan{name: e.Who, begin: e.T, strs: map[string]string{}}
			byID[e.Val] = s
			spans = append(spans, s)
		case obs.EvSpanAttr:
			if s := byID[e.Val]; s != nil && e.Str != "" {
				s.strs[e.Who] = e.Str
			}
		case obs.EvSpanEnd:
			if s := byID[e.Val]; s != nil {
				s.end, s.ended, s.failed = e.T, true, e.Flag
			}
		}
	}
	return spans
}

// TestDesignerTraceCoverage runs the full Designer pipeline under a
// flight recorder and checks the acceptance bar of the telemetry layer: the
// phase spans (simulation, analysis, design, validation) must cover
// nearly all of the root span's wall time, so a trace actually
// explains where a run went.
func TestDesignerTraceCoverage(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline in -short mode")
	}
	rec := obs.NewFlightRecorder(0)
	ctx := obs.WithFlightRecorder(context.Background(), rec)
	d := stbusgen.NewDesigner(stbusgen.DefaultOptions())
	if _, err := d.Design(ctx, stbusgen.Mat2(1)); err != nil {
		t.Fatal(err)
	}
	if n := rec.Dropped(); n != 0 {
		t.Fatalf("ring overwrote %d events", n)
	}

	var rootDur, phaseDur int64
	for _, s := range ringSpans(rec.Events()) {
		if !s.ended {
			t.Errorf("span %s never ended", s.name)
		}
		switch s.name {
		case "designer.design":
			rootDur = s.end - s.begin
		case "pipeline.prepare", "pipeline.design", "pipeline.validate":
			phaseDur += s.end - s.begin
		}
	}
	if rootDur == 0 {
		t.Fatal("no designer.design root span recorded")
	}
	coverage := float64(phaseDur) / float64(rootDur)
	t.Logf("phase spans cover %.1f%% of the root span (%dµs of %dµs)",
		coverage*100, phaseDur/1000, rootDur/1000)
	if coverage < 0.95 {
		t.Errorf("phase spans cover %.1f%% of the Designer run, want >= 95%%", coverage*100)
	}

	// The export of a real concurrent run must be loadable JSON.
	var buf bytes.Buffer
	if err := obs.WriteChromeTrace(&buf, rec.Events()); err != nil {
		t.Fatal(err)
	}
	var parsed map[string]any
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("exported trace does not parse: %v", err)
	}
}

// TestDesignerTracedMatchesUntraced is the determinism guarantee:
// telemetry observes, never steers. The same app designed with and
// without a flight recorder (which also records the spans) must produce
// bit-identical crossbars.
func TestDesignerTracedMatchesUntraced(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline in -short mode")
	}
	d := stbusgen.NewDesigner(stbusgen.DefaultOptions())
	plain, err := d.Design(context.Background(), stbusgen.Mat2(1))
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.NewFlightRecorder(0)
	ctx := obs.WithFlightRecorder(context.Background(), rec)
	traced, err := d.Design(ctx, stbusgen.Mat2(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(ringSpans(rec.Events())) == 0 {
		t.Fatal("the traced run recorded no spans")
	}
	if traced.Pair.Req.NumBuses != plain.Pair.Req.NumBuses ||
		traced.Pair.Resp.NumBuses != plain.Pair.Resp.NumBuses {
		t.Fatalf("bus counts differ with tracing: %d+%d vs %d+%d",
			traced.Pair.Req.NumBuses, traced.Pair.Resp.NumBuses,
			plain.Pair.Req.NumBuses, plain.Pair.Resp.NumBuses)
	}
	for i, b := range plain.Pair.Req.BusOf {
		if traced.Pair.Req.BusOf[i] != b {
			t.Fatalf("request binding differs with tracing at receiver %d", i)
		}
	}
	for i, b := range plain.Pair.Resp.BusOf {
		if traced.Pair.Resp.BusOf[i] != b {
			t.Fatalf("response binding differs with tracing at receiver %d", i)
		}
	}
}

// TestDesignerSpanRecordsError: a failed design run marks its root span
// failed and attaches the error, so a trace of a failed run explains
// itself; a successful run stays unannotated.
func TestDesignerSpanRecordsError(t *testing.T) {
	// Two receivers overlapping across the whole horizon, zero overlap
	// tolerance, one bus allowed: provably infeasible.
	tr2 := &trace.Trace{NumReceivers: 2, NumSenders: 1, Horizon: 100}
	for r := 0; r < 2; r++ {
		tr2.Events = append(tr2.Events, trace.Event{Start: 0, Len: 100, Receiver: r})
	}
	opts := stbusgen.DefaultOptions()
	opts.OverlapThreshold = 0
	opts.MaxPerBus = 0
	opts.MaxBuses = 1

	designTrace := func(opts stbusgen.Options) (*ringSpan, error) {
		rec := obs.NewFlightRecorder(0)
		ctx := obs.WithFlightRecorder(context.Background(), rec)
		_, err := stbusgen.NewDesigner(opts).DesignTrace(ctx, tr2, 100)
		for _, s := range ringSpans(rec.Events()) {
			if s.name == "designer.design_trace" {
				return s, err
			}
		}
		t.Fatal("no designer.design_trace span recorded")
		return nil, err
	}
	s, err := designTrace(opts)
	if err == nil {
		t.Fatal("infeasible case designed successfully")
	}
	if !s.ended || !s.failed {
		t.Errorf("failed run not marked on its span: %+v", s)
	}
	if msg := s.strs["error_msg"]; !strings.Contains(msg, "feasible") {
		t.Errorf("error_msg = %q, want the infeasibility error", msg)
	}

	// Success leaves no error attributes behind.
	opts.MaxBuses = 0
	opts.OverlapThreshold = 0.9
	s, err = designTrace(opts)
	if err != nil {
		t.Fatal(err)
	}
	if s.failed || s.strs["error_msg"] != "" {
		t.Errorf("successful run carries error attributes: %+v", s)
	}
}
