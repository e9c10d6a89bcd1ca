package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"
	"time"
)

// TestChromeTraceGolden locks the exported JSON down byte for byte.
// The fake clock makes the timestamps deterministic, and
// encoding/json sorts map keys, so any diff here is a real format
// change — chrome://tracing and Perfetto both parse this shape.
func TestChromeTraceGolden(t *testing.T) {
	r, advance := fakeFlightRecorder(64)
	ctx := WithFlightRecorder(context.Background(), r)

	ctx, root := Start(ctx, "designer.design")
	root.SetStr("app", "mat2")
	advance(2 * time.Millisecond)
	_, child := Start(ctx, "sim.run")
	child.SetInt("horizon", 1000)
	advance(3 * time.Millisecond)
	child.End()
	advance(1 * time.Millisecond)
	root.End()

	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, r.Events()); err != nil {
		t.Fatal(err)
	}
	golden := `{"traceEvents":[` +
		`{"name":"process_name","ph":"M","ts":0,"pid":1,"tid":0,"args":{"name":"stbusgen"}},` +
		`{"name":"designer.design","ph":"X","ts":0,"dur":6000,"pid":1,"tid":0,"args":{"app":"mat2"}},` +
		`{"name":"sim.run","ph":"X","ts":2000,"dur":3000,"pid":1,"tid":0,"args":{"horizon":1000}}` +
		`],"displayTimeUnit":"ms"}` + "\n"
	if got := buf.String(); got != golden {
		t.Errorf("chrome trace mismatch:\ngot:  %s\nwant: %s", got, golden)
	}
}

// chromeTraceEvent is the subset of an exported trace event the tests
// inspect.
type chromeTraceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// exportChrome renders events and parses the result back.
func exportChrome(t *testing.T, events []Event) []chromeTraceEvent {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, events); err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		TraceEvents []chromeTraceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("exported trace does not parse: %v\n%s", err, buf.String())
	}
	return parsed.TraceEvents
}

// TestChromeTraceLanes checks the lane (tid) assignment invariants on
// a parallel shape: two overlapping siblings must land on different
// lanes, and a child must share its parent's lane so the viewer nests
// them.
func TestChromeTraceLanes(t *testing.T) {
	r, advance := fakeFlightRecorder(64)
	ctx := WithFlightRecorder(context.Background(), r)

	rootCtx, root := Start(ctx, "root")
	aCtx, a := Start(rootCtx, "worker.a")
	_, b := Start(rootCtx, "worker.b") // overlaps a
	advance(1 * time.Millisecond)
	_, aChild := Start(aCtx, "worker.a.inner")
	advance(1 * time.Millisecond)
	aChild.End()
	a.End()
	b.End()
	root.End()

	lane := map[string]int{}
	for _, e := range exportChrome(t, r.Events()) {
		if e.Ph == "X" {
			lane[e.Name] = e.Tid
		}
	}
	if lane["worker.a"] == lane["worker.b"] {
		t.Errorf("overlapping siblings share lane %d", lane["worker.a"])
	}
	if lane["worker.a.inner"] != lane["worker.a"] {
		t.Errorf("child on lane %d, parent on %d; want same", lane["worker.a.inner"], lane["worker.a"])
	}
	if lane["root"] != 0 {
		t.Errorf("root on lane %d, want 0", lane["root"])
	}
}

// TestChromeTraceUnendedSpansOmitted: only spans whose begin and end
// the recording holds are exported — one still open and one whose begin
// the ring overwrote are left out without corrupting the JSON.
func TestChromeTraceUnendedSpansOmitted(t *testing.T) {
	r, advance := fakeFlightRecorder(5)
	ctx := WithFlightRecorder(context.Background(), r)
	_, lost := Start(ctx, "begin.overwritten") // seq 0, overwritten below
	openCtx, _ := Start(ctx, "never.ends")     // seq 1
	_, done := Start(openCtx, "done")          // seq 2
	advance(time.Millisecond)
	done.End()                                        // seq 3
	lost.End()                                        // seq 4
	r.Emit(Event{Kind: EvNodes, Val: 256, Who: "bb"}) // seq 5: the ring drops seq 0

	names := map[string]bool{}
	for _, e := range exportChrome(t, r.Events()) {
		if e.Ph == "X" {
			names[e.Name] = true
		}
	}
	if names["never.ends"] || names["begin.overwritten"] {
		t.Errorf("incomplete span leaked into the export: %v", names)
	}
	if !names["done"] {
		t.Error("finished span missing from the export")
	}
}

// TestChromeTraceInstants: every event that is not a span becomes a
// zero-duration event carrying its non-zero payload, on a named lane
// below the span lanes, so the solver facts show in the timeline beside
// the spans.
func TestChromeTraceInstants(t *testing.T) {
	r, advance := fakeFlightRecorder(16)
	ctx := WithFlightRecorder(context.Background(), r)
	_, sp := Start(ctx, "core.probe")
	advance(time.Millisecond)
	r.Emit(Event{Kind: EvProbeOpen, K: 3, Flag: true})
	r.Emit(Event{Kind: EvDesignDone, K: 3, Val: 269, Aux: 41})
	sp.End()

	var instants []chromeTraceEvent
	lane := map[string]int{}
	for _, e := range exportChrome(t, r.Events()) {
		lane[e.Name] = e.Tid
		if e.Ph == "X" && e.Dur == 0 {
			instants = append(instants, e)
		}
	}
	if len(instants) != 2 {
		t.Fatalf("got %d instant events, want 2: %+v", len(instants), instants)
	}
	open, done := instants[0], instants[1]
	if open.Name != "probe_open" || open.Ts != 1000 || open.Args["k"] != 3.0 || open.Args["flag"] != true {
		t.Errorf("probe_open instant = %+v", open)
	}
	if done.Name != "design_done" || done.Args["val"] != 269.0 || done.Args["aux"] != 41.0 || len(done.Args) != 3 {
		t.Errorf("design_done instant = %+v", done)
	}
	if lane["core.probe"] != 0 || open.Tid != 1 || done.Tid != 1 || lane["thread_name"] != 1 {
		t.Errorf("lanes = %v, instants on %d and %d; want spans on 0, instants and their name on 1",
			lane, open.Tid, done.Tid)
	}
}
