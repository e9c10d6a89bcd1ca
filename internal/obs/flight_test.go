package obs

import (
	"bytes"
	"context"
	"os"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"
)

// fakeFlightRecorder returns a recorder driven by a manual clock, so
// event timestamps are deterministic.
func fakeFlightRecorder(capacity int) (r *FlightRecorder, advance func(d time.Duration)) {
	now := time.Unix(2000, 0)
	r = &FlightRecorder{now: func() time.Time { return now }, capacity: capacity}
	r.epoch = now
	return r, func(d time.Duration) { now = now.Add(d) }
}

func TestFlightRecorderStampsAndOrders(t *testing.T) {
	r, advance := fakeFlightRecorder(8)
	r.Emit(Event{Kind: EvDesignStart, Val: 12, Who: "portfolio"})
	advance(time.Millisecond)
	r.Emit(Event{Kind: EvProbeOpen, K: 3})
	advance(time.Millisecond)
	r.Emit(Event{Kind: EvProbeClose, K: 3, Who: "feasible", Val: 7})

	events := r.Events()
	if len(events) != 3 {
		t.Fatalf("got %d events, want 3", len(events))
	}
	for i, e := range events {
		if e.Seq != int64(i) {
			t.Errorf("event %d has Seq %d", i, e.Seq)
		}
	}
	if events[1].T != time.Millisecond.Nanoseconds() || events[2].T != (2*time.Millisecond).Nanoseconds() {
		t.Errorf("timestamps = %d, %d; want 1ms, 2ms", events[1].T, events[2].T)
	}
	if r.Emitted() != 3 || r.Dropped() != 0 {
		t.Errorf("emitted/dropped = %d/%d, want 3/0", r.Emitted(), r.Dropped())
	}
}

func TestFlightRecorderRingWrap(t *testing.T) {
	r, _ := fakeFlightRecorder(4)
	for i := 0; i < 10; i++ {
		r.Emit(Event{Kind: EvNodes, Val: int64(i), Who: "bb"})
	}
	if r.Emitted() != 10 {
		t.Errorf("emitted = %d, want 10", r.Emitted())
	}
	if r.Dropped() != 6 {
		t.Errorf("dropped = %d, want 6", r.Dropped())
	}
	events := r.Events()
	if len(events) != 4 {
		t.Fatalf("retained %d events, want 4", len(events))
	}
	for i, e := range events {
		if want := int64(6 + i); e.Val != want || e.Seq != want {
			t.Errorf("retained[%d] = Seq %d Val %d, want %d", i, e.Seq, e.Val, want)
		}
	}
}

func TestFlightNDJSONRoundTrip(t *testing.T) {
	r, advance := fakeFlightRecorder(16)
	r.Emit(Event{Kind: EvDesignStart, Val: 12, Who: "portfolio"})
	advance(time.Millisecond)
	r.Emit(Event{Kind: EvProbeOpen, K: 4, Flag: true})
	r.Emit(Event{Kind: EvIncumbent, K: 4, Val: 99, Aux: 2, Who: "bb"})
	r.Emit(Event{Kind: EvProbeClose, K: 4, Flag: true, Who: "feasible", Val: 42, Aux: 1234})
	r.Emit(Event{Kind: EvDesignDone, K: 4, Val: 42, Aux: 1234})
	r.Emit(Event{Kind: EvSpanAttr, Val: 7, K: attrStr, Who: "app", Str: "mat2"})

	var buf bytes.Buffer
	if err := r.WriteNDJSON(&buf); err != nil {
		t.Fatal(err)
	}
	events, meta, err := ReadNDJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Flight != 1 || meta.Emitted != 6 || meta.Dropped != 0 {
		t.Errorf("meta = %+v, want flight 1, 6 emitted, 0 dropped", meta)
	}
	want := r.Events()
	if len(events) != len(want) {
		t.Fatalf("round-trip kept %d events, want %d", len(events), len(want))
	}
	for i := range want {
		if events[i] != want[i] {
			t.Errorf("event %d round-tripped to %+v, want %+v", i, events[i], want[i])
		}
	}

	// Header-less input (a truncated or concatenated recording) still
	// parses; meta falls back to the observed counts.
	raw := `{"seq":0,"t_ns":5,"kind":"nodes","val":1024,"who":"bb"}` + "\n"
	events, meta, err = ReadNDJSON(strings.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 1 || meta.Emitted != 1 {
		t.Errorf("header-less parse: %d events, meta %+v", len(events), meta)
	}
	if _, _, err := ReadNDJSON(strings.NewReader(`{"kind":"no_such_kind"}` + "\n")); err == nil {
		t.Error("unknown event kind parsed without error")
	}
}

// retiredKind looks up a retired event kind by its name; the kinds
// have no constant any more, but older recordings still carry them.
func retiredKind(t *testing.T, name string) EventKind {
	t.Helper()
	k, ok := ParseEventKind(name)
	if !ok {
		t.Fatalf("retired kind %q no longer parses", name)
	}
	return k
}

// TestReadNDJSONRetiredKinds reads a portfolio recording from before
// the LP pivot and race kinds were retired: every line still parses,
// each retired kind keeps its number and its name, the kinds after
// them keep theirs, and the canonical form drops the retired events.
func TestReadNDJSONRetiredKinds(t *testing.T) {
	const recording = `{"flight":1,"capacity":64,"emitted":9,"dropped":0}
{"seq":0,"t_ns":10,"kind":"design_start","val":12,"who":"portfolio"}
{"seq":1,"t_ns":20,"kind":"probe_open","k":4}
{"seq":2,"t_ns":21,"kind":"race_start","k":4,"who":"bb"}
{"seq":3,"t_ns":22,"kind":"race_start","k":4,"who":"milp"}
{"seq":4,"t_ns":30,"kind":"lp_pivots","val":4096,"who":"lp"}
{"seq":5,"t_ns":40,"kind":"race_win","k":4,"who":"bb"}
{"seq":6,"t_ns":41,"kind":"race_cancel","k":4,"who":"milp"}
{"seq":7,"t_ns":42,"kind":"probe_close","k":4,"val":3,"aux":50,"who":"feasible"}
{"seq":8,"t_ns":50,"kind":"cache_hit","k":4,"who":"memory"}
`
	events, meta, err := ReadNDJSON(strings.NewReader(recording))
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 9 || meta.Emitted != 9 {
		t.Fatalf("read %d events, meta %+v; want 9", len(events), meta)
	}
	for i, want := range []struct {
		kind EventKind
		name string
	}{{6, "lp_pivots"}, {7, "race_start"}, {8, "race_win"}, {9, "race_cancel"}, {10, "cache_hit"}} {
		if k := retiredKind(t, want.name); k != want.kind || k.String() != want.name {
			t.Errorf("case %d: %q parses to kind %d (%s), want %d", i, want.name, k, k, want.kind)
		}
	}
	if events[4].Kind != 6 || events[4].Val != 4096 || events[8].Kind != EvCacheHit {
		t.Errorf("events read as %+v", events)
	}
	for _, e := range Canonical(events) {
		if e.Kind >= 6 && e.Kind <= 9 {
			t.Errorf("canonical form keeps retired event %+v", e)
		}
	}
}

// TestCanonicalReduction feeds two synthetic recordings of the same
// logical solve — one lean, one with extra decided probes, interleaved
// node batches and race outcomes — and requires their canonical forms
// to be identical.
func TestCanonicalReduction(t *testing.T) {
	// One run: probes k=2 (infeasible), k=3 (feasible), optimize k=3.
	w1 := []Event{
		{Seq: 0, T: 10, Kind: EvDesignStart, Val: 12, Who: "portfolio"},
		{Seq: 1, T: 20, Kind: EvProbeOpen, K: 2},
		{Seq: 2, T: 30, Kind: EvNodes, K: 2, Val: 1024, Who: "bb"},
		{Seq: 3, T: 40, Kind: EvProbeClose, K: 2, Who: "infeasible", Aux: 2048},
		{Seq: 4, T: 50, Kind: EvProbeOpen, K: 3},
		{Seq: 5, T: 60, Kind: EvProbeClose, K: 3, Who: "feasible", Val: 9, Aux: 300},
		{Seq: 6, T: 70, Kind: EvProbeOpen, K: 3, Flag: true},
		{Seq: 7, T: 80, Kind: EvIncumbent, K: 3, Val: 9, Who: "greedy"},
		{Seq: 8, T: 90, Kind: EvProbeClose, K: 3, Flag: true, Who: "feasible", Val: 7, Aux: 900},
		{Seq: 9, T: 95, Kind: EvCacheStore, K: 3},
		{Seq: 10, T: 99, Kind: EvDesignDone, K: 3, Val: 7, Aux: 3248},
	}
	// Another run, recorded before the race kinds were retired: it also
	// decided k=1 infeasible and k=4 feasible, probes closed out of
	// order, races ran, one probe was canceled — all schedule artifacts
	// the reduction must strip.
	w8 := []Event{
		{Seq: 0, T: 11, Kind: EvDesignStart, Val: 12, Who: "portfolio"},
		{Seq: 1, T: 12, Kind: retiredKind(t, "race_start"), K: 4, Who: "bb"},
		{Seq: 2, T: 13, Kind: retiredKind(t, "race_start"), K: 4, Who: "milp"},
		{Seq: 3, T: 20, Kind: EvProbeOpen, K: 4},
		{Seq: 4, T: 25, Kind: EvProbeClose, K: 4, Who: "feasible", Val: 3, Aux: 50},
		{Seq: 5, T: 26, Kind: retiredKind(t, "race_win"), K: 4, Who: "bb"},
		{Seq: 6, T: 27, Kind: retiredKind(t, "race_cancel"), K: 4, Who: "milp"},
		{Seq: 7, T: 30, Kind: EvProbeOpen, K: 1},
		{Seq: 8, T: 31, Kind: EvProbeClose, K: 1, Who: "infeasible", Aux: 10},
		{Seq: 9, T: 35, Kind: EvProbeOpen, K: 5},
		{Seq: 10, T: 36, Kind: EvProbeClose, K: 5, Who: "canceled"},
		{Seq: 11, T: 40, Kind: EvProbeOpen, K: 3},
		{Seq: 12, T: 44, Kind: EvNodes, K: 3, Val: 512, Who: "bb"},
		{Seq: 13, T: 45, Kind: EvProbeClose, K: 3, Who: "feasible", Val: 9, Aux: 290},
		{Seq: 14, T: 50, Kind: EvProbeOpen, K: 2},
		{Seq: 15, T: 55, Kind: EvProbeClose, K: 2, Who: "infeasible", Aux: 2100},
		{Seq: 16, T: 60, Kind: EvProbeOpen, K: 3, Flag: true},
		{Seq: 17, T: 65, Kind: EvIncumbent, K: 3, Val: 8, Who: "anneal"},
		{Seq: 18, T: 70, Kind: EvProbeClose, K: 3, Flag: true, Who: "feasible", Val: 7, Aux: 750},
		{Seq: 19, T: 75, Kind: EvCacheStore, K: 3},
		{Seq: 20, T: 99, Kind: EvDesignDone, K: 3, Val: 7, Aux: 5932},
	}
	c1, c8 := Canonical(w1), Canonical(w8)
	if d := DiffEvents(c1, c8); d != "" {
		t.Fatalf("canonical forms differ:\n%s\nW1: %+v\nW8: %+v", d, c1, c8)
	}
	// The reduction keeps the tight facts only: max infeasible k=2, min
	// feasible k=3 (not the extra k=4 witness), the optimize close
	// at k=3, design start/done and the cache store.
	want := []Event{
		{Kind: EvDesignStart, Val: 12, Who: "portfolio"},
		{Kind: EvCacheStore, K: 3},
		{Kind: EvProbeClose, K: 2, Who: "infeasible"},
		{Kind: EvProbeClose, K: 3, Who: "feasible", Val: 9},
		{Kind: EvProbeClose, K: 3, Flag: true, Who: "feasible", Val: 7},
		{Kind: EvDesignDone, K: 3, Val: 7},
	}
	if d := DiffEvents(c1, want); d != "" {
		t.Fatalf("canonical form unexpected: %s\ngot: %+v", d, c1)
	}
	// A genuine divergence (different objective) must surface.
	w8[18].Val = 6
	if d := DiffEvents(Canonical(w1), Canonical(w8)); d == "" {
		t.Error("objective divergence not detected by canonical diff")
	}
}

// TestCanonicalDropsSpans: spans time a run rather than state what it
// proved, so the canonical reduction of a real recording equals that of
// the same recording with every span event stripped.
func TestCanonicalDropsSpans(t *testing.T) {
	events := readRecording(t, "testdata/xbargen-mat2.flight")
	stripped := slices.DeleteFunc(slices.Clone(events), func(e Event) bool {
		return e.Kind == EvSpanBegin || e.Kind == EvSpanEnd || e.Kind == EvSpanAttr
	})
	if len(stripped) == len(events) {
		t.Fatal("recording holds no span events")
	}
	if d := DiffEvents(Canonical(events), Canonical(stripped)); d != "" {
		t.Errorf("spans leak into the canonical form: %s", d)
	}
}

// readRecording parses an NDJSON recording from a file.
func readRecording(t *testing.T, path string) []Event {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	events, _, err := ReadNDJSON(f)
	if err != nil {
		t.Fatal(err)
	}
	return events
}

// TestCanonicalKeepsPanic pins that a recovered job panic survives the
// canonical reduction with its schedule fields stripped, and that its
// kind name round-trips.
func TestCanonicalKeepsPanic(t *testing.T) {
	got := Canonical([]Event{
		{Seq: 0, T: 5, Kind: EvNodes, K: 3, Val: 1024, Who: "bb"},
		{Seq: 1, T: 9, Kind: EvPanic, Who: "server"},
	})
	if d := DiffEvents(got, []Event{{Kind: EvPanic, Who: "server"}}); d != "" {
		t.Fatalf("canonical form of a panicked job: %s\ngot: %+v", d, got)
	}
	if k, ok := ParseEventKind(EvPanic.String()); !ok || k != EvPanic || k.String() != "panic" {
		t.Errorf("panic kind round-trips to %v, %v", k, ok)
	}
}

// TestFlightStorageGrowsOnDemand pins the ring's storage growth: a
// recorder of the per-job capacity (4,096 events) that has journaled a
// typical job's 44 events keeps under a tenth of the storage a
// preallocated ring would, and the sequence numbers, the drop count and
// the replay stay exact as the storage grows to the capacity and wraps.
func TestFlightStorageGrowsOnDemand(t *testing.T) {
	const capacity = 4096
	r := NewFlightRecorder(capacity)
	emit := func(n int) {
		for i := 0; i < n; i++ {
			r.Emit(Event{Kind: EvNodes, Val: r.Emitted(), Who: "bb"})
		}
	}
	emit(44)
	size := int(unsafe.Sizeof(Event{}))
	if kept, full := cap(r.buf)*size, capacity*size; kept*10 >= full {
		t.Errorf("44 events keep %d bytes of storage, want under a tenth of %d", kept, full)
	}
	check := func(emitted int64) {
		t.Helper()
		events := r.Events()
		retained := min(emitted, capacity)
		if r.Emitted() != emitted || r.Dropped() != emitted-retained || int64(len(events)) != retained {
			t.Fatalf("after %d events: emitted %d, dropped %d, retained %d", emitted, r.Emitted(), r.Dropped(), len(events))
		}
		for i, e := range events {
			if want := emitted - retained + int64(i); e.Seq != want || e.Val != want {
				t.Fatalf("after %d events: event %d has seq %d, val %d; want %d", emitted, i, e.Seq, e.Val, want)
			}
		}
		if cap(r.buf) > capacity {
			t.Fatalf("after %d events: storage for %d events, capacity %d", emitted, cap(r.buf), capacity)
		}
	}
	check(44)
	emit(capacity - 44)
	check(capacity)
	emit(1000)
	check(capacity + 1000)
	if since := r.EventsSince(capacity + 990); len(since) != 10 || since[0].Seq != capacity+990 {
		t.Errorf("EventsSince after the wrap returned %d events from seq %d", len(since), since[0].Seq)
	}
}

func TestFlightRecorderConcurrentEmit(t *testing.T) {
	r := NewFlightRecorder(128)
	const workers, perWorker = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				r.Emit(Event{Kind: EvNodes, Val: 1, Who: "bb"})
			}
		}(w)
	}
	wg.Wait()
	if r.Emitted() != workers*perWorker {
		t.Errorf("emitted = %d, want %d", r.Emitted(), workers*perWorker)
	}
	events := r.Events()
	if len(events) != 128 {
		t.Fatalf("retained %d, want 128", len(events))
	}
	for i := 1; i < len(events); i++ {
		if events[i].Seq != events[i-1].Seq+1 {
			t.Fatalf("retained sequence not contiguous at %d: %d after %d",
				i, events[i].Seq, events[i-1].Seq)
		}
	}
}

// TestFlightDisabledPathAllocationFree pins the recorder's overhead
// guarantee: with no recorder in the context, the lookup and every Emit
// must not allocate at all — that is what lets the hot solver loops
// leave instrumentation on unconditionally.
func TestFlightDisabledPathAllocationFree(t *testing.T) {
	ctx := context.Background()
	if n := testing.AllocsPerRun(1000, func() {
		rec := FlightRecorderFrom(ctx)
		rec.Emit(Event{Kind: EvNodes, K: 3, Val: 1024, Who: "bb"})
		rec.Emit(Event{Kind: EvIncumbent, K: 3, Val: 7, Aux: 2, Who: "bb"})
		if rec.Emitted() != 0 || rec.Dropped() != 0 || rec.Events() != nil {
			t.Fatal("nil recorder must be inert")
		}
	}); n != 0 {
		t.Errorf("disabled flight path allocates %.1f per op, want 0", n)
	}
	// The enabled path with no stream attached is allocation-free too: the event
	// is copied into preallocated ring storage.
	r := NewFlightRecorder(64)
	if n := testing.AllocsPerRun(1000, func() {
		r.Emit(Event{Kind: EvNodes, K: 3, Val: 1024, Who: "bb"})
	}); n != 0 {
		t.Errorf("enabled Emit allocates %.1f per op, want 0", n)
	}
}

func BenchmarkFlightEmitDisabled(b *testing.B) {
	rec := FlightRecorderFrom(context.Background())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rec.Emit(Event{Kind: EvNodes, Val: int64(i), Who: "bb"})
	}
}

func BenchmarkFlightEmitEnabled(b *testing.B) {
	rec := NewFlightRecorder(0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rec.Emit(Event{Kind: EvNodes, Val: int64(i), Who: "bb"})
	}
}
