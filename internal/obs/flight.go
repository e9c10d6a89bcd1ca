package obs

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"sync"
	"time"
)

// The flight recorder is the event instrument of obs: a bounded ring
// journal of typed events (incumbents found, node-expansion batches,
// cache traffic, probe open/close, and the begin, attributes and end of
// every span) cheap
// enough to stay on for production solves. Spans answer "where did the
// time go", the solver events "what did the search actually do, in what
// order", and metrics "how fast is it going right now". A recording can
// be replayed after the fact (cmd/flightview), rendered as a Chrome
// trace (WriteChromeTrace) or streamed live (StreamEvents, see
// telemetry.go).
//
// Like the metrics it is nil-safe: with no recorder attached to the
// context, FlightRecorderFrom returns nil, Start returns a nil span, and
// every method on the nil *FlightRecorder returns immediately without
// allocating, so instrumentation stays on unconditionally in the hot
// loops (pinned by TestFlightDisabledPathAllocationFree).

// EventKind discriminates flight-recorder events.
type EventKind uint8

const (
	// EvDesignStart opens one design run: Val = receiver count. Older
	// recordings name the solver engine in Who.
	EvDesignStart EventKind = iota
	// EvDesignDone closes a design run: K = buses, Val = objective,
	// Aux = total solver nodes, Flag = capped.
	EvDesignDone
	// EvProbeOpen starts one bus-count probe: K = bus count,
	// Flag = optimize (binding phase) vs feasibility.
	EvProbeOpen
	// EvProbeClose finishes a probe: K/Flag as the open, Who = outcome
	// ("feasible", "infeasible", "capped", "exhausted", "canceled",
	// "error"), Val = objective when feasible, Aux = solver nodes.
	EvProbeClose
	// EvIncumbent records an improved incumbent binding: K = bus count,
	// Val = objective, Who = producer ("bb", "anneal", "greedy").
	EvIncumbent
	// EvNodes is a node-expansion batch: Val = nodes expanded since the
	// previous batch, K = bus count, Who = "bb".
	EvNodes
	// Kinds 6–9 are retired: LP pivot batches and the outcomes of the
	// race between the branch and bound and the MILP, which left
	// production together. Nothing emits them any more. The slots stay
	// so that later kinds keep their numbers, and their names stay in
	// eventKindNames so that older recordings still read.
	_
	_
	_
	_
	// EvCacheHit is an exact content hit: K = cached bus count,
	// Who = tier ("memory", "disk").
	EvCacheHit
	// EvCacheWarm is a near-hit warm incumbent served: K = cached bus
	// count, Val = constraint-cell diff count.
	EvCacheWarm
	// EvCacheStore is a finished design offered to the cache:
	// K = bus count.
	EvCacheStore
	// EvPanic is a panic recovered from a job: the job fails as an
	// internal error, with its stack in the log. Who = "server".
	EvPanic
	// EvSpanBegin opens a span (see Start): Val = span ID, Aux = parent
	// span ID (0 for a root), Who = span name.
	EvSpanBegin
	// EvSpanEnd closes a span: Val = span ID, Flag = failed (SetError).
	EvSpanEnd
	// EvSpanAttr annotates a span: Val = span ID, Who = key, K = value
	// type (0 integer in Aux, 1 boolean in Aux as 0/1, 2 string in Str).
	EvSpanAttr

	numEventKinds // sentinel; keep last
)

var eventKindNames = [numEventKinds]string{
	EvDesignStart: "design_start",
	EvDesignDone:  "design_done",
	EvProbeOpen:   "probe_open",
	EvProbeClose:  "probe_close",
	EvIncumbent:   "incumbent",
	EvNodes:       "nodes",
	6:             "lp_pivots",
	7:             "race_start",
	8:             "race_win",
	9:             "race_cancel",
	EvCacheHit:    "cache_hit",
	EvCacheWarm:   "cache_warm",
	EvCacheStore:  "cache_store",
	EvPanic:       "panic",
	EvSpanBegin:   "span_begin",
	EvSpanEnd:     "span_end",
	EvSpanAttr:    "span_attr",
}

func (k EventKind) String() string {
	if int(k) < len(eventKindNames) {
		return eventKindNames[k]
	}
	return fmt.Sprintf("EventKind(%d)", int(k))
}

// ParseEventKind inverts EventKind.String (used by the NDJSON reader).
func ParseEventKind(s string) (EventKind, bool) {
	for k, name := range eventKindNames {
		if name == s {
			return EventKind(k), true
		}
	}
	return 0, false
}

// Event is one flight-recorder entry. It is a flat value type — its
// only pointers are the Who and Str strings, which Emit copies as they
// are — so emitting one allocates nothing and recording is a struct
// copy into the ring.
//
// The payload fields carry logical keys, not wall-clock artifacts: K is
// the bus count the event concerns, Val/Aux the kind-specific values
// documented on each EventKind. Only Seq and T are schedule-dependent;
// Canonical strips them, which is what makes recordings diffable between
// runs.
type Event struct {
	// Seq is the emission sequence number (0-based, assigned by the
	// recorder).
	Seq int64
	// T is nanoseconds since the recorder's epoch.
	T int64
	// K is the bus count the event concerns (0 when not applicable),
	// or an EvSpanAttr's value type.
	K int
	// Val and Aux are kind-specific payloads (see EventKind docs).
	Val int64
	Aux int64
	// Who names the emitting engine or tier, or the span or attribute;
	// always a static string so emission never allocates.
	Who string
	// Str is the value of a string span attribute (EvSpanAttr only).
	Str string
	// Kind discriminates the payload.
	Kind EventKind
	// Flag is the kind-specific boolean (optimize probes, capped runs,
	// failed spans).
	Flag bool
}

// Flight traffic instruments: events recorded and events overwritten in
// the ring before export.
var (
	metFlightEvents  = NewCounter("flight.events")
	metFlightDropped = NewCounter("flight.dropped")
)

// DefaultFlightCapacity is the ring size NewFlightRecorder(0) uses:
// large enough to hold every event of typical solves (batching keeps
// the rate low — a 20M-node search emits ~20k node batches), small
// enough to be an invisible allocation.
const DefaultFlightCapacity = 1 << 15

// FlightRecorder is a bounded ring journal of Events. All methods are
// safe for concurrent use, and all methods on a nil receiver are
// allocation-free no-ops — the disabled path.
//
// The ring's storage grows on demand: it doubles, from
// flightInitialStorage events, until it holds capacity events, and only
// then wraps. A recorder that journals a few dozen events keeps a few
// kilobytes however large its capacity.
type FlightRecorder struct {
	epoch time.Time
	now   func() time.Time // test hook; defaults to time.Now

	mu       sync.Mutex
	capacity int     // events retained once the ring wraps
	buf      []Event // ring storage; entry for seq s lives at s % capacity
	n        int64   // events emitted so far (next Seq)
	// watchers are the wakeup channels of attached streams (see watch):
	// Emit signals each without blocking.
	watchers []chan struct{}
}

// flightInitialStorage is the event count a recorder's storage starts
// at on its first event (see FlightRecorder).
const flightInitialStorage = 16

// NewFlightRecorder returns an empty recorder holding the last
// `capacity` events (0 means DefaultFlightCapacity). Its clock starts
// now.
func NewFlightRecorder(capacity int) *FlightRecorder {
	if capacity <= 0 {
		capacity = DefaultFlightCapacity
	}
	r := &FlightRecorder{now: time.Now, capacity: capacity}
	r.epoch = r.now()
	return r
}

// Emit records e, stamping its Seq and T, and wakes every attached
// stream. The caller fills the payload fields only. Nil-safe and, in
// amortized terms, allocation-free: the event is copied into ring
// storage, which grows by doubling only O(log capacity) times over the
// recorder's life, and each wakeup is a non-blocking send of an empty
// struct.
func (r *FlightRecorder) Emit(e Event) {
	if r == nil {
		return
	}
	e.T = r.now().Sub(r.epoch).Nanoseconds()
	r.record(e)
}

// Forward appends the events src still retains to r, oldest first. Each
// keeps its time: T is shifted from src's epoch onto r's, so intervals
// measured in src (probe and span durations) read the same in r. Seq is
// restamped from r's sequence.
func (r *FlightRecorder) Forward(src *FlightRecorder) {
	if r == nil || src == nil {
		return
	}
	shift := src.epoch.Sub(r.epoch).Nanoseconds()
	for _, e := range src.Events() {
		e.T += shift
		r.record(e)
	}
}

// record stamps e's Seq, stores it in the ring and wakes the streams.
// Until the ring first fills, Seq equals the event's index in buf.
func (r *FlightRecorder) record(e Event) {
	r.mu.Lock()
	e.Seq = r.n
	if len(r.buf) < r.capacity {
		if len(r.buf) == cap(r.buf) {
			grown := make([]Event, len(r.buf), min(max(2*cap(r.buf), flightInitialStorage), r.capacity))
			copy(grown, r.buf)
			r.buf = grown
		}
		r.buf = append(r.buf, e)
	} else {
		r.buf[r.n%int64(r.capacity)] = e
	}
	r.n++
	dropped := r.n > int64(r.capacity)
	for _, c := range r.watchers {
		select {
		case c <- struct{}{}:
		default: // a wakeup is already pending
		}
	}
	r.mu.Unlock()
	metFlightEvents.Inc()
	if dropped {
		metFlightDropped.Inc()
	}
}

// watch attaches a stream: the returned channel receives a (coalesced)
// signal after every Emit until unwatch is called. A nil recorder never
// signals.
func (r *FlightRecorder) watch() (wake <-chan struct{}, unwatch func()) {
	if r == nil {
		return nil, func() {}
	}
	c := make(chan struct{}, 1)
	r.mu.Lock()
	r.watchers = append(r.watchers, c)
	r.mu.Unlock()
	return c, func() {
		r.mu.Lock()
		r.watchers = slices.DeleteFunc(r.watchers, func(w chan struct{}) bool { return w == c })
		r.mu.Unlock()
	}
}

// Emitted reports how many events have been emitted over the
// recorder's lifetime (not how many the ring still holds).
func (r *FlightRecorder) Emitted() int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.n
}

// Dropped reports how many events the ring has overwritten.
func (r *FlightRecorder) Dropped() int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if d := r.n - int64(r.capacity); d > 0 {
		return d
	}
	return 0
}

// Events returns the retained events in emission order (oldest first).
func (r *FlightRecorder) Events() []Event {
	return r.EventsSince(0)
}

// EventsSince returns the retained events with Seq >= seq in emission
// order — the incremental read StreamEvents uses: keep a cursor of the
// last sequence seen and ask only for what is new, so a wakeup costs
// O(new events), not O(ring). Events already overwritten by the ring
// are silently absent (the caller observes the gap in Seq).
func (r *FlightRecorder) EventsSince(seq int64) []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	size := int64(r.capacity)
	first := int64(0)
	if r.n > size {
		first = r.n - size
	}
	if seq > first {
		first = seq
	}
	if first >= r.n {
		return nil
	}
	out := make([]Event, 0, r.n-first)
	for s := first; s < r.n; s++ {
		out = append(out, r.buf[s%size])
	}
	return out
}

type ctxFlightKey struct{}

// WithFlightRecorder returns a context carrying r; instrumented layers
// under the returned context journal their events into it. A nil r
// returns ctx unchanged (recording stays disabled).
func WithFlightRecorder(ctx context.Context, r *FlightRecorder) context.Context {
	if r == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxFlightKey{}, r)
}

// FlightRecorderFrom returns the recorder attached to ctx, or nil when
// recording is disabled. Hot loops look it up once per solve and call
// the nil-safe Emit unconditionally.
func FlightRecorderFrom(ctx context.Context) *FlightRecorder {
	r, _ := ctx.Value(ctxFlightKey{}).(*FlightRecorder)
	return r
}

// --- NDJSON export/import ---

// FlightMeta is the header line of an NDJSON recording.
type FlightMeta struct {
	Flight  int   `json:"flight"` // format version, currently 1
	Emitted int64 `json:"emitted"`
	Dropped int64 `json:"dropped"`
}

// eventJSON is the NDJSON wire form of an Event.
type eventJSON struct {
	Seq  int64  `json:"seq"`
	T    int64  `json:"t_ns"`
	Kind string `json:"kind"`
	K    int    `json:"k,omitempty"`
	Val  int64  `json:"val,omitempty"`
	Aux  int64  `json:"aux,omitempty"`
	Who  string `json:"who,omitempty"`
	Str  string `json:"str,omitempty"`
	Flag bool   `json:"flag,omitempty"`
}

// wire converts e to its NDJSON wire form.
func (e Event) wire() eventJSON {
	return eventJSON{Seq: e.Seq, T: e.T, Kind: e.Kind.String(),
		K: e.K, Val: e.Val, Aux: e.Aux, Who: e.Who, Str: e.Str, Flag: e.Flag}
}

// wireJSON renders e in the recording wire form — the same JSON object
// the NDJSON export carries — as the data of StreamEvents' "flight"
// frames.
func (e Event) wireJSON() []byte {
	data, err := json.Marshal(e.wire())
	if err != nil {
		return nil // unreachable: eventJSON marshals cleanly by construction
	}
	return data
}

// WriteNDJSON exports the recording: one JSON header line (FlightMeta)
// followed by one JSON object per retained event, oldest first.
func (r *FlightRecorder) WriteNDJSON(w io.Writer) error {
	meta := FlightMeta{Flight: 1, Emitted: r.Emitted(), Dropped: r.Dropped()}
	return WriteEventsNDJSON(w, meta, r.Events())
}

// WriteEventsNDJSON writes an arbitrary event sequence in the recording
// wire format — the events' Seq/T stamps are written verbatim, so a
// canonical reduction (zeroed stamps) round-trips unchanged.
func WriteEventsNDJSON(w io.Writer, meta FlightMeta, events []Event) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if meta.Flight == 0 {
		meta.Flight = 1
	}
	if err := enc.Encode(meta); err != nil {
		return fmt.Errorf("obs: flight header: %w", err)
	}
	for _, e := range events {
		if err := enc.Encode(e.wire()); err != nil {
			return fmt.Errorf("obs: flight event %d: %w", e.Seq, err)
		}
	}
	return bw.Flush()
}

// ReadNDJSON parses a recording written by WriteNDJSON. A recording
// without a header line (or truncated mid-line) is tolerated: events
// parse until the input ends, and the meta defaults to the counts
// observed.
func ReadNDJSON(rd io.Reader) ([]Event, FlightMeta, error) {
	var meta FlightMeta
	var events []Event
	sc := bufio.NewScanner(rd)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	first := true
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		if first {
			first = false
			var m FlightMeta
			if err := json.Unmarshal(line, &m); err == nil && m.Flight > 0 {
				meta = m
				continue
			}
		}
		var je eventJSON
		if err := json.Unmarshal(line, &je); err != nil {
			return events, meta, fmt.Errorf("obs: flight event line: %w", err)
		}
		kind, ok := ParseEventKind(je.Kind)
		if !ok {
			return events, meta, fmt.Errorf("obs: unknown event kind %q", je.Kind)
		}
		events = append(events, Event{Seq: je.Seq, T: je.T, Kind: kind,
			K: je.K, Val: je.Val, Aux: je.Aux, Who: je.Who, Str: je.Str, Flag: je.Flag})
	}
	if err := sc.Err(); err != nil {
		return events, meta, err
	}
	if meta.Flight == 0 {
		meta = FlightMeta{Flight: 1, Emitted: int64(len(events))}
	}
	return events, meta, nil
}

// --- canonical reduction ---

// Canonical reduces a recording to its schedule-invariant skeleton, the
// form golden tests diff between runs. Wall-clock artifacts (Seq, T,
// node counts, canceled or budget-capped probes, raw incumbent streams,
// and the retired pivot and race kinds of older recordings) are dropped
// or zeroed; what remains are the logical facts every run proves
// identically however its search was scheduled:
//
//   - the design's start (receivers) and outcome (buses,
//     objective, capped);
//   - the two tight feasibility facts: the largest bus count decided
//     infeasible and the smallest decided feasible. A warm search and a
//     cold one decide different *sets* of counts, but no search can
//     terminate without deciding kmin feasible, and can only advance its
//     lower bound past kmin-1 by deciding it infeasible, so the extremes
//     are invariant (and the feasibility witness at kmin, hence its
//     objective, is deterministic per count);
//   - decided (un-capped) optimize-phase probe results, ordered by bus
//     count;
//   - cache traffic (hit/warm/store), which depends only on content;
//   - recovered job panics.
//
// Spans (begin, attribute and end events) are dropped: they time the
// run rather than state what it proved.
func Canonical(events []Event) []Event {
	var out []Event
	maxInfeas, haveInfeas := 0, false
	var minFeas Event
	haveFeas := false
	var optClosed []Event
	for _, e := range events {
		switch e.Kind {
		case EvDesignStart, EvCacheHit, EvCacheWarm, EvCacheStore, EvPanic, EvDesignDone:
			c := e
			c.Seq, c.T = 0, 0
			if c.Kind == EvDesignDone {
				c.Aux = 0 // node totals vary with the anneal feeder's timing
			}
			out = append(out, c)
		case EvProbeClose:
			if e.Flag {
				if e.Who == "feasible" {
					c := e
					c.Seq, c.T, c.Aux = 0, 0, 0
					optClosed = append(optClosed, c)
				}
				continue
			}
			switch e.Who {
			case "infeasible":
				if !haveInfeas || e.K > maxInfeas {
					maxInfeas, haveInfeas = e.K, true
				}
			case "feasible":
				if !haveFeas || e.K < minFeas.K {
					c := e
					c.Seq, c.T, c.Aux = 0, 0, 0
					minFeas, haveFeas = c, true
				}
			}
		}
	}
	// Assemble: start and cache events keep their relative order (they
	// are content-determined), then the feasibility facts, then the
	// optimize results by bus count, then the design outcome.
	reduced := make([]Event, 0, len(out)+2+len(optClosed))
	var done []Event
	for _, e := range out {
		if e.Kind == EvDesignDone {
			done = append(done, e)
			continue
		}
		reduced = append(reduced, e)
	}
	if haveInfeas {
		reduced = append(reduced, Event{Kind: EvProbeClose, K: maxInfeas, Who: "infeasible"})
	}
	if haveFeas {
		reduced = append(reduced, minFeas)
	}
	sortEventsByK(optClosed)
	reduced = append(reduced, optClosed...)
	reduced = append(reduced, done...)
	return reduced
}

func sortEventsByK(events []Event) {
	for i := 1; i < len(events); i++ {
		for j := i; j > 0 && events[j].K < events[j-1].K; j-- {
			events[j], events[j-1] = events[j-1], events[j]
		}
	}
}

// DiffEvents compares two event sequences field by field and returns a
// human-readable description of the first difference, or "" when equal.
// Used by the golden tests and `flightview -canon -diff`.
func DiffEvents(a, b []Event) string {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return fmt.Sprintf("event %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
	if len(a) != len(b) {
		return fmt.Sprintf("length differs: %d vs %d events", len(a), len(b))
	}
	return ""
}
