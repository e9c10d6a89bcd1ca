// Package obs is the zero-dependency telemetry layer of the design
// engine. It provides three instruments:
//
//   - Hierarchical spans: obs.Start(ctx, "phase1.search") opens a timed
//     span as a child of whatever span already lives in ctx, records
//     wall time and key/value attributes, and — when a Tracer is
//     attached to the context — exports the whole run as Chrome
//     trace-event JSON loadable in chrome://tracing or Perfetto.
//   - A lock-cheap metrics registry: named counters, gauges and
//     histograms backed by atomic operations, exported in the
//     Prometheus text format at /metrics (see prom.go).
//   - The flight recorder: a bounded ring journal of typed solver
//     events, exported as NDJSON and streamed live as Server-Sent
//     Events by StreamEvents (see flight.go and telemetry.go).
//
// ServeTelemetry mounts /metrics and /events on one HTTP listener.
//
// All three are designed so that *disabled* instrumentation is
// near-free: with no Tracer in the context, Start performs one context
// lookup, allocates nothing and returns a nil *Span whose methods are
// no-ops; metric updates are single atomic adds; Emit on a nil
// *FlightRecorder returns at once. Hot loops (the MILP node
// expansion, the simulator event loop) therefore keep their
// instrumentation unconditionally, and golden designs are bit-identical
// with telemetry on or off — the instruments only observe, never
// steer.
package obs

import (
	"context"
	"sync"
	"time"
)

type ctxKey int

const (
	tracerKey ctxKey = iota
	spanKey
)

// WithTracer returns a context carrying tr; spans started under the
// returned context are recorded into it. A nil tr returns ctx unchanged
// (tracing stays disabled).
func WithTracer(ctx context.Context, tr *Tracer) context.Context {
	if tr == nil {
		return ctx
	}
	return context.WithValue(ctx, tracerKey, tr)
}

// TracerFrom returns the Tracer attached to ctx, or nil when tracing is
// disabled. Hot loops that sample spans (see internal/milp) look the
// tracer up once instead of calling Start per iteration.
func TracerFrom(ctx context.Context) *Tracer {
	tr, _ := ctx.Value(tracerKey).(*Tracer)
	return tr
}

// SpanFrom returns the innermost span open in ctx, or nil.
func SpanFrom(ctx context.Context) *Span {
	s, _ := ctx.Value(spanKey).(*Span)
	return s
}

// Start opens a span named name as a child of the span in ctx and
// returns a derived context carrying the new span. When ctx has no
// Tracer the call is a no-op: it returns ctx itself and a nil span
// (whose End and attribute setters are safe no-ops), and performs no
// allocation.
func Start(ctx context.Context, name string) (context.Context, *Span) {
	tr, _ := ctx.Value(tracerKey).(*Tracer)
	if tr == nil {
		return ctx, nil
	}
	parent, _ := ctx.Value(spanKey).(*Span)
	s := tr.startSpan(name, parent)
	return context.WithValue(ctx, spanKey, s), s
}

// StartDetached opens a span recorded into tr as a child of parent
// (nil for a root span) without touching any context. It exists for
// hot loops that already hold the tracer and a parent span and cannot
// afford a context allocation per span (per-node sampling in the MILP
// search).
func StartDetached(tr *Tracer, parent *Span, name string) *Span {
	if tr == nil {
		return nil
	}
	return tr.startSpan(name, parent)
}

// attrKind discriminates the typed attribute payload. Attributes are
// typed rather than `any` so that setting one on a nil (disabled) span
// cannot allocate through interface boxing.
type attrKind uint8

const (
	attrInt attrKind = iota
	attrFloat
	attrStr
	attrBool
)

// Attr is one key/value annotation of a span.
type Attr struct {
	Key  string
	kind attrKind
	i    int64
	f    float64
	s    string
	b    bool
}

// Value returns the attribute's payload as an any (used at export time).
func (a Attr) Value() any {
	switch a.kind {
	case attrFloat:
		return a.f
	case attrStr:
		return a.s
	case attrBool:
		return a.b
	default:
		return a.i
	}
}

// Span is one timed, attributed interval of a traced run. A nil *Span
// is the disabled instrument: every method returns immediately.
//
// A span is owned by the goroutine that started it: SetInt/SetStr/...
// and End must not race with each other. Distinct spans of one Tracer
// may be used concurrently.
type Span struct {
	tracer *Tracer
	name   string
	id     int64
	parent int64 // 0 = root
	start  time.Time
	attrs  []Attr
	ended  bool
}

// SetInt attaches an integer attribute.
func (s *Span) SetInt(key string, v int64) {
	if s == nil {
		return
	}
	s.attrs = append(s.attrs, Attr{Key: key, kind: attrInt, i: v})
}

// SetFloat attaches a float attribute.
func (s *Span) SetFloat(key string, v float64) {
	if s == nil {
		return
	}
	s.attrs = append(s.attrs, Attr{Key: key, kind: attrFloat, f: v})
}

// SetStr attaches a string attribute.
func (s *Span) SetStr(key, v string) {
	if s == nil {
		return
	}
	s.attrs = append(s.attrs, Attr{Key: key, kind: attrStr, s: v})
}

// SetBool attaches a boolean attribute.
func (s *Span) SetBool(key string, v bool) {
	if s == nil {
		return
	}
	s.attrs = append(s.attrs, Attr{Key: key, kind: attrBool, b: v})
}

// SetError marks the span failed: a no-op on nil errors, otherwise it
// attaches error=true plus the error text. Pair it with a deferred End
// on functions with a named error return —
//
//	defer span.End()
//	defer func() { span.SetError(err) }()
//
// — so every failure path annotates the span without touching the
// success path.
func (s *Span) SetError(err error) {
	if s == nil || err == nil {
		return
	}
	s.SetBool("error", true)
	s.SetStr("error_msg", err.Error())
}

// End closes the span and records it into its tracer. End is
// idempotent — a second call (e.g. a deferred safety End after an
// explicit one on the success path) is a no-op, as is calling it on a
// nil span.
func (s *Span) End() {
	if s == nil || s.ended {
		return
	}
	s.ended = true
	s.tracer.finishSpan(s)
}

// SpanRecord is a finished span as stored by the Tracer.
type SpanRecord struct {
	Name   string
	ID     int64
	Parent int64         // 0 = root
	Start  time.Duration // offset from the tracer's epoch
	Dur    time.Duration
	Attrs  []Attr
}

// Tracer collects finished spans for one run. It is safe for
// concurrent use by any number of goroutines.
type Tracer struct {
	epoch time.Time
	now   func() time.Time // test hook; defaults to time.Now

	mu     sync.Mutex
	nextID int64
	done   []SpanRecord
}

// NewTracer returns an empty tracer whose clock starts now.
func NewTracer() *Tracer {
	t := &Tracer{now: time.Now}
	t.epoch = t.now()
	return t
}

func (t *Tracer) startSpan(name string, parent *Span) *Span {
	t.mu.Lock()
	t.nextID++
	id := t.nextID
	t.mu.Unlock()
	s := &Span{tracer: t, name: name, id: id, start: t.now()}
	if parent != nil {
		s.parent = parent.id
	}
	return s
}

func (t *Tracer) finishSpan(s *Span) {
	end := t.now()
	rec := SpanRecord{
		Name:   s.name,
		ID:     s.id,
		Parent: s.parent,
		Start:  s.start.Sub(t.epoch),
		Dur:    end.Sub(s.start),
		Attrs:  s.attrs,
	}
	t.mu.Lock()
	t.done = append(t.done, rec)
	t.mu.Unlock()
}

// Spans returns a copy of the finished spans in completion order.
func (t *Tracer) Spans() []SpanRecord {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]SpanRecord, len(t.done))
	copy(out, t.done)
	return out
}
