// Package obs is the zero-dependency telemetry layer of the design
// engine. It provides two instruments:
//
//   - The flight recorder: a bounded ring journal of typed events,
//     carried by the context (see flight.go). Solver facts (probes,
//     incumbents, node batches, cache traffic) and hierarchical spans
//     share the one ring: obs.Start(ctx, "core.search") records a
//     span-begin event as a child of the span already open in ctx, and
//     the span's attributes and its end follow as events of their own.
//     A recording is exported as NDJSON, streamed live as Server-Sent
//     Events by StreamEvents (see telemetry.go), and rendered as Chrome
//     trace-event JSON by WriteChromeTrace (see chrome.go).
//   - A lock-cheap metrics registry: named counters, gauges and
//     histograms backed by atomic operations, exported in the
//     Prometheus text format at /metrics (see prom.go).
//
// ServeTelemetry mounts /metrics and /events on one HTTP listener.
//
// Both are designed so that *disabled* instrumentation is near-free:
// with no recorder in the context, Start performs one context lookup,
// allocates nothing and returns a nil *Span whose methods are no-ops;
// Emit on a nil *FlightRecorder returns at once; metric updates are
// single atomic adds. Hot loops (the branch-and-bound node expansion,
// the simulator event loop) therefore keep their instrumentation
// unconditionally, and golden designs are bit-identical with telemetry
// on or off — the instruments only observe, never steer.
package obs

import (
	"context"
	"sync/atomic"
)

type ctxSpanKey struct{}

// spanIDs numbers spans for the whole process, so spans recorded into
// distinct rings (a daemon's per-job recorders, forwarded into its
// daemon-wide one) never share an ID.
var spanIDs atomic.Int64

// Value types of an EvSpanAttr event, carried in its K field.
const (
	attrInt  = iota // Aux holds the value
	attrBool        // Aux holds 0 or 1
	attrStr         // Str holds the value
)

// Start opens a span named name as a child of the span in ctx and
// returns a derived context carrying the new span. The span is recorded
// into the flight recorder in ctx as an EvSpanBegin event. When ctx has
// no recorder the call is a no-op: it returns ctx itself and a nil span
// (whose End and attribute setters are safe no-ops), and performs no
// allocation. name must be a static string, like Event.Who.
func Start(ctx context.Context, name string) (context.Context, *Span) {
	rec := FlightRecorderFrom(ctx)
	if rec == nil {
		return ctx, nil
	}
	var parent int64
	if p, _ := ctx.Value(ctxSpanKey{}).(*Span); p != nil {
		parent = p.id
	}
	s := &Span{rec: rec, id: spanIDs.Add(1)}
	rec.Emit(Event{Kind: EvSpanBegin, Val: s.id, Aux: parent, Who: name})
	return context.WithValue(ctx, ctxSpanKey{}, s), s
}

// Span is one timed, attributed interval of a recorded run. A nil *Span
// is the disabled instrument: every method returns immediately.
//
// A span is owned by the goroutine that started it: SetInt/SetStr/...
// and End must not race with each other. Distinct spans may be used
// concurrently.
type Span struct {
	rec    *FlightRecorder
	id     int64
	failed bool
	ended  bool
}

// setAttr records one attribute as an EvSpanAttr event.
func (s *Span) setAttr(key string, kind int, v int64, str string) {
	if s == nil {
		return
	}
	s.rec.Emit(Event{Kind: EvSpanAttr, Val: s.id, K: kind, Aux: v, Who: key, Str: str})
}

// SetInt attaches an integer attribute.
func (s *Span) SetInt(key string, v int64) { s.setAttr(key, attrInt, v, "") }

// SetStr attaches a string attribute.
func (s *Span) SetStr(key, v string) { s.setAttr(key, attrStr, 0, v) }

// SetBool attaches a boolean attribute.
func (s *Span) SetBool(key string, v bool) {
	var i int64
	if v {
		i = 1
	}
	s.setAttr(key, attrBool, i, "")
}

// SetError marks the span failed: a no-op on nil errors, otherwise it
// attaches the error text as error_msg and makes End record the span as
// failed. Pair it with a deferred End on functions with a named error
// return —
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
	s.failed = true
	s.SetStr("error_msg", err.Error())
}

// End closes the span, recording an EvSpanEnd event. End is idempotent
// — a second call (e.g. a deferred safety End after an explicit one on
// the success path) is a no-op, as is calling it on a nil span.
func (s *Span) End() {
	if s == nil || s.ended {
		return
	}
	s.ended = true
	s.rec.Emit(Event{Kind: EvSpanEnd, Val: s.id, Flag: s.failed})
}
