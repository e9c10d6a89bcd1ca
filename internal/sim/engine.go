// Package sim is a cycle-accurate, deterministic discrete-event
// simulator for STbus-based MPSoCs. It substitutes for the MPARM /
// SystemC environment the paper uses (Section 4): initiator cores
// execute workload programs (compute, read, write, lock/unlock,
// barrier phases), target memories serve requests after fixed wait
// states, and all bus transfers are arbitrated by the stbus fabrics.
// The simulator both validates candidate crossbars (per-packet latency
// statistics) and produces the functional traffic traces the design
// methodology analyzes.
package sim

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/obs"
)

// Simulator instruments (see internal/obs). sim.events and sim.cycle
// are flushed from the event loop's existing cancellation poll point
// (once every cancelCheckMask+1 events), so live progress costs two
// atomic stores per ~4k events; sim.runs and sim.cycles are bumped
// once per completed run.
var (
	metRuns   = obs.NewCounter("sim.runs")
	metCycles = obs.NewCounter("sim.cycles")
	metEvents = obs.NewCounter("sim.events")
	gagCycle  = obs.NewGauge("sim.cycle")
)

// ErrCanceled reports that a simulation was stopped by its context
// before reaching the horizon. It wraps the context's cause, so
// errors.Is(err, context.Canceled) (or DeadlineExceeded) also holds.
var ErrCanceled = errors.New("sim: run canceled")

// cancelCheckMask throttles context polling in the event loop: the
// context is consulted once every (mask+1) events, keeping the hot
// loop branch-cheap while still reacting to cancellation promptly.
const cancelCheckMask = 4095

// eventKind says what an event does when it fires; the system's
// dispatch switches on it. The argument is a core ID for evCoreStep and
// a transaction tag for the three bus and memory kinds.
type eventKind int32

const (
	// evCoreStep resumes a core's program.
	evCoreStep eventKind = iota
	// evReqDone ends a transaction's request phase: its request bus
	// passes to the next queued transfer and the target starts serving.
	evReqDone
	// evMemServe is the target finishing its wait states: semaphores
	// decide, and the response phase is submitted.
	evMemServe
	// evRespDone ends a transaction's response phase: its response bus
	// passes on, the latency sample is recorded and the core resumes.
	evRespDone
)

// event is one scheduled occurrence. Events fire in (cycle, seq)
// order; seq is the scheduling order, so same-cycle events run first
// scheduled, first fired.
type event struct {
	cycle int64
	seq   int64
	kind  eventKind
	arg   int32
}

func (a *event) before(b *event) bool {
	return a.cycle < b.cycle || (a.cycle == b.cycle && a.seq < b.seq)
}

// engine is a deterministic discrete-event clock over a typed event
// queue: a 4-ary min-heap of event values in one slice, so scheduling
// and firing allocate nothing once the slice has grown to the run's
// peak number of pending events.
type engine struct {
	now int64
	q   []event
	seq int64
}

// at schedules an event at the given cycle. Scheduling in the past
// (including the current cycle) fires it at the current cycle, after
// the already-pending same-cycle events.
func (e *engine) at(cycle int64, kind eventKind, arg int32) {
	if cycle < e.now {
		cycle = e.now
	}
	ev := event{cycle: cycle, seq: e.seq, kind: kind, arg: arg}
	e.seq++
	e.q = append(e.q, ev)
	q := e.q
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !ev.before(&q[p]) {
			break
		}
		q[i] = q[p]
		i = p
	}
	q[i] = ev
}

// after schedules an event delay cycles from now.
func (e *engine) after(delay int64, kind eventKind, arg int32) { e.at(e.now+delay, kind, arg) }

// pop removes and returns the earliest event; the queue must not be
// empty.
func (e *engine) pop() event {
	q := e.q
	top := q[0]
	n := len(q) - 1
	last := q[n]
	q = q[:n]
	e.q = q
	if n == 0 {
		return top
	}
	i := 0
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		m := c
		for j := c + 1; j < c+4 && j < n; j++ {
			if q[j].before(&q[m]) {
				m = j
			}
		}
		if !q[m].before(&last) {
			break
		}
		q[i] = q[m]
		i = m
	}
	q[i] = last
	return top
}

// run fires events in order through dispatch until the queue drains or
// the clock would pass horizon, and returns the cycle the clock
// stopped at (horizon unless canceled). The context is polled every
// few thousand events; a cancellation stops the clock at the current
// cycle and returns an error wrapping ErrCanceled.
func (e *engine) run(ctx context.Context, horizon int64, dispatch func(kind eventKind, arg int32)) (int64, error) {
	var processed, flushed int64
	for len(e.q) > 0 && e.q[0].cycle <= horizon {
		ev := e.pop()
		e.now = ev.cycle
		dispatch(ev.kind, ev.arg)
		processed++
		if processed&cancelCheckMask == 0 {
			metEvents.Add(processed - flushed)
			flushed = processed
			gagCycle.Set(e.now)
			if err := ctx.Err(); err != nil {
				return e.now, fmt.Errorf("%w at cycle %d: %w", ErrCanceled, e.now, context.Cause(ctx))
			}
		}
	}
	if e.now < horizon {
		e.now = horizon
	}
	metEvents.Add(processed - flushed)
	return e.now, nil
}
