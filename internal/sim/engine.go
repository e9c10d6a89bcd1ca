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
	"math/bits"
	"slices"
	"sort"

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

// wheelSpan is the number of cycles the timing wheel covers, one FIFO
// slot per cycle; a power of two so a cycle's slot is a mask away.
// Almost every event is due within a few hundred cycles of being
// scheduled; the rest wait in the far list.
const (
	wheelSpan = 1024
	wheelMask = wheelSpan - 1
)

// node is one event waiting in a wheel slot; next links the slot's
// FIFO (or the free list) by index into engine.nodes, 0 ending it.
type node struct {
	next int32
	kind eventKind
	arg  int32
}

// farEvent is an event due wheelSpan or more cycles after it was
// scheduled.
type farEvent struct {
	cycle int64
	kind  eventKind
	arg   int32
}

// engine is a deterministic discrete-event clock over a timing wheel
// (Varghese & Lauck, SOSP 1987) keyed on the cycle. Events fire in
// (cycle, scheduling order). The wheel holds every event due in
// [now, now+wheelSpan): slot cycle&wheelMask is the FIFO of that cycle
// and occ marks the non-empty slots. Events due later wait in far,
// sorted by cycle, and move into the wheel as soon as now comes within
// the span, before anything fires at the new now; an event scheduled
// straight into the same slot is scheduled later still, so FIFO order
// is scheduling order. Slot FIFOs are linked lists over one node
// slice with a free list, so scheduling and firing allocate nothing
// once the nodes have grown to the run's peak number of pending events.
// The zero value is an empty engine at cycle 0.
type engine struct {
	now        int64
	head, tail [wheelSpan]int32 // per-slot FIFO ends; 0 is empty
	occ        [wheelSpan / 64]uint64
	inWheel    int
	nodes      []node // nodes[0] is unused, so index 0 means "none"
	free       int32
	// far is sorted by cycle, latest first; equal cycles keep
	// scheduling order from the back, so the next due is far[len-1].
	far []farEvent
}

// at schedules an event at the given cycle. Scheduling in the past
// (including the current cycle) fires it at the current cycle, after
// the already-pending same-cycle events.
func (e *engine) at(cycle int64, kind eventKind, arg int32) {
	if cycle < e.now {
		cycle = e.now
	}
	if cycle-e.now >= wheelSpan {
		// After every pending event due at or before cycle, before
		// every one due later.
		i := sort.Search(len(e.far), func(i int) bool { return e.far[i].cycle <= cycle })
		e.far = slices.Insert(e.far, i, farEvent{cycle, kind, arg})
		return
	}
	e.push(int(cycle)&wheelMask, kind, arg)
}

// after schedules an event delay cycles from now.
func (e *engine) after(delay int64, kind eventKind, arg int32) { e.at(e.now+delay, kind, arg) }

// push appends an event to the FIFO of a wheel slot.
func (e *engine) push(slot int, kind eventKind, arg int32) {
	i := e.free
	if i != 0 {
		e.free = e.nodes[i].next
		e.nodes[i] = node{kind: kind, arg: arg}
	} else {
		if len(e.nodes) == 0 {
			e.nodes = append(e.nodes, node{})
		}
		i = int32(len(e.nodes))
		e.nodes = append(e.nodes, node{kind: kind, arg: arg})
	}
	if t := e.tail[slot]; t != 0 {
		e.nodes[t].next = i
	} else {
		e.head[slot] = i
		e.occ[slot>>6] |= 1 << (slot & 63)
	}
	e.tail[slot] = i
	e.inWheel++
}

// next returns the cycle of the earliest pending event.
func (e *engine) next() (int64, bool) {
	if e.inWheel == 0 {
		if n := len(e.far); n > 0 {
			return e.far[n-1].cycle, true
		}
		return 0, false
	}
	// Every wheel event is due in [now, now+wheelSpan), so the first
	// occupied slot at or after now's, wrapping around, is the
	// earliest. The last probe revisits now's word for the slots
	// before it.
	cur := int(e.now) & wheelMask
	w := cur >> 6
	if m := e.occ[w] >> (cur & 63); m != 0 {
		return e.now + int64(bits.TrailingZeros64(m)), true
	}
	for i := 1; i <= len(e.occ); i++ {
		j := (w + i) & (len(e.occ) - 1)
		if m := e.occ[j]; m != 0 {
			slot := j<<6 | bits.TrailingZeros64(m)
			return e.now + int64((slot-cur)&wheelMask), true
		}
	}
	panic("sim: timing wheel count disagrees with its bitmap")
}

// advance moves the clock to cycle, no earlier than any pending event,
// and brings the far events now within the span into the wheel.
func (e *engine) advance(cycle int64) {
	e.now = cycle
	for n := len(e.far); n > 0 && e.far[n-1].cycle-cycle < wheelSpan; n-- {
		f := e.far[n-1]
		e.far = e.far[:n-1]
		e.push(int(f.cycle)&wheelMask, f.kind, f.arg)
	}
}

// pop removes the first event of now's slot; it must not be empty.
func (e *engine) pop() (eventKind, int32) {
	slot := int(e.now) & wheelMask
	i := e.head[slot]
	n := e.nodes[i]
	e.head[slot] = n.next
	if n.next == 0 {
		e.tail[slot] = 0
		e.occ[slot>>6] &^= 1 << (slot & 63)
	}
	e.nodes[i].next = e.free
	e.free = i
	e.inWheel--
	return n.kind, n.arg
}

// run fires events in order through dispatch until the queue drains or
// the clock would pass horizon, and returns the cycle the clock
// stopped at (horizon unless canceled). The context is polled every
// few thousand events; a cancellation stops the clock at the current
// cycle and returns an error wrapping ErrCanceled.
func (e *engine) run(ctx context.Context, horizon int64, dispatch func(kind eventKind, arg int32)) (int64, error) {
	var processed, flushed int64
	for {
		cycle, ok := e.next()
		if !ok || cycle > horizon {
			break
		}
		if cycle != e.now {
			e.advance(cycle)
		}
		dispatch(e.pop())
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
		e.advance(horizon)
	}
	metEvents.Add(processed - flushed)
	return e.now, nil
}
