package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// chromeEvent is one entry of the Chrome trace-event JSON array. Only
// the "X" (complete) and "M" (metadata) phases are emitted.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"` // microseconds since trace start
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// span is one interval rebuilt from a recording's span events.
type span struct {
	name       string
	id, parent int64
	start, end int64 // ns since the recorder's epoch
	ended      bool
	args       map[string]any
}

// WriteChromeTrace renders a flight recording as Chrome trace-event
// JSON (the format chrome://tracing and Perfetto load). It is a view
// over the ring:
//
//   - every span whose begin and end the recording holds becomes an "X"
//     event with its attributes as args (error=true for a failed span);
//     a span whose begin or end the ring has already overwritten, or
//     that has not ended yet, is omitted;
//   - every other event becomes an instant: a zero-duration "X" event
//     named by its kind, with its non-zero payload fields as args, on a
//     "flight events" lane of its own below the span lanes.
//
// Spans are laid out on "threads" (tid lanes) such that each lane holds
// a laminar family — a child always sits on its parent's lane and
// overlapping siblings get distinct lanes — so the viewers render
// call-stack nesting correctly even for the engine's parallel phases.
func WriteChromeTrace(w io.Writer, events []Event) error {
	spans, instants := chromeSpans(events)
	lanes := assignLanes(spans)
	instantLane := 0
	for _, l := range lanes {
		instantLane = max(instantLane, l+1)
	}

	out := make([]chromeEvent, 0, 2+len(spans)+len(instants))
	out = append(out, chromeEvent{
		Name: "process_name", Ph: "M", Pid: 1, Tid: 0,
		Args: map[string]any{"name": "stbusgen"},
	})
	if len(instants) > 0 {
		out = append(out, chromeEvent{
			Name: "thread_name", Ph: "M", Pid: 1, Tid: instantLane,
			Args: map[string]any{"name": "flight events"},
		})
	}
	for i, s := range spans {
		out = append(out, chromeEvent{
			Name: s.name,
			Ph:   "X",
			Ts:   float64(s.start) / 1e3,
			Dur:  float64(s.end-s.start) / 1e3,
			Pid:  1,
			Tid:  lanes[i],
			Args: s.args,
		})
	}
	for _, e := range instants {
		out = append(out, chromeEvent{
			Name: e.Kind.String(),
			Ph:   "X",
			Ts:   float64(e.T) / 1e3,
			Pid:  1,
			Tid:  instantLane,
			Args: payloadArgs(e),
		})
	}

	enc := json.NewEncoder(w)
	if err := enc.Encode(chromeTrace{TraceEvents: out, DisplayTimeUnit: "ms"}); err != nil {
		return fmt.Errorf("obs: writing chrome trace: %w", err)
	}
	return nil
}

// chromeSpans splits a recording into its finished spans, in start
// order, and the events of every other kind. The first begin of
// an ID opens its span; later duplicates, and attributes or ends of
// spans whose begin is absent, are ignored.
func chromeSpans(events []Event) ([]span, []Event) {
	var spans []span
	var instants []Event
	index := map[int64]int{}
	for _, e := range events {
		switch e.Kind {
		case EvSpanBegin:
			if _, dup := index[e.Val]; !dup {
				index[e.Val] = len(spans)
				spans = append(spans, span{name: e.Who, id: e.Val, parent: e.Aux, start: e.T})
			}
		case EvSpanAttr:
			if i, ok := index[e.Val]; ok {
				spans[i].setArg(e.Who, attrValue(e))
			}
		case EvSpanEnd:
			if i, ok := index[e.Val]; ok && !spans[i].ended {
				spans[i].ended = true
				spans[i].end = max(e.T, spans[i].start)
				if e.Flag {
					spans[i].setArg("error", true)
				}
			}
		default:
			instants = append(instants, e)
		}
	}
	finished := spans[:0]
	for _, s := range spans {
		if s.ended {
			finished = append(finished, s)
		}
	}
	// Start order (ties: longer first, then id) is the order lane
	// assignment must see spans in: a parent starts no later than its
	// children and outlives them, so it is placed first.
	sort.Slice(finished, func(a, b int) bool {
		sa, sb := finished[a], finished[b]
		if sa.start != sb.start {
			return sa.start < sb.start
		}
		if da, db := sa.end-sa.start, sb.end-sb.start; da != db {
			return da > db
		}
		return sa.id < sb.id
	})
	return finished, instants
}

func (s *span) setArg(key string, v any) {
	if s.args == nil {
		s.args = map[string]any{}
	}
	s.args[key] = v
}

// attrValue decodes an EvSpanAttr event's value by its type tag.
func attrValue(e Event) any {
	switch e.K {
	case attrBool:
		return e.Aux != 0
	case attrStr:
		return e.Str
	default:
		return e.Aux
	}
}

// payloadArgs lists an event's non-zero payload fields under their
// NDJSON wire names.
func payloadArgs(e Event) map[string]any {
	args := map[string]any{}
	if e.K != 0 {
		args["k"] = e.K
	}
	if e.Val != 0 {
		args["val"] = e.Val
	}
	if e.Aux != 0 {
		args["aux"] = e.Aux
	}
	if e.Who != "" {
		args["who"] = e.Who
	}
	if e.Str != "" {
		args["str"] = e.Str
	}
	if e.Flag {
		args["flag"] = true
	}
	if len(args) == 0 {
		return nil
	}
	return args
}

// assignLanes maps each span (in start order) to a tid lane so that
// every lane is a properly nested (laminar) interval family: a span
// goes on its parent's lane when the parent is the innermost interval
// still open there, otherwise on the first idle lane. Chrome's trace
// viewer stacks time-nested "X" events of one tid, so this renders
// parent/child structure without ever overlapping siblings.
func assignLanes(spans []span) []int {
	type active struct {
		id  int64
		end int64 // ns offset
	}
	laneOf := make([]int, len(spans))
	var stacks [][]active // per-lane stack of open spans
	for i, s := range spans {
		// Retire spans that ended at or before this start.
		for l := range stacks {
			st := stacks[l]
			for len(st) > 0 && st[len(st)-1].end <= s.start {
				st = st[:len(st)-1]
			}
			stacks[l] = st
		}
		lane := -1
		if s.parent != 0 {
			for l, st := range stacks {
				if len(st) > 0 && st[len(st)-1].id == s.parent {
					lane = l
					break
				}
			}
		}
		if lane == -1 {
			for l, st := range stacks {
				if len(st) == 0 {
					lane = l
					break
				}
			}
		}
		if lane == -1 {
			lane = len(stacks)
			stacks = append(stacks, nil)
		}
		stacks[lane] = append(stacks[lane], active{id: s.id, end: s.end})
		laneOf[i] = lane
	}
	return laneOf
}
