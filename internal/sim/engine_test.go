package sim

import (
	"context"
	"math/rand"
	"slices"
	"testing"
)

// pending counts the events not yet fired.
func (e *engine) pending() int { return e.inWheel + len(e.far) }

// fired is one dispatched event as the tests see it.
type fired struct {
	cycle int64
	kind  eventKind
	arg   int32
}

// record runs e to horizon and returns the events it dispatched;
// react, when non-nil, runs after each one is recorded, so a test can
// schedule follow-ups from inside an event.
func record(t *testing.T, e *engine, horizon int64, react func(eventKind, int32)) []fired {
	t.Helper()
	var got []fired
	if _, err := e.run(context.Background(), horizon, func(k eventKind, a int32) {
		got = append(got, fired{e.now, k, a})
		if react != nil {
			react(k, a)
		}
	}); err != nil {
		t.Fatal(err)
	}
	return got
}

func TestEngineOrdering(t *testing.T) {
	var e engine
	e.at(10, evCoreStep, 2)
	e.at(5, evCoreStep, 1)
	e.at(10, evReqDone, 3) // same cycle, later seq
	got := record(t, &e, 100, nil)
	want := []fired{{5, evCoreStep, 1}, {10, evCoreStep, 2}, {10, evReqDone, 3}}
	if !slices.Equal(got, want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
	if e.now != 100 {
		t.Errorf("now = %d, want 100", e.now)
	}
}

// TestEngineOrderRandom checks the timing wheel against a stable sort
// by cycle: events fire in (cycle, scheduling order).
func TestEngineOrderRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var e engine
	var want []fired
	for i := int32(0); i < 2000; i++ {
		c := rng.Int63n(300)
		e.at(c, evMemServe, i)
		want = append(want, fired{c, evMemServe, i})
	}
	slices.SortStableFunc(want, func(a, b fired) int { return int(a.cycle - b.cycle) })
	if got := record(t, &e, 1000, nil); !slices.Equal(got, want) {
		t.Fatal("events fired out of (cycle, seq) order")
	}
}

func TestEngineHorizonCutsOff(t *testing.T) {
	var e engine
	e.at(50, evCoreStep, 0)
	if got := record(t, &e, 20, nil); len(got) != 0 {
		t.Errorf("event past horizon fired: %v", got)
	}
	if n := e.pending(); n != 1 {
		t.Errorf("%d events pending, want 1", n)
	}
	if e.now != 20 {
		t.Errorf("now = %d, want 20", e.now)
	}
}

func TestEngineSchedulingInPastClamps(t *testing.T) {
	var e engine
	e.at(10, evCoreStep, 0)
	got := record(t, &e, 100, func(_ eventKind, a int32) {
		if a == 0 {
			e.at(3, evCoreStep, 1) // in the past: fires "now"
		}
	})
	if len(got) != 2 || got[1] != (fired{10, evCoreStep, 1}) {
		t.Errorf("fired %v, want the past-scheduled event at cycle 10", got)
	}
}

func TestEngineCascade(t *testing.T) {
	var e engine
	e.at(0, evCoreStep, 0)
	got := record(t, &e, 1000, func(_ eventKind, a int32) {
		if a < 4 {
			e.after(7, evCoreStep, a+1)
		}
	})
	if len(got) != 5 || got[4] != (fired{28, evCoreStep, 4}) {
		t.Errorf("fired %v, want 5 ticks ending at cycle 28", got)
	}
	if e.now != 1000 {
		t.Errorf("now = %d, want 1000", e.now)
	}
}

func TestEngineSameCycleChain(t *testing.T) {
	// An event scheduling another at the same cycle fires it in the
	// same cycle, after pending same-cycle events (FIFO by sequence).
	var e engine
	e.at(5, evCoreStep, 'a')
	e.at(5, evCoreStep, 'b')
	got := record(t, &e, 10, func(_ eventKind, a int32) {
		if a == 'a' {
			e.at(5, evCoreStep, 'c')
		}
	})
	want := []fired{{5, evCoreStep, 'a'}, {5, evCoreStep, 'b'}, {5, evCoreStep, 'c'}}
	if !slices.Equal(got, want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
}

// TestEngineMatchesHeapOracle drives the timing wheel and the 4-ary
// heap it replaced (heapEngine, the oracle) through the same random
// operations: delays from 0 to several wheel spans, scheduling from
// inside dispatch in the past, at the current cycle and into the far
// list, and a horizon that stops with far events still pending. Both
// must fire the same (cycle, kind, arg) sequence, stop at the same
// cycle and leave the same number of events pending.
func TestEngineMatchesHeapOracle(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		var wheel engine
		var heap heapEngine
		got, gotEnd := driveRandom(t, seed, &wheel, func() int64 { return wheel.now })
		want, wantEnd := driveRandom(t, seed, &heap, func() int64 { return heap.now })
		if gotEnd != wantEnd {
			t.Fatalf("seed %d: wheel stopped at %d, heap at %d", seed, gotEnd, wantEnd)
		}
		if i := firstDiff(got, want); i >= 0 {
			t.Fatalf("seed %d, event %d of %d/%d: wheel fired %v, heap %v", seed, i, len(got), len(want), nth(got, i), nth(want, i))
		}
		if a, b := wheel.pending(), len(heap.q); a != b {
			t.Fatalf("seed %d: wheel left %d events pending, heap %d", seed, a, b)
		}
	}
}

// queue is the engine API the differential test drives.
type queue interface {
	at(cycle int64, kind eventKind, arg int32)
	run(ctx context.Context, horizon int64, dispatch func(eventKind, int32)) (int64, error)
}

// driveRandom seeds q with a random batch of events, then runs it to a
// random horizon; every fired event may schedule up to two more at a
// random offset from now (negative offsets are in the past). The draws
// depend only on the seed and the sequence fired so far, so two queues
// that agree see the same operations.
func driveRandom(t *testing.T, seed int64, q queue, now func() int64) ([]fired, int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	// A mix of offsets: mostly near, some across and beyond the span.
	offset := func() int64 {
		switch rng.Intn(8) {
		case 0:
			return -rng.Int63n(50) // in the past: fires now
		case 1:
			return 0
		case 2:
			return wheelSpan - 2 + rng.Int63n(4) // either side of the span's edge
		case 3:
			return rng.Int63n(5 * wheelSpan)
		default:
			return rng.Int63n(64)
		}
	}
	next := int32(0)
	for n := 1 + rng.Intn(40); next < int32(n); next++ {
		q.at(rng.Int63n(3*wheelSpan), eventKind(rng.Intn(4)), next)
	}
	horizon := 2*wheelSpan + rng.Int63n(8*wheelSpan)
	var got []fired
	end, err := q.run(context.Background(), horizon, func(k eventKind, a int32) {
		got = append(got, fired{now(), k, a})
		if len(got) > 20000 {
			return // bound the cascade
		}
		for n := rng.Intn(3); n > 0; n-- {
			q.at(now()+offset(), eventKind(rng.Intn(4)), next)
			next++
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return got, end
}

func firstDiff(a, b []fired) int {
	for i := range max(len(a), len(b)) {
		if i >= len(a) || i >= len(b) || a[i] != b[i] {
			return i
		}
	}
	return -1
}

func nth(fs []fired, i int) any {
	if i < len(fs) {
		return fs[i]
	}
	return "nothing"
}

// heapEngine is the engine the timing wheel replaced, kept as the
// differential test's oracle: a 4-ary min-heap of events ordered by
// (cycle, seq), seq being the scheduling order.
type heapEngine struct {
	now int64
	q   []heapEvent
	seq int64
}

type heapEvent struct {
	cycle int64
	seq   int64
	kind  eventKind
	arg   int32
}

func (a *heapEvent) before(b *heapEvent) bool {
	return a.cycle < b.cycle || (a.cycle == b.cycle && a.seq < b.seq)
}

func (e *heapEngine) at(cycle int64, kind eventKind, arg int32) {
	if cycle < e.now {
		cycle = e.now
	}
	ev := heapEvent{cycle: cycle, seq: e.seq, kind: kind, arg: arg}
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

func (e *heapEngine) pop() heapEvent {
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

func (e *heapEngine) run(_ context.Context, horizon int64, dispatch func(eventKind, int32)) (int64, error) {
	for len(e.q) > 0 && e.q[0].cycle <= horizon {
		ev := e.pop()
		e.now = ev.cycle
		dispatch(ev.kind, ev.arg)
	}
	if e.now < horizon {
		e.now = horizon
	}
	return e.now, nil
}
