package sim

import (
	"context"
	"math/rand"
	"slices"
	"testing"
)

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

// TestEngineHeapOrderRandom checks the 4-ary heap against a stable
// sort by cycle: events fire in (cycle, scheduling order).
func TestEngineHeapOrderRandom(t *testing.T) {
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
	if len(e.q) != 1 {
		t.Errorf("%d events pending, want 1", len(e.q))
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
