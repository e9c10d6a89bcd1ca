package stbus

import (
	"slices"
	"testing"

	"repro/internal/trace"
)

// finish is a granted transfer's completion: its tag and cycle.
type finish struct {
	tag   int32
	cycle int64
}

// caller plays the simulator's side of the passive fabric: it keeps
// the finish of every granted transfer, and when one comes due it
// releases that transfer's bus and records the completion.
type caller struct {
	f        *Fabric
	receiver map[int32]int // tag → receiver, to find the bus to release
	pending  []finish      // in firing order: cycle, then grant order
	done     []finish
}

func newCaller(t *testing.T, cfg *Config) *caller {
	t.Helper()
	f, err := NewFabric(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return &caller{f: f, receiver: map[int32]int{}}
}

func (c *caller) submit(t Transfer, now int64) {
	c.receiver[t.Tag] = t.Receiver
	if end, ok := c.f.Submit(t, now); ok {
		c.schedule(t.Tag, end)
	}
}

func (c *caller) schedule(tag int32, end int64) {
	i := len(c.pending)
	for i > 0 && c.pending[i-1].cycle > end {
		i--
	}
	c.pending = slices.Insert(c.pending, i, finish{tag, end})
}

// runUntil fires every finish due at or before cycle limit.
func (c *caller) runUntil(limit int64) {
	for len(c.pending) > 0 && c.pending[0].cycle <= limit {
		fin := c.pending[0]
		c.pending = c.pending[1:]
		if next, end, ok := c.f.Release(c.f.cfg.BusOf[c.receiver[fin.tag]], fin.cycle); ok {
			c.schedule(next.Tag, end)
		}
		c.done = append(c.done, fin)
	}
}

func (c *caller) run() { c.runUntil(1 << 62) }

// completedAt returns the cycle the transfer with the given tag
// completed, or -1.
func (c *caller) completedAt(tag int32) int64 {
	for _, d := range c.done {
		if d.tag == tag {
			return d.cycle
		}
	}
	return -1
}

// order returns the completed tags in completion order.
func (c *caller) order() []int32 {
	var tags []int32
	for _, d := range c.done {
		tags = append(tags, d.tag)
	}
	return tags
}

func TestFabricImmediateGrant(t *testing.T) {
	c := newCaller(t, Full(2, 2))
	end, ok := c.f.Submit(Transfer{Sender: 0, Receiver: 1, Cycles: 5}, 0)
	if !ok || end != 5 {
		t.Errorf("Submit = (%d, %v), want a grant completing at 5", end, ok)
	}
}

func TestFabricSerializesSameBus(t *testing.T) {
	c := newCaller(t, Shared(2, 2))
	c.submit(Transfer{Sender: 0, Receiver: 0, Cycles: 10, Tag: 1}, 0)
	c.submit(Transfer{Sender: 1, Receiver: 1, Cycles: 10, Tag: 2}, 0)
	c.run()
	if got := c.completedAt(1); got != 10 {
		t.Errorf("first transfer completed at %d, want 10", got)
	}
	if got := c.completedAt(2); got != 20 {
		t.Errorf("second transfer completed at %d, want 20 (serialized)", got)
	}
}

func TestFabricParallelBuses(t *testing.T) {
	c := newCaller(t, Full(2, 2))
	c.submit(Transfer{Sender: 0, Receiver: 0, Cycles: 10, Tag: 1}, 0)
	c.submit(Transfer{Sender: 1, Receiver: 1, Cycles: 10, Tag: 2}, 0)
	c.run()
	if a, b := c.completedAt(1), c.completedAt(2); a != 10 || b != 10 {
		t.Errorf("completions %d,%d, want 10,10 (parallel buses)", a, b)
	}
}

func TestFabricRoundRobinFairness(t *testing.T) {
	cfg := Shared(3, 1)
	cfg.Arbitration = RoundRobin
	c := newCaller(t, cfg)
	// Sender 2 submits first and wins the idle bus; 1 and 0 queue.
	// Round-robin after a grant to 2 prefers 0 over 1. Tags are the
	// senders.
	for _, s := range []int{2, 1, 0} {
		c.submit(Transfer{Sender: s, Receiver: 0, Cycles: 1, Tag: int32(s)}, 0)
	}
	c.run()
	if got, want := c.order(), []int32{2, 0, 1}; !slices.Equal(got, want) {
		t.Fatalf("grant order %v, want %v", got, want)
	}
}

func TestFabricFixedPriority(t *testing.T) {
	cfg := Shared(3, 1)
	cfg.Arbitration = FixedPriority
	c := newCaller(t, cfg)
	for _, s := range []int{2, 1, 0} { // 2 wins the idle bus
		c.submit(Transfer{Sender: s, Receiver: 0, Cycles: 1, Tag: int32(s)}, 0)
	}
	c.run()
	if got, want := c.order(), []int32{2, 0, 1}; !slices.Equal(got, want) {
		t.Fatalf("grant order %v, want %v", got, want)
	}
}

func TestFabricProbeRecordsEvents(t *testing.T) {
	c := newCaller(t, Shared(2, 2))
	var events []trace.Event
	c.f.Probe = func(ev trace.Event) { events = append(events, ev) }
	c.submit(Transfer{Sender: 0, Receiver: 1, Cycles: 4, Critical: true, Tag: 1}, 0)
	c.submit(Transfer{Sender: 1, Receiver: 0, Cycles: 2, Tag: 2}, 0)
	c.run()
	if len(events) != 2 {
		t.Fatalf("probe saw %d events, want 2", len(events))
	}
	if events[0] != (trace.Event{Start: 0, Len: 4, Sender: 0, Receiver: 1, Critical: true}) {
		t.Errorf("event 0 = %+v", events[0])
	}
	if events[1] != (trace.Event{Start: 4, Len: 2, Sender: 1, Receiver: 0}) {
		t.Errorf("event 1 = %+v (should start after first completes)", events[1])
	}
}

// TestFabricSubmitBeforeFinishFires submits a transfer in the cycle its
// bus frees, before the finish of the transfer in flight has been
// processed. The bus is already free, so the newcomer is granted at
// once; the finish that comes due first must still be the in-flight
// transfer's, which is why callers key finishes by tag, not by bus.
func TestFabricSubmitBeforeFinishFires(t *testing.T) {
	c := newCaller(t, Shared(2, 1))
	var events []trace.Event
	c.f.Probe = func(ev trace.Event) { events = append(events, ev) }
	c.submit(Transfer{Sender: 0, Receiver: 0, Cycles: 5, Tag: 1}, 0)
	c.runUntil(4)
	c.submit(Transfer{Sender: 1, Receiver: 0, Cycles: 3, Tag: 2}, 5)
	if len(events) != 2 || events[1].Start != 5 {
		t.Fatalf("probe saw %+v, want the second transfer granted at 5", events)
	}
	c.run()
	if want := []finish{{1, 5}, {2, 8}}; !slices.Equal(c.done, want) {
		t.Fatalf("completions %v, want %v", c.done, want)
	}
	if c.f.Pending() != 0 {
		t.Errorf("pending = %d, want 0", c.f.Pending())
	}
}

func TestFabricUtilizationAndGrants(t *testing.T) {
	c := newCaller(t, Partial(1, []int{0, 1}))
	c.submit(Transfer{Sender: 0, Receiver: 0, Cycles: 30, Tag: 1}, 0)
	c.submit(Transfer{Sender: 0, Receiver: 1, Cycles: 10, Tag: 2}, 0)
	c.run()
	util := c.f.BusUtilization(100)
	if util[0] != 0.3 || util[1] != 0.1 {
		t.Errorf("utilization = %v, want [0.3 0.1]", util)
	}
	grants := c.f.Grants()
	if grants[0] != 1 || grants[1] != 1 {
		t.Errorf("grants = %v, want [1 1]", grants)
	}
	if c.f.Pending() != 0 {
		t.Errorf("pending = %d, want 0", c.f.Pending())
	}
}

func TestFabricSubmitPanics(t *testing.T) {
	f, _ := NewFabric(Shared(1, 1))
	for name, tr := range map[string]Transfer{
		"zero cycles":  {Sender: 0, Receiver: 0, Cycles: 0},
		"bad receiver": {Sender: 0, Receiver: 5, Cycles: 1},
		"bad sender":   {Sender: 9, Receiver: 0, Cycles: 1},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			f.Submit(tr, 0)
		}()
	}
}

func TestNewFabricRejectsInvalidConfig(t *testing.T) {
	cfg := &Config{NumSenders: 1, NumReceivers: 1, NumBuses: 0}
	if _, err := NewFabric(cfg); err == nil {
		t.Error("invalid config accepted")
	}
}

func TestFabricBackToBackGrants(t *testing.T) {
	// Three queued transfers on one bus must occupy contiguous slots.
	c := newCaller(t, Shared(1, 3))
	var events []trace.Event
	c.f.Probe = func(ev trace.Event) { events = append(events, ev) }
	for r := 0; r < 3; r++ {
		c.submit(Transfer{Sender: 0, Receiver: r, Cycles: 7, Tag: int32(r)}, 0)
	}
	c.run()
	if len(events) != 3 {
		t.Fatalf("probe saw %d events, want 3", len(events))
	}
	for i, ev := range events {
		if ev.Start != int64(i)*7 {
			t.Errorf("event %d starts at %d, want %d", i, ev.Start, i*7)
		}
	}
}
