package stbus

import (
	"fmt"

	"repro/internal/trace"
)

// Transfer is one bus transaction: Cycles consecutive data beats from
// Sender toward Receiver. Tag is the caller's handle on the transaction
// the transfer belongs to; the fabric only hands it back.
type Transfer struct {
	Sender   int
	Receiver int
	Cycles   int64
	Critical bool
	Tag      int32
}

// Fabric is the runtime state of one interconnect direction. It is
// passive: it schedules nothing. Submit and Release report each grant
// with the cycle the granted transfer completes (the first cycle after
// its last beat, adapter delay included), and the caller must call
// Release for that transfer's bus at that cycle.
type Fabric struct {
	cfg   *Config
	buses []bus

	// Probe, when non-nil, observes every granted transfer; it is how
	// the simulator collects the functional traffic trace.
	Probe func(ev trace.Event)
}

type bus struct {
	busyUntil   int64
	queue       []Transfer
	lastGranted int   // sender index of the last grant (round-robin state)
	busyCycles  int64 // total occupancy, for utilization reporting
	dataBeats   int64 // data cycles only (occupancy minus adapter delay)
	grants      int64
}

// NewFabric creates a fabric over the given configuration.
func NewFabric(cfg *Config) (*Fabric, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	f := &Fabric{cfg: cfg, buses: make([]bus, cfg.NumBuses)}
	for i := range f.buses {
		f.buses[i].lastGranted = cfg.NumSenders - 1 // so sender 0 is first
	}
	return f, nil
}

// Config returns the fabric's configuration.
func (f *Fabric) Config() *Config { return f.cfg }

// Submit requests a transfer at cycle now. If the receiver's bus is
// idle with nothing queued the transfer is granted at once and Submit
// returns true with its completion cycle; otherwise it queues under
// the bus arbiter until a Release grants it.
func (f *Fabric) Submit(t Transfer, now int64) (end int64, granted bool) {
	if t.Cycles <= 0 {
		panic(fmt.Sprintf("stbus: transfer with non-positive length %d", t.Cycles))
	}
	if t.Receiver < 0 || t.Receiver >= f.cfg.NumReceivers {
		panic(fmt.Sprintf("stbus: receiver %d out of range", t.Receiver))
	}
	if t.Sender < 0 || t.Sender >= f.cfg.NumSenders {
		panic(fmt.Sprintf("stbus: sender %d out of range", t.Sender))
	}
	b := &f.buses[f.cfg.BusOf[t.Receiver]]
	if b.busyUntil <= now && len(b.queue) == 0 {
		return f.grant(b, t, now), true
	}
	b.queue = append(b.queue, t)
	return 0, false
}

// Release is called at the cycle a transfer on bus bi completes. If a
// transfer is queued there it is granted back to back, per the
// arbitration policy, and returned with its completion cycle.
func (f *Fabric) Release(bi int, now int64) (next Transfer, end int64, granted bool) {
	b := &f.buses[bi]
	if len(b.queue) == 0 {
		return Transfer{}, 0, false
	}
	idx := f.pick(b)
	next = b.queue[idx]
	b.queue = append(b.queue[:idx], b.queue[idx+1:]...)
	return next, f.grant(b, next, now), true
}

// grant starts a transfer on bus b at the given cycle and returns its
// completion cycle. The adapter delay extends the occupancy but not
// the traced data length.
func (f *Fabric) grant(b *bus, t Transfer, start int64) int64 {
	occupancy := t.Cycles + f.cfg.AdapterDelay
	b.busyUntil = start + occupancy
	b.busyCycles += occupancy
	b.dataBeats += t.Cycles
	b.grants++
	b.lastGranted = t.Sender
	if f.Probe != nil {
		f.Probe(trace.Event{
			Start:    start,
			Len:      t.Cycles,
			Sender:   t.Sender,
			Receiver: t.Receiver,
			Critical: t.Critical,
		})
	}
	return b.busyUntil
}

// pick selects the next queued transfer index per the policy.
func (f *Fabric) pick(b *bus) int {
	switch f.cfg.Arbitration {
	case FixedPriority:
		best := 0
		for i := 1; i < len(b.queue); i++ {
			if b.queue[i].Sender < b.queue[best].Sender {
				best = i
			}
		}
		return best
	default: // RoundRobin
		n := f.cfg.NumSenders
		best, bestDist := 0, n+1
		for i, t := range b.queue {
			dist := (t.Sender - b.lastGranted - 1 + 2*n) % n
			if dist < bestDist {
				best, bestDist = i, dist
			}
		}
		return best
	}
}

// BusUtilization returns per-bus occupancy fractions over the given
// number of simulated cycles.
func (f *Fabric) BusUtilization(horizon int64) []float64 {
	out := make([]float64, len(f.buses))
	for i := range f.buses {
		out[i] = float64(f.buses[i].busyCycles) / float64(horizon)
	}
	return out
}

// Grants returns the total number of transfers granted per bus.
func (f *Fabric) Grants() []int64 {
	out := make([]int64, len(f.buses))
	for i := range f.buses {
		out[i] = f.buses[i].grants
	}
	return out
}

// DataBeats returns the total delivered data beats across all buses
// (excluding adapter-delay stretch), the numerator of the fabric's
// aggregate throughput.
func (f *Fabric) DataBeats() int64 {
	var n int64
	for i := range f.buses {
		n += f.buses[i].dataBeats
	}
	return n
}

// Pending returns the total number of queued (not yet granted)
// transfers across all buses; useful for drain checks in tests.
func (f *Fabric) Pending() int {
	n := 0
	for i := range f.buses {
		n += len(f.buses[i].queue)
	}
	return n
}
