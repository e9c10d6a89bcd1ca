package sim

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"

	"repro/internal/obs"
	"repro/internal/stats"
	"repro/internal/stbus"
	"repro/internal/trace"
)

// ErrInvalidConfig is wrapped around every configuration validation
// failure, letting callers distinguish "the config is wrong" from
// runtime failures with errors.Is across layer boundaries.
var ErrInvalidConfig = errors.New("sim: invalid configuration")

// Config describes a complete MPSoC simulation: the platform (two
// interconnect directions, memory timing) plus one program per
// initiator core.
type Config struct {
	NumInitiators int
	NumTargets    int
	// Programs[i] is the op sequence core i executes (once).
	Programs [][]Op
	// Req configures the initiator→target crossbar (receivers are
	// targets); Resp the target→initiator crossbar (receivers are
	// initiators).
	Req, Resp *stbus.Config
	// MemWait is the target service latency in cycles between the end
	// of the request phase and the start of the response phase.
	MemWait int64
	// ReqCycles is the request-phase bus occupancy of a read (the
	// address beat); writes occupy ReqCycles+Burst.
	ReqCycles int64
	// LockRetry is the base back-off in cycles between semaphore
	// acquisition attempts.
	LockRetry int64
	// SemTargets lists target indices that behave as semaphore devices.
	SemTargets []int
	// PostedWrites makes writes non-blocking (STbus posted operations):
	// the core continues immediately after handing the write to its
	// port, bounded by MaxOutstandingWrites in-flight writes per core.
	PostedWrites bool
	// MaxOutstandingWrites is the per-core posted-write FIFO depth
	// (default 4; only used with PostedWrites).
	MaxOutstandingWrites int
	// MemWaitOf optionally overrides MemWait per target (length
	// NumTargets), modeling heterogeneous memory service latencies.
	MemWaitOf []int64
	// Horizon is the simulated length in cycles.
	Horizon int64
	// CollectTrace enables functional traffic trace collection.
	CollectTrace bool
}

// Validate checks the configuration. Every failure wraps
// ErrInvalidConfig.
func (c *Config) Validate() error {
	if err := c.validate(); err != nil {
		return fmt.Errorf("%w: %w", ErrInvalidConfig, err)
	}
	return nil
}

func (c *Config) validate() error {
	if c.NumInitiators <= 0 || c.NumTargets <= 0 {
		return errors.New("sim: need at least one initiator and one target")
	}
	if len(c.Programs) != c.NumInitiators {
		return fmt.Errorf("sim: %d programs for %d initiators", len(c.Programs), c.NumInitiators)
	}
	if c.Horizon <= 0 {
		return errors.New("sim: Horizon must be positive")
	}
	if c.MemWait < 0 || c.ReqCycles <= 0 {
		return errors.New("sim: MemWait must be >= 0 and ReqCycles > 0")
	}
	if c.MemWaitOf != nil {
		if len(c.MemWaitOf) != c.NumTargets {
			return fmt.Errorf("sim: MemWaitOf has %d entries, want %d", len(c.MemWaitOf), c.NumTargets)
		}
		for t, w := range c.MemWaitOf {
			if w < 0 {
				return fmt.Errorf("sim: MemWaitOf[%d] is negative", t)
			}
		}
	}
	if c.MaxOutstandingWrites < 0 {
		return errors.New("sim: MaxOutstandingWrites must be >= 0")
	}
	if c.Req == nil || c.Resp == nil {
		return errors.New("sim: both interconnect directions must be configured")
	}
	if c.Req.NumSenders != c.NumInitiators || c.Req.NumReceivers != c.NumTargets {
		return fmt.Errorf("sim: request fabric is %d→%d, want %d→%d",
			c.Req.NumSenders, c.Req.NumReceivers, c.NumInitiators, c.NumTargets)
	}
	if c.Resp.NumSenders != c.NumTargets || c.Resp.NumReceivers != c.NumInitiators {
		return fmt.Errorf("sim: response fabric is %d→%d, want %d→%d",
			c.Resp.NumSenders, c.Resp.NumReceivers, c.NumTargets, c.NumInitiators)
	}
	isSem := make([]bool, c.NumTargets)
	for _, t := range c.SemTargets {
		if t < 0 || t >= c.NumTargets {
			return fmt.Errorf("sim: semaphore target %d out of range", t)
		}
		isSem[t] = true
	}
	for i, prog := range c.Programs {
		for pc, op := range prog {
			switch op.Kind {
			case OpRead, OpWrite:
				if op.Burst <= 0 {
					return fmt.Errorf("sim: core %d op %d: burst must be positive", i, pc)
				}
				fallthrough
			case OpLock, OpUnlock, OpBarrier:
				if op.Target < 0 || op.Target >= c.NumTargets {
					return fmt.Errorf("sim: core %d op %d: target %d out of range", i, pc, op.Target)
				}
				if (op.Kind == OpLock || op.Kind == OpUnlock) && !isSem[op.Target] {
					return fmt.Errorf("sim: core %d op %d: %v of target %d, which is not a semaphore", i, pc, op.Kind, op.Target)
				}
			case OpCompute:
				if op.Cycles < 0 {
					return fmt.Errorf("sim: core %d op %d: negative compute", i, pc)
				}
			}
		}
	}
	return nil
}

// Result is what a simulation run produces.
type Result struct {
	// Latency holds one sample per completed transaction (reads,
	// writes, and the synchronization accesses).
	Latency *stats.Recorder
	// ReqTrace / RespTrace are the functional traces of the two
	// directions (nil unless CollectTrace was set).
	ReqTrace, RespTrace *trace.Trace
	// ReqUtil / RespUtil are per-bus occupancy fractions.
	ReqUtil, RespUtil []float64
	// ReqGrants / RespGrants count transfers granted per bus.
	ReqGrants, RespGrants []int64
	// ReqBeats / RespBeats are total delivered data beats per
	// direction; divided by EndCycle they give aggregate throughput in
	// words per cycle (the metric a full crossbar maximizes).
	ReqBeats, RespBeats int64
	// Completed counts cores that ran their program to completion
	// within the horizon.
	Completed int
	// EndCycle is the cycle the simulation stopped at.
	EndCycle int64
}

// system is the runtime state of one simulation. It allocates in
// proportion to its cores, buses and peak in-flight transactions; the
// per-transaction state lives in reused txn records, and the event
// queue, the fabric queues and the output buffers only grow.
type system struct {
	cfg   *Config
	eng   engine
	req   *stbus.Fabric
	resp  *stbus.Fabric
	cores []core
	txns  []txn
	free  []int32     // tags of finished txns, reused first
	sems  []semaphore // by target; only SemTargets entries are used
	bars  []barrier   // barriers with arrivals pending

	// Output buffers, borrowed from outPool. The Result gets exact
	// copies, so it retains no spare capacity.
	out *outBuffers
}

// outBuffers collect a run's latency samples and trace events. They
// are reused across runs without clearing: a run only reads back what
// it appended.
type outBuffers struct {
	samples               []stats.Sample
	reqEvents, respEvents []trace.Event
}

// outPool keeps outBuffers between runs, so a run neither zeroes nor
// regrows its collection buffers once the pool is warm.
var outPool = sync.Pool{New: func() any { return new(outBuffers) }}

type core struct {
	program []Op
	pc      int
	done    bool
	// Posted-write state: remaining FIFO credits and whether the core
	// is parked waiting for one.
	writeCredits   int
	awaitingCredit bool
}

// txn is one read, write, lock attempt, unlock or barrier access, from
// issue to its response; its index in system.txns is the tag its bus
// transfers and events carry.
type txn struct {
	issue    int64 // cycle the core issued the access
	respLen  int64 // response-phase beats
	barrier  int   // OpBarrier: the barrier ID
	core     int32
	target   int32
	kind     OpKind
	critical bool
	blocking bool // OpWrite: the core waits for the acknowledgement
	acquired bool // OpLock: this attempt took the semaphore
}

type semaphore struct {
	held  bool
	owner int32
}

type barrier struct {
	id      int
	waiters []int32 // cores arrived so far, in arrival order
}

// Run executes the simulation described by cfg and returns its results.
func Run(cfg Config) (*Result, error) {
	return RunCtx(context.Background(), cfg)
}

// RunCtx is Run with cooperative cancellation: the event loop polls
// ctx and a cancellation aborts the simulation with an error wrapping
// ErrCanceled. A completed run is unaffected by the context.
func RunCtx(ctx context.Context, cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	ctx, span := obs.Start(ctx, "sim.run")
	defer span.End()
	span.SetInt("initiators", int64(cfg.NumInitiators))
	span.SetInt("targets", int64(cfg.NumTargets))
	span.SetInt("horizon", cfg.Horizon)
	metRuns.Inc()
	if cfg.LockRetry <= 0 {
		cfg.LockRetry = 16
	}
	if cfg.PostedWrites && cfg.MaxOutstandingWrites == 0 {
		cfg.MaxOutstandingWrites = 4
	}
	req, err := stbus.NewFabric(cfg.Req)
	if err != nil {
		return nil, fmt.Errorf("sim: request fabric: %w", err)
	}
	resp, err := stbus.NewFabric(cfg.Resp)
	if err != nil {
		return nil, fmt.Errorf("sim: response fabric: %w", err)
	}
	s := &system{
		cfg:   &cfg,
		req:   req,
		resp:  resp,
		cores: make([]core, cfg.NumInitiators),
		sems:  make([]semaphore, cfg.NumTargets),
		out:   outPool.Get().(*outBuffers),
	}
	defer outPool.Put(s.out)
	// Every bus op is one transaction with one sample and one transfer
	// per direction; only lock retries add more.
	accesses := busOps(cfg.Programs)
	out := s.out
	out.samples = slices.Grow(out.samples[:0], accesses)
	if cfg.CollectTrace {
		// A trace holds the transfers granted before the horizon, a
		// transfer running past it cut there.
		horizon := cfg.Horizon
		collect := func(events *[]trace.Event) func(trace.Event) {
			*events = slices.Grow((*events)[:0], accesses)
			return func(ev trace.Event) {
				if ev.Start >= horizon {
					return
				}
				if ev.End() > horizon {
					ev.Len = horizon - ev.Start
				}
				*events = append(*events, ev)
			}
		}
		req.Probe = collect(&out.reqEvents)
		resp.Probe = collect(&out.respEvents)
	}
	for i := range s.cores {
		s.cores[i] = core{program: cfg.Programs[i], writeCredits: cfg.MaxOutstandingWrites}
		s.eng.at(0, evCoreStep, int32(i))
	}
	end, err := s.eng.run(ctx, cfg.Horizon, s.dispatch)
	if err != nil {
		return nil, err
	}
	metCycles.Add(end)
	span.SetInt("end_cycle", end)

	res := &Result{
		Latency:    stats.RecorderOf(exact(out.samples)),
		ReqUtil:    req.BusUtilization(end),
		RespUtil:   resp.BusUtilization(end),
		ReqGrants:  req.Grants(),
		RespGrants: resp.Grants(),
		ReqBeats:   req.DataBeats(),
		RespBeats:  resp.DataBeats(),
		EndCycle:   end,
	}
	for _, c := range s.cores {
		if c.done {
			res.Completed++
		}
	}
	if cfg.CollectTrace {
		res.ReqTrace = &trace.Trace{
			NumSenders:   cfg.NumInitiators,
			NumReceivers: cfg.NumTargets,
			Horizon:      end,
			Events:       exact(out.reqEvents),
		}
		res.RespTrace = &trace.Trace{
			NumSenders:   cfg.NumTargets,
			NumReceivers: cfg.NumInitiators,
			Horizon:      end,
			Events:       exact(out.respEvents),
		}
	}
	return res, nil
}

// exact returns a copy of s, never nil, whose capacity is its length.
// Appending to an empty slice writes each element once: only the
// allocation's rounding slack past the length is cleared.
func exact[T any](s []T) []T { return slices.Clip(append(make([]T, 0), s...)) }

// busOps counts the ops of the programs that go over the interconnect.
func busOps(programs [][]Op) int {
	n := 0
	for _, prog := range programs {
		for _, op := range prog {
			if op.Kind != OpCompute {
				n++
			}
		}
	}
	return n
}

// Throughput returns the aggregate delivered words per cycle over both
// directions.
func (r *Result) Throughput() float64 {
	if r.EndCycle == 0 {
		return 0
	}
	return float64(r.ReqBeats+r.RespBeats) / float64(r.EndCycle)
}

// dispatch fires one event.
func (s *system) dispatch(kind eventKind, arg int32) {
	switch kind {
	case evCoreStep:
		s.step(arg)
	case evReqDone:
		t := &s.txns[arg]
		s.release(s.req, int(t.target), evReqDone)
		s.eng.after(s.memWait(t.target), evMemServe, arg)
	case evMemServe:
		t := &s.txns[arg]
		// The semaphore decides when the request is serviced at the
		// device, so lock attempts arbitrated earlier on its bus win.
		switch t.kind {
		case OpLock:
			sem := &s.sems[t.target]
			t.acquired = !sem.held
			if t.acquired {
				sem.held, sem.owner = true, t.core
			}
		case OpUnlock:
			if sem := &s.sems[t.target]; sem.held && sem.owner == t.core {
				sem.held = false
			}
		}
		s.submit(s.resp, stbus.Transfer{
			Sender:   int(t.target),
			Receiver: int(t.core),
			Cycles:   t.respLen,
			Critical: t.critical,
			Tag:      arg,
		}, evRespDone)
	case evRespDone:
		t := s.txns[arg]
		s.free = append(s.free, arg)
		s.release(s.resp, int(t.core), evRespDone)
		s.complete(&t)
	default:
		panic(fmt.Sprintf("sim: unknown event kind %d", kind))
	}
}

// submit hands a transfer to a fabric and, if it is granted at once,
// schedules its finish event.
func (s *system) submit(f *stbus.Fabric, t stbus.Transfer, finish eventKind) {
	if end, ok := f.Submit(t, s.eng.now); ok {
		s.eng.at(end, finish, t.Tag)
	}
}

// release frees the bus of the receiver whose transfer just finished
// and schedules the finish event of the transfer granted next, if any.
// The finish event names its transaction rather than its bus: a bus
// can be granted again in the very cycle it frees, before the finish
// event of its previous transfer has fired.
func (s *system) release(f *stbus.Fabric, receiver int, finish eventKind) {
	if next, end, ok := f.Release(f.Config().BusOf[receiver], s.eng.now); ok {
		s.eng.at(end, finish, next.Tag)
	}
}

// step advances core id's program until it blocks or finishes.
func (s *system) step(id int32) {
	c := &s.cores[id]
	for c.pc < len(c.program) {
		op := &c.program[c.pc]
		switch op.Kind {
		case OpCompute:
			c.pc++
			if op.Cycles > 0 {
				s.eng.after(op.Cycles, evCoreStep, id)
				return
			}
		case OpWrite:
			if s.cfg.PostedWrites {
				if c.writeCredits == 0 {
					c.awaitingCredit = true
					return // resumed when an ack frees a credit
				}
				c.writeCredits--
				c.pc++
				s.issue(id, op, false)
				continue
			}
			c.pc++
			s.issue(id, op, true)
			return
		case OpLock:
			// The pc advances only once an attempt acquires the lock.
			s.issue(id, op, true)
			return
		case OpRead, OpUnlock, OpBarrier:
			c.pc++
			s.issue(id, op, true)
			return
		default:
			panic(fmt.Sprintf("sim: unknown op kind %v", op.Kind))
		}
	}
	c.done = true
}

// issue starts a transaction for op on behalf of core id: its request
// phase goes on the initiator→target crossbar; after the target's
// service latency (evMemServe) its response phase goes on the
// target→initiator crossbar. A read's response carries its burst, and
// every other access is answered by a one-beat acknowledgement. A
// write's request carries its burst, and an unlock or a barrier signal
// is a one-word write.
func (s *system) issue(id int32, op *Op, blocking bool) {
	reqLen, respLen := s.cfg.ReqCycles, int64(1)
	switch op.Kind {
	case OpRead:
		respLen = op.Burst
	case OpWrite:
		reqLen += op.Burst
	case OpUnlock, OpBarrier:
		reqLen++
	}
	var tag int32
	if n := len(s.free); n > 0 {
		tag, s.free = s.free[n-1], s.free[:n-1]
	} else {
		tag = int32(len(s.txns))
		s.txns = append(s.txns, txn{})
	}
	s.txns[tag] = txn{
		issue:    s.eng.now,
		respLen:  respLen,
		barrier:  op.Barrier,
		core:     id,
		target:   int32(op.Target),
		kind:     op.Kind,
		critical: op.Critical,
		blocking: blocking,
	}
	s.submit(s.req, stbus.Transfer{
		Sender:   int(id),
		Receiver: op.Target,
		Cycles:   reqLen,
		Critical: op.Critical,
		Tag:      tag,
	}, evReqDone)
}

// complete records a transaction whose response has just arrived and
// moves its core on: a blocking access resumes it, a posted write's
// acknowledgement returns a FIFO credit (unparking a core waiting for
// one), a failed lock attempt backs off and retries, and a barrier
// access waits for the other participants.
func (s *system) complete(t *txn) {
	now := s.eng.now
	s.out.samples = append(s.out.samples, stats.Sample{
		Latency:   now - t.issue,
		Packet:    now - t.respLen + 1 - t.issue,
		Initiator: int(t.core),
		Target:    int(t.target),
		Critical:  t.critical,
	})
	c := &s.cores[t.core]
	switch t.kind {
	case OpWrite:
		if !t.blocking {
			c.writeCredits++
			if c.awaitingCredit {
				c.awaitingCredit = false
				s.step(t.core)
			}
			return
		}
	case OpLock:
		if !t.acquired {
			// Staggered back-off keeps deterministic retries from
			// livelocking in lockstep.
			s.eng.after(s.cfg.LockRetry+int64(t.core), evCoreStep, t.core)
			return
		}
		c.pc++
	case OpBarrier:
		s.arrive(t.core, t.barrier)
		return
	}
	s.step(t.core)
}

// arrive registers core id at barrier bid and, once every initiator
// has arrived, releases them all one cycle later in arrival order.
func (s *system) arrive(id int32, bid int) {
	i := 0
	for i < len(s.bars) && s.bars[i].id != bid {
		i++
	}
	if i == len(s.bars) {
		// Reuse a released slot (and its waiter buffer) if there is one.
		if i < cap(s.bars) {
			s.bars = s.bars[:i+1]
		} else {
			s.bars = append(s.bars, barrier{})
		}
		s.bars[i].id, s.bars[i].waiters = bid, s.bars[i].waiters[:0]
	}
	b := &s.bars[i]
	b.waiters = append(b.waiters, id)
	if len(b.waiters) < s.cfg.NumInitiators {
		return
	}
	for _, w := range b.waiters {
		s.eng.after(1, evCoreStep, w)
	}
	last := len(s.bars) - 1
	s.bars[i], s.bars[last] = s.bars[last], s.bars[i]
	s.bars = s.bars[:last]
}

// memWait returns the service latency of a target.
func (s *system) memWait(target int32) int64 {
	if s.cfg.MemWaitOf != nil {
		return s.cfg.MemWaitOf[target]
	}
	return s.cfg.MemWait
}
