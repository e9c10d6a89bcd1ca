package sim

import (
	"errors"
	"testing"

	"repro/internal/stbus"
)

// fullConfig builds a minimal full-crossbar system config.
func fullConfig(nInit, nTarg int, programs [][]Op) Config {
	return Config{
		NumInitiators: nInit,
		NumTargets:    nTarg,
		Programs:      programs,
		Req:           stbus.Full(nInit, nTarg),
		Resp:          stbus.Full(nTarg, nInit),
		MemWait:       2,
		ReqCycles:     1,
		Horizon:       100000,
		CollectTrace:  true,
	}
}

func TestSingleReadLatency(t *testing.T) {
	// One core, one read of 4 words on an idle full crossbar:
	// request 1 cycle + memory 2 cycles + response 4 cycles = 7.
	cfg := fullConfig(1, 1, [][]Op{{Read(0, 4)}})
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Latency.Len() != 1 {
		t.Fatalf("samples = %d, want 1", res.Latency.Len())
	}
	if got := res.Latency.Samples()[0].Latency; got != 7 {
		t.Errorf("read latency = %d, want 7", got)
	}
	if res.Completed != 1 {
		t.Errorf("Completed = %d, want 1", res.Completed)
	}
}

func TestSingleWriteLatency(t *testing.T) {
	// Write of 4 words: request 1+4 cycles + memory 2 + ack 1 = 8.
	cfg := fullConfig(1, 1, [][]Op{{Write(0, 4)}})
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Latency.Samples()[0].Latency; got != 8 {
		t.Errorf("write latency = %d, want 8", got)
	}
}

func TestComputeDelaysIssue(t *testing.T) {
	cfg := fullConfig(1, 1, [][]Op{{Compute(50), Read(0, 1)}})
	cfg.CollectTrace = true
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.ReqTrace.Events) != 1 {
		t.Fatalf("req events = %d, want 1", len(res.ReqTrace.Events))
	}
	if got := res.ReqTrace.Events[0].Start; got != 50 {
		t.Errorf("request issued at %d, want 50", got)
	}
}

func TestSharedBusSerializesIndependentCores(t *testing.T) {
	// Two cores reading different targets at the same time: on a full
	// crossbar both finish at 7; on a shared bus the response data (and
	// requests) serialize so the second core finishes later.
	progs := [][]Op{{Read(0, 4)}, {Read(1, 4)}}
	full := fullConfig(2, 2, progs)
	resFull, err := Run(full)
	if err != nil {
		t.Fatal(err)
	}
	shared := full
	shared.Req = stbus.Shared(2, 2)
	shared.Resp = stbus.Shared(2, 2)
	resShared, err := Run(shared)
	if err != nil {
		t.Fatal(err)
	}
	if got := resFull.Latency.Summarize().Max; got != 7 {
		t.Errorf("full crossbar max latency = %d, want 7", got)
	}
	if got := resShared.Latency.Summarize().Max; got <= 7 {
		t.Errorf("shared bus max latency = %d, want > 7", got)
	}
	if resFull.Latency.Summarize().Avg >= resShared.Latency.Summarize().Avg {
		t.Error("shared bus should have higher average latency")
	}
}

func TestTargetContentionSerializesOnFullCrossbar(t *testing.T) {
	// Two cores reading the SAME target contend even on a full crossbar:
	// the request/response serialize at the target's bus.
	progs := [][]Op{{Read(0, 4)}, {Read(0, 4)}}
	res, err := Run(fullConfig(2, 1, progs))
	if err != nil {
		t.Fatal(err)
	}
	s := res.Latency.Summarize()
	if s.Min != 7 {
		t.Errorf("first reader latency = %d, want 7", s.Min)
	}
	if s.Max <= 7 {
		t.Errorf("second reader latency = %d, want > 7 (serialized)", s.Max)
	}
}

func TestTraceEventsMatchTransfers(t *testing.T) {
	cfg := fullConfig(1, 2, [][]Op{{Read(0, 3), Write(1, 2)}})
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.ReqTrace.Validate(); err != nil {
		t.Errorf("req trace invalid: %v", err)
	}
	if err := res.RespTrace.Validate(); err != nil {
		t.Errorf("resp trace invalid: %v", err)
	}
	// Request side: read request (1 cycle) to target 0, write (1+2) to
	// target 1.
	if len(res.ReqTrace.Events) != 2 {
		t.Fatalf("req events = %d, want 2", len(res.ReqTrace.Events))
	}
	if res.ReqTrace.Events[0].Len != 1 || res.ReqTrace.Events[0].Receiver != 0 {
		t.Errorf("req event 0 = %+v", res.ReqTrace.Events[0])
	}
	if res.ReqTrace.Events[1].Len != 3 || res.ReqTrace.Events[1].Receiver != 1 {
		t.Errorf("req event 1 = %+v", res.ReqTrace.Events[1])
	}
	// Response side: 3 data beats to initiator 0, then 1 ack beat.
	if len(res.RespTrace.Events) != 2 {
		t.Fatalf("resp events = %d, want 2", len(res.RespTrace.Events))
	}
	if res.RespTrace.Events[0].Len != 3 || res.RespTrace.Events[0].Sender != 0 {
		t.Errorf("resp event 0 = %+v", res.RespTrace.Events[0])
	}
	if res.RespTrace.Events[1].Len != 1 || res.RespTrace.Events[1].Sender != 1 {
		t.Errorf("resp event 1 = %+v", res.RespTrace.Events[1])
	}
}

func TestSemaphoreMutualExclusion(t *testing.T) {
	// Two cores lock, compute, unlock. The semaphore must serialize the
	// critical sections: measure with writes to a shared target inside
	// the critical section; their request transfers must not overlap.
	progs := [][]Op{
		{Lock(1), Write(0, 10), Unlock(1)},
		{Lock(1), Write(0, 10), Unlock(1)},
	}
	cfg := fullConfig(2, 2, progs)
	cfg.SemTargets = []int{1}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 2 {
		t.Fatalf("Completed = %d, want 2", res.Completed)
	}
	// Both critical-section writes target 0; with the lock held they
	// cannot overlap. (They serialize on target 0's bus anyway, but the
	// lock also forces the full transactions apart; just sanity-check
	// both writes happened.)
	var writes int
	for _, e := range res.ReqTrace.Events {
		if e.Receiver == 0 && e.Len == 11 {
			writes++
		}
	}
	if writes != 2 {
		t.Errorf("critical-section writes = %d, want 2", writes)
	}
}

func TestSemaphoreContentionRetries(t *testing.T) {
	// With a long critical section, the second core must retry: the
	// semaphore target sees more than 2 lock reads.
	progs := [][]Op{
		{Lock(1), Compute(500), Unlock(1)},
		{Lock(1), Compute(500), Unlock(1)},
	}
	cfg := fullConfig(2, 2, progs)
	cfg.SemTargets = []int{1}
	cfg.LockRetry = 32
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 2 {
		t.Fatalf("Completed = %d, want 2", res.Completed)
	}
	var semReads int
	for _, e := range res.ReqTrace.Events {
		if e.Receiver == 1 && e.Len == 1 { // lock attempts are 1-cycle reads
			semReads++
		}
	}
	if semReads <= 2 {
		t.Errorf("semaphore lock reads = %d, want > 2 (retries)", semReads)
	}
}

func TestBarrierSynchronizes(t *testing.T) {
	// Core 0 computes 1000 cycles then hits the barrier; core 1 reaches
	// it immediately. Core 1's post-barrier read must start after cycle
	// 1000.
	progs := [][]Op{
		{Compute(1000), Barrier(1, 1)},
		{Barrier(1, 1), Read(0, 1)},
	}
	cfg := fullConfig(2, 2, progs)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 2 {
		t.Fatalf("Completed = %d, want 2", res.Completed)
	}
	var readStart int64 = -1
	for _, e := range res.ReqTrace.Events {
		if e.Receiver == 0 && e.Len == 1 && e.Sender == 1 {
			readStart = e.Start
		}
	}
	if readStart < 1000 {
		t.Errorf("post-barrier read started at %d, want >= 1000", readStart)
	}
}

func TestCriticalFlagPropagates(t *testing.T) {
	cfg := fullConfig(1, 1, [][]Op{{CriticalRead(0, 2)}})
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.ReqTrace.Events[0].Critical {
		t.Error("request event not marked critical")
	}
	if !res.RespTrace.Events[0].Critical {
		t.Error("response event not marked critical")
	}
	if !res.Latency.Samples()[0].Critical {
		t.Error("latency sample not marked critical")
	}
}

func TestHorizonClampsTrace(t *testing.T) {
	cfg := fullConfig(1, 1, [][]Op{{Compute(90), Read(0, 50)}})
	cfg.Horizon = 100
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.ReqTrace.Validate(); err != nil {
		t.Errorf("clamped trace invalid: %v", err)
	}
	if err := res.RespTrace.Validate(); err != nil {
		t.Errorf("clamped resp trace invalid: %v", err)
	}
}

func TestValidateConfigErrors(t *testing.T) {
	good := fullConfig(1, 1, [][]Op{{Read(0, 1)}})
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"no programs", func(c *Config) { c.Programs = nil }},
		{"zero horizon", func(c *Config) { c.Horizon = 0 }},
		{"nil req", func(c *Config) { c.Req = nil }},
		{"req shape", func(c *Config) { c.Req = stbus.Full(5, 5) }},
		{"resp shape", func(c *Config) { c.Resp = stbus.Full(5, 5) }},
		{"bad burst", func(c *Config) { c.Programs = [][]Op{{Read(0, 0)}} }},
		{"bad target", func(c *Config) { c.Programs = [][]Op{{Read(7, 1)}} }},
		{"negative compute", func(c *Config) { c.Programs = [][]Op{{Compute(-1)}} }},
		{"zero reqcycles", func(c *Config) { c.ReqCycles = 0 }},
		{"semaphore target above range", func(c *Config) { c.SemTargets = []int{1} }},
		{"semaphore target negative", func(c *Config) { c.SemTargets = []int{-1} }},
		{"lock of non-semaphore", func(c *Config) { c.Programs = [][]Op{{Lock(0)}} }},
		{"unlock of non-semaphore", func(c *Config) { c.Programs = [][]Op{{Unlock(0)}} }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := good
			c.mutate(&cfg)
			if _, err := Run(cfg); !errors.Is(err, ErrInvalidConfig) {
				t.Errorf("Run = %v, want an error wrapping ErrInvalidConfig", err)
			}
		})
	}
}

func TestDeterminism(t *testing.T) {
	progs := [][]Op{
		{Lock(2), Write(0, 5), Unlock(2), Read(1, 8), Compute(10), Read(0, 4)},
		{Read(1, 8), Lock(2), Write(0, 5), Unlock(2), Read(0, 4)},
		{Compute(3), Read(0, 8), Read(1, 8)},
	}
	mk := func() Config {
		cfg := fullConfig(3, 3, progs)
		cfg.SemTargets = []int{2}
		return cfg
	}
	a, err := Run(mk())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(mk())
	if err != nil {
		t.Fatal(err)
	}
	if a.Latency.Len() != b.Latency.Len() {
		t.Fatalf("sample counts differ: %d vs %d", a.Latency.Len(), b.Latency.Len())
	}
	for i := range a.Latency.Samples() {
		if a.Latency.Samples()[i] != b.Latency.Samples()[i] {
			t.Fatalf("sample %d differs", i)
		}
	}
	if len(a.ReqTrace.Events) != len(b.ReqTrace.Events) {
		t.Fatal("trace lengths differ")
	}
	for i := range a.ReqTrace.Events {
		if a.ReqTrace.Events[i] != b.ReqTrace.Events[i] {
			t.Fatalf("trace event %d differs", i)
		}
	}
}

func TestOpKindStrings(t *testing.T) {
	kinds := map[OpKind]string{
		OpCompute: "compute", OpRead: "read", OpWrite: "write",
		OpLock: "lock", OpUnlock: "unlock", OpBarrier: "barrier",
	}
	for k, want := range kinds {
		if k.String() != want {
			t.Errorf("%v.String() = %q, want %q", int(k), k.String(), want)
		}
	}
}
