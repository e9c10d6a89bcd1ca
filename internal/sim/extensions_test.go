package sim

import (
	"testing"

	"repro/internal/stbus"
)

func TestPostedWritesOverlapWithCompute(t *testing.T) {
	// Blocking: write (burst 10) then compute 100 => write latency ~14
	// serialized before the compute. Posted: the compute overlaps the
	// write, so the second write starts earlier.
	progs := [][]Op{{Write(0, 10), Compute(100), Write(0, 10)}}
	blocking := fullConfig(1, 1, progs)
	resB, err := Run(blocking)
	if err != nil {
		t.Fatal(err)
	}
	posted := blocking
	posted.PostedWrites = true
	resP, err := Run(posted)
	if err != nil {
		t.Fatal(err)
	}
	lastStart := func(r *Result) int64 {
		var last int64
		for _, e := range r.ReqTrace.Events {
			if e.Start > last {
				last = e.Start
			}
		}
		return last
	}
	if lastStart(resP) >= lastStart(resB) {
		t.Errorf("posted second write at %d, blocking at %d; posted should be earlier",
			lastStart(resP), lastStart(resB))
	}
	if resP.Latency.Len() != resB.Latency.Len() {
		t.Errorf("sample counts differ: %d vs %d", resP.Latency.Len(), resB.Latency.Len())
	}
}

func TestPostedWritesCreditLimit(t *testing.T) {
	// With 1 credit, back-to-back writes serialize like blocking on the
	// ack path; with 4 credits they pipeline on the request bus.
	var progs [][]Op
	var ops []Op
	for i := 0; i < 6; i++ {
		ops = append(ops, Write(0, 10))
	}
	progs = append(progs, ops)

	one := fullConfig(1, 1, progs)
	one.PostedWrites = true
	one.MaxOutstandingWrites = 1
	resOne, err := Run(one)
	if err != nil {
		t.Fatal(err)
	}
	four := one
	four.MaxOutstandingWrites = 4
	resFour, err := Run(four)
	if err != nil {
		t.Fatal(err)
	}
	end := func(r *Result) int64 {
		var last int64
		for _, e := range r.ReqTrace.Events {
			if e.End() > last {
				last = e.End()
			}
		}
		return last
	}
	if end(resFour) >= end(resOne) {
		t.Errorf("4 credits finished at %d, 1 credit at %d; more credits must pipeline better",
			end(resFour), end(resOne))
	}
	if resOne.Completed != 1 || resFour.Completed != 1 {
		t.Error("cores did not complete")
	}
}

func TestPostedWritesDeterministic(t *testing.T) {
	progs := [][]Op{
		{Write(0, 5), Compute(3), Write(1, 5), Write(0, 2)},
		{Write(1, 5), Write(0, 5), Compute(2), Write(1, 2)},
	}
	mk := func() Config {
		cfg := fullConfig(2, 2, progs)
		cfg.PostedWrites = true
		cfg.MaxOutstandingWrites = 2
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
		t.Fatal("nondeterministic sample count")
	}
	for i := range a.Latency.Samples() {
		if a.Latency.Samples()[i] != b.Latency.Samples()[i] {
			t.Fatalf("sample %d differs", i)
		}
	}
}

func TestMemWaitOfHeterogeneous(t *testing.T) {
	// Target 0 fast (0 wait), target 1 slow (20 waits).
	cfg := fullConfig(1, 2, [][]Op{{Read(0, 1), Read(1, 1)}})
	cfg.MemWaitOf = []int64{0, 20}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	samples := res.Latency.Samples()
	if len(samples) != 2 {
		t.Fatalf("samples = %d", len(samples))
	}
	// Read of 1 word: req 1 + wait + resp 1.
	if samples[0].Latency != 2 {
		t.Errorf("fast target latency = %d, want 2", samples[0].Latency)
	}
	if samples[1].Latency != 22 {
		t.Errorf("slow target latency = %d, want 22", samples[1].Latency)
	}
}

func TestMemWaitOfValidation(t *testing.T) {
	cfg := fullConfig(1, 1, [][]Op{{Read(0, 1)}})
	cfg.MemWaitOf = []int64{1, 2} // wrong length
	if _, err := Run(cfg); err == nil {
		t.Error("wrong MemWaitOf length accepted")
	}
	cfg.MemWaitOf = []int64{-1}
	if _, err := Run(cfg); err == nil {
		t.Error("negative MemWaitOf accepted")
	}
	cfg.MemWaitOf = nil
	cfg.MaxOutstandingWrites = -1
	if _, err := Run(cfg); err == nil {
		t.Error("negative MaxOutstandingWrites accepted")
	}
}

func TestAdapterDelayStretchesOccupancy(t *testing.T) {
	// Two reads to targets on one bus: with adapter delay 5 the second
	// read's request waits 5 extra cycles.
	progs := [][]Op{{Read(0, 1)}, {Read(1, 1)}}
	cfg := fullConfig(2, 2, progs)
	cfg.Req = stbus.Shared(2, 2)
	cfg.Resp = stbus.Full(2, 2)
	base, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	delayed := cfg
	reqCfg := *stbus.Shared(2, 2)
	reqCfg.AdapterDelay = 5
	delayed.Req = &reqCfg
	resD, err := Run(delayed)
	if err != nil {
		t.Fatal(err)
	}
	if resD.Latency.Summarize().Max <= base.Latency.Summarize().Max {
		t.Errorf("adapter delay did not raise max latency: %d vs %d",
			resD.Latency.Summarize().Max, base.Latency.Summarize().Max)
	}
	// Trace lengths record data beats only, not the adapter stretch.
	for _, e := range resD.ReqTrace.Events {
		if e.Len != 1 {
			t.Errorf("trace event len = %d, want 1 (data beats only)", e.Len)
		}
	}
}

func TestThroughputAccounting(t *testing.T) {
	// One read of 8 words: request 1 beat + response 8 beats = 9 beats.
	cfg := fullConfig(1, 1, [][]Op{{Read(0, 8)}})
	cfg.Horizon = 100
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.ReqBeats != 1 || res.RespBeats != 8 {
		t.Errorf("beats = %d/%d, want 1/8", res.ReqBeats, res.RespBeats)
	}
}

func TestThroughputExcludesAdapterStretch(t *testing.T) {
	cfg := fullConfig(1, 1, [][]Op{{Read(0, 4)}})
	reqCfg := *cfg.Req
	reqCfg.AdapterDelay = 7
	cfg.Req = &reqCfg
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.ReqBeats != 1 {
		t.Errorf("ReqBeats = %d, want 1 (adapter stretch excluded)", res.ReqBeats)
	}
}
