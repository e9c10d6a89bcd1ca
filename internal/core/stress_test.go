package core

import (
	"context"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"repro/internal/benchprobs"
	"repro/internal/trace"
)

// stressAnalysis synthesizes a 32-receiver analysis — the largest
// STbus crossbar the paper mentions ("the largest possible STbus
// crossbar size ... is 32") — with pipeline-group structure and
// realistic duty cycles.
func stressAnalysis(t testing.TB, seed int64) *trace.Analysis {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	const nRecv = 32
	const horizon = 40000
	tr := &trace.Trace{NumReceivers: nRecv, NumSenders: 8, Horizon: horizon}
	for r := 0; r < nRecv; r++ {
		group := r % 4
		// Periodic bursts, group-phased, ~25% duty.
		period := int64(2000)
		offset := int64(group)*500 + rng.Int63n(60)
		for start := offset; start+500 < horizon; start += period {
			tr.Events = append(tr.Events, trace.Event{
				Start:    start,
				Len:      400 + rng.Int63n(100),
				Sender:   r % 8,
				Receiver: r,
			})
		}
	}
	a, err := trace.AnalyzeCtx(context.Background(), tr, 2000)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestDesign32TargetsCompletesQuickly(t *testing.T) {
	a := stressAnalysis(t, 1)
	opts := DefaultOptions()
	start := time.Now()
	d, err := DesignCrossbar(a, opts)
	if err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if err := d.Validate(a, opts); err != nil {
		t.Fatalf("32-target design invalid: %v", err)
	}
	// The paper reports "under a few hours" with CPLEX on 1-GHz
	// hardware at this size; the specialized solver must stay
	// interactive. The race detector slows the search loop by well
	// over an order of magnitude, so its budget is scaled up.
	budget := 30 * time.Second
	if raceEnabled {
		budget = 15 * time.Minute
	}
	if elapsed > budget {
		t.Errorf("32-target design took %v", elapsed)
	}
	t.Logf("32 targets: %d buses, %d conflicts, %d nodes in %v",
		d.NumBuses, d.Conflicts, d.SearchNodes, elapsed)
	// Sanity on the result: pipeline groups of 8 at ~25% in-slot duty
	// should pack a handful of receivers per bus, nowhere near full.
	if d.NumBuses >= 32 {
		t.Errorf("design degenerated to a full crossbar (%d buses)", d.NumBuses)
	}
}

// TestDesign32TargetsCappedPortfolio pins the portfolio's capped
// fallback: when every contestant runs out of budget in the binding
// phase, the annealed binding the feeder already validated is as much
// a fallback as the branch and bound's incumbent, so the capped design
// is never worse than the anneal from the greedy start.
func TestDesign32TargetsCappedPortfolio(t *testing.T) {
	a := stressAnalysis(t, 1)
	opts := DefaultOptions()
	opts.Engine = EnginePortfolio
	opts.MaxNodes = 1000
	opts.Workers = 1
	d, err := DesignCrossbar(a, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Validate(a, opts); err != nil {
		t.Fatalf("capped portfolio design invalid: %v", err)
	}
	if !d.Capped {
		t.Fatalf("1000-node budget settled the 32-target binding; the fallback is not exercised")
	}
	p := annealProblem(a, opts)
	greedy, _, ok := p.greedyBinding(d.NumBuses)
	if !ok {
		t.Fatalf("greedy found no binding at %d buses", d.NumBuses)
	}
	if _, annObj := p.anneal(context.Background(), d.NumBuses, greedy); d.MaxBusOverlap > annObj {
		t.Errorf("capped design objective %d, worse than the feeder's anneal %d", d.MaxBusOverlap, annObj)
	}
}

// TestPortfolioJoinsFeeder pins the anneal feeder's lifetime: it must
// not outlive the design. On the 128-receiver instance the race is
// decided long before a full anneal would finish, so a feeder left
// running would keep its goroutine alive well past the return.
func TestPortfolioJoinsFeeder(t *testing.T) {
	a := benchprobs.Analysis128()
	opts := DefaultOptions()
	opts.Engine = EnginePortfolio
	before := runtime.NumGoroutine()
	if _, err := DesignCrossbarCtx(context.Background(), a, opts); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(100 * time.Millisecond)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines 100ms after the design returned, %d before it started",
				runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestDesignNodeLimitSurfaces(t *testing.T) {
	a := stressAnalysis(t, 3)
	opts := DefaultOptions()
	opts.MaxNodes = 3 // absurdly small: must fail loudly, not silently
	_, err := DesignCrossbar(a, opts)
	if err == nil {
		t.Skip("instance solved within 3 nodes; limit not exercised")
	}
	// Either the explicit limit error or a search failure is fine, but
	// it must not return a design.
}
