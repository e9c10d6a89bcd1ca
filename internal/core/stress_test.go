package core

import (
	"context"
	"math/rand"
	"testing"
	"time"

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

func TestDesign32TargetsAnnealEngine(t *testing.T) {
	a := stressAnalysis(t, 2)
	opts := DefaultOptions()
	opts.Engine = EngineAnneal
	d, err := DesignCrossbar(a, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Validate(a, opts); err != nil {
		t.Fatalf("anneal design invalid: %v", err)
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
