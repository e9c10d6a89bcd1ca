package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"testing"

	"repro/internal/benchprobs"
	"repro/internal/conc"
	"repro/internal/obs"
	"repro/internal/trace"
)

// TestPortfolioMatchesBranchBound runs the full design through both
// engines on instances the branch and bound settles within its budget,
// from 8 receivers to the 128-receiver production scale (the FFT
// request trace is TestPortfolioFFTUnderTableauCap's). The anytime mode
// only adds a fed bound, which never changes the search's answer, so
// the designs must be identical: bus count, binding, objective and the
// Capped flag. SearchNodes is left out: the asynchronous anneal lowers
// the bound at a schedule-dependent moment.
func TestPortfolioMatchesBranchBound(t *testing.T) {
	for _, tc := range []struct {
		name string
		a    *trace.Analysis
	}{
		{"analysis8", benchprobs.Analysis8()},
		{"analysis12", benchprobs.Analysis12()},
		{"analysis128", benchprobs.Analysis128()},
	} {
		opts := DefaultOptions()
		ref, err := DesignCrossbar(tc.a, opts)
		if err != nil {
			t.Fatalf("%s: branch-and-bound: %v", tc.name, err)
		}
		opts.Engine = EnginePortfolio
		got, err := DesignCrossbar(tc.a, opts)
		if err != nil {
			t.Fatalf("%s: portfolio: %v", tc.name, err)
		}
		samePortfolioDesign(t, tc.name, ref, got)
		if got.Capped {
			t.Fatalf("%s: portfolio capped on an instance branch-and-bound settles", tc.name)
		}
		if err := got.Validate(tc.a, opts); err != nil {
			t.Fatalf("%s: portfolio design invalid: %v", tc.name, err)
		}
	}
}

// TestPortfolioFFTUnderTableauCap designs the FFT request trace, whose
// ~1,500 reduced windows would make a dense MILP tableau of gigabytes
// at its bus counts, with the portfolio. The design must equal the
// branch and bound's, binding for binding, and the recording must show
// only the search, the anneal and the greedy scan at work: no MILP
// producer and none of the retired LP-pivot or race kinds.
func TestPortfolioFFTUnderTableauCap(t *testing.T) {
	var a *trace.Analysis
	for _, fx := range paperWindowAnalyses(t) {
		if fx.name == "fft.req" {
			a = fx.a
		}
	}
	if a == nil {
		t.Fatal("no fft.req fixture")
	}
	opts := DefaultOptions()
	ref, err := DesignCrossbar(a, opts)
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.NewFlightRecorder(obs.DefaultFlightCapacity)
	opts.Engine = EnginePortfolio
	got, err := DesignCrossbarCtx(obs.WithFlightRecorder(context.Background(), rec), a, opts)
	if err != nil {
		t.Fatal(err)
	}
	samePortfolioDesign(t, "fft.req", ref, got)
	if got.Capped {
		t.Fatal("fft.req: portfolio capped on an instance branch-and-bound settles")
	}
	if err := got.Validate(a, opts); err != nil {
		t.Fatalf("fft.req: portfolio design invalid: %v", err)
	}
	probes := 0
	for _, e := range rec.Events() {
		switch {
		case e.Kind == obs.EvProbeOpen:
			probes++
		case e.Kind > obs.EvNodes && e.Kind < obs.EvCacheHit:
			t.Errorf("k=%d: retired event kind %v recorded", e.K, e.Kind)
		case e.Who == "milp":
			t.Errorf("k=%d: %v event from a MILP producer", e.K, e.Kind)
		}
	}
	if probes == 0 {
		t.Fatal("recording holds no probes")
	}
}

// samePortfolioDesign fails unless got is want's crossbar: bus count,
// binding, objective and Capped. SearchNodes may differ (see
// TestPortfolioMatchesBranchBound).
func samePortfolioDesign(t *testing.T, label string, want, got *Design) {
	t.Helper()
	if got.NumBuses != want.NumBuses || got.MaxBusOverlap != want.MaxBusOverlap ||
		got.Capped != want.Capped || !slices.Equal(got.BusOf, want.BusOf) {
		t.Fatalf("%s: portfolio (%d buses, obj %d, capped %v, binding %v) != reference (%d buses, obj %d, capped %v, binding %v)",
			label, got.NumBuses, got.MaxBusOverlap, got.Capped, got.BusOf,
			want.NumBuses, want.MaxBusOverlap, want.Capped, want.BusOf)
	}
}

// TestPortfolioObjectiveDeterminism re-runs the portfolio design and
// expects the same design every time: the anneal feeds the bound
// asynchronously, but no fed bound changes the search's answer.
func TestPortfolioObjectiveDeterminism(t *testing.T) {
	a := benchprobs.Analysis12()
	opts := DefaultOptions()
	opts.Engine = EnginePortfolio
	first, err := DesignCrossbar(a, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		d, err := DesignCrossbar(a, opts)
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		samePortfolioDesign(t, fmt.Sprintf("run %d", i), first, d)
	}
}

// TestLargeInstanceOptimality designs the 128-receiver production-scale
// instance to audited-equivalent optimality within the default budget:
// the exact clique bound (43 conflicting same-phase receivers) must
// meet the achieved count, proving minimality without search, and the
// binding objective must be the true optimum of the block-diagonal
// overlap structure, zero.
func TestLargeInstanceOptimality(t *testing.T) {
	for _, tc := range []struct {
		name  string
		a     *trace.Analysis
		buses int
	}{
		{"analysis128", benchprobs.Analysis128(), 43},
		{"analysis256", benchprobs.Analysis256(), 86},
		{"analysis512", benchprobs.Analysis512(), 171},
	} {
		prob := testProblem(t, tc.a, 0)
		if lb := prob.lowerBound(); lb != tc.buses {
			t.Fatalf("%s: lower bound %d, want %d (clique bound should be exact)", tc.name, lb, tc.buses)
		}
		for _, engine := range []Engine{EngineBranchBound, EnginePortfolio} {
			opts := DefaultOptions()
			opts.Engine = engine
			d, err := DesignCrossbar(tc.a, opts)
			if err != nil {
				t.Fatalf("%s/%v: %v", tc.name, engine, err)
			}
			if d.NumBuses != tc.buses {
				t.Fatalf("%s/%v: %d buses, want %d", tc.name, engine, d.NumBuses, tc.buses)
			}
			if d.MaxBusOverlap != 0 {
				t.Fatalf("%s/%v: objective %d, want 0", tc.name, engine, d.MaxBusOverlap)
			}
			if d.Capped {
				t.Fatalf("%s/%v: capped, want proven", tc.name, engine)
			}
			if err := d.Validate(tc.a, opts); err != nil {
				t.Fatalf("%s/%v: invalid design: %v", tc.name, engine, err)
			}
		}
	}
}

// TestPortfolioRecoversContestantPanic: a search that panics inside an
// anytime probe fails the probe with a *conc.PanicError instead of
// crashing the process. The last target in visit order has lost its
// conflict row, which only the search reads.
func TestPortfolioRecoversContestantPanic(t *testing.T) {
	a := benchprobs.Analysis128()
	prob := testProblem(t, a, 0)
	prob.conflict = append([][]bool(nil), prob.conflict...)
	prob.conflict[prob.order[prob.nT-1]] = nil
	_, err := prob.solveAnytime(context.Background(), prob.nT, false)
	var pe *conc.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want a recovered search panic", err)
	}
}
