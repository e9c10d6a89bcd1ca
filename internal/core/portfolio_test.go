package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/benchprobs"
	"repro/internal/conc"
	"repro/internal/obs"
	"repro/internal/trace"
)

// TestPortfolioMatchesBranchBound runs the full design through both
// engines on instances the branch and bound settles exactly: bus count
// and objective must agree (bindings may differ — the race winner's
// binding is returned).
func TestPortfolioMatchesBranchBound(t *testing.T) {
	for _, tc := range []struct {
		name string
		a    *trace.Analysis
	}{
		{"analysis8", benchprobs.Analysis8()},
		{"analysis12", benchprobs.Analysis12()},
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
		if got.NumBuses != ref.NumBuses || got.MaxBusOverlap != ref.MaxBusOverlap {
			t.Fatalf("%s: portfolio (%d buses, obj %d) != branch-and-bound (%d buses, obj %d)",
				tc.name, got.NumBuses, got.MaxBusOverlap, ref.NumBuses, ref.MaxBusOverlap)
		}
		if got.Capped {
			t.Fatalf("%s: portfolio capped on an instance branch-and-bound settles", tc.name)
		}
		if err := got.Validate(tc.a, opts); err != nil {
			t.Fatalf("%s: portfolio design invalid: %v", tc.name, err)
		}
	}
}

// TestPortfolioObjectiveDeterminism re-runs the portfolio design and
// expects the same bus count and objective every time (the binding may
// come from either racing engine, but both are exact).
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
		if d.NumBuses != first.NumBuses || d.MaxBusOverlap != first.MaxBusOverlap {
			t.Fatalf("run %d: (%d buses, obj %d) != first run (%d buses, obj %d)",
				i, d.NumBuses, d.MaxBusOverlap, first.NumBuses, first.MaxBusOverlap)
		}
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

// TestPortfolioRecoversContestantPanic: a branch-and-bound contestant
// that panics fails the probe instead of crashing the process. The
// 128-receiver probe at one bus per receiver is far over the tableau
// cap, so the branch and bound races alone, and the last target in
// visit order has lost its conflict row, which only the search reads.
func TestPortfolioRecoversContestantPanic(t *testing.T) {
	a := benchprobs.Analysis128()
	prob := testProblem(t, a, 0)
	fr := prob.formulator(a)
	if milpFits(fr, prob.nT, false) {
		t.Fatalf("%d-bus probe fits the tableau cap; the MILP would race", prob.nT)
	}
	prob.conflict = append([][]bool(nil), prob.conflict...)
	prob.conflict[prob.order[prob.nT-1]] = nil
	_, err := solvePortfolio(context.Background(), prob, fr, prob.nT, false)
	var pe *conc.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want a recovered contestant panic", err)
	}
}

// TestFormulatorSize pins size to the formulation ForBusCount builds,
// so the tableau cap is checked against the real row and column counts.
func TestFormulatorSize(t *testing.T) {
	for _, tc := range []struct {
		name string
		a    *trace.Analysis
	}{
		{"analysis8", benchprobs.Analysis8()},
		{"analysis12", benchprobs.Analysis12()},
		{"analysis32", benchprobs.Analysis32()},
	} {
		for _, maxPerBus := range []int{3, tc.a.NumReceivers} {
			fr := NewFormulator(tc.a, BuildConflicts(tc.a, DefaultOptions()), maxPerBus)
			for k := 1; k <= 6; k++ {
				for _, optimize := range []bool{false, true} {
					f := fr.ForBusCount(k, optimize)
					rows, cols := fr.size(k, optimize)
					if rows != len(f.Problem.LP.Constraints) || cols != f.Problem.LP.NumVars {
						t.Errorf("%s maxPerBus=%d k=%d optimize=%v: size (%d rows, %d cols), built (%d, %d)",
							tc.name, maxPerBus, k, optimize, rows, cols, len(f.Problem.LP.Constraints), f.Problem.LP.NumVars)
					}
				}
			}
		}
	}
}

// TestPortfolioFFTUnderTableauCap designs the FFT request trace, whose
// ~1,500 reduced windows make a dense MILP tableau of gigabytes at its
// bus counts, with the portfolio. The design must equal the branch and
// bound's, and no MILP contestant may race a formulation over the cap.
func TestPortfolioFFTUnderTableauCap(t *testing.T) {
	var a *trace.Analysis
	for _, fx := range paperWindowAnalyses(t) {
		if fx.name == "fft.req" {
			a = fx.a
		}
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
	if got.NumBuses != ref.NumBuses || got.MaxBusOverlap != ref.MaxBusOverlap || got.Capped {
		t.Fatalf("portfolio (%d buses, obj %d, capped %v) != branch-and-bound (%d buses, obj %d)",
			got.NumBuses, got.MaxBusOverlap, got.Capped, ref.NumBuses, ref.MaxBusOverlap)
	}
	fr := NewFormulator(a, BuildConflicts(a, opts), opts.MaxPerBus)
	optimize, probes := false, 0
	for _, e := range rec.Events() {
		switch {
		case e.Kind == obs.EvProbeOpen:
			optimize = e.Flag
			probes++
			if rows, cols := fr.size(e.K, optimize); int64(rows)*int64(cols+2*rows) <= portfolioMILPMaxCells {
				t.Errorf("k=%d optimize=%v: %d rows × %d cols fits the cap; the probe no longer exercises it", e.K, optimize, rows, cols)
			}
		case e.Kind == obs.EvRaceStart && e.Who == "milp":
			t.Errorf("k=%d optimize=%v: MILP contestant raced over the tableau cap", e.K, optimize)
		}
	}
	if probes == 0 {
		t.Fatal("recording holds no probes")
	}
}

// TestMILPEngineFFTOverTableauCap designs the FFT request trace with
// the MILP engine alone. Its first probe's tableau is over
// portfolioMILPMaxCells, so the design must fail promptly with
// ErrSearchLimit (stbusd's search_limit/422) instead of allocating
// gigabytes.
func TestMILPEngineFFTOverTableauCap(t *testing.T) {
	var a *trace.Analysis
	for _, fx := range paperWindowAnalyses(t) {
		if fx.name == "fft.req" {
			a = fx.a
		}
	}
	opts := DefaultOptions()
	opts.Engine = EngineMILP
	start := time.Now()
	_, err := DesignCrossbar(a, opts)
	if !errors.Is(err, ErrSearchLimit) {
		t.Fatalf("DesignCrossbar = %v, want ErrSearchLimit", err)
	}
	if el := time.Since(start); el > 10*time.Second {
		t.Errorf("refusal took %v", el)
	}
}
