package oracle

import (
	"context"
	"testing"

	"repro/internal/benchprobs"
	"repro/internal/core"
	"repro/internal/milp"
	"repro/internal/trace"
)

// The solver benchmarks measure the MILP hot path on the deterministic
// benchprobs instances: every node warm-starts from its parent's basis,
// and optimize mode adds the canonical-ordering symmetry rows. CI runs
// every benchmark in this package once per push, so they stay
// runnable; BENCH_solver.json holds the historical numbers of the
// retired standalone solver benchmark, taken over core's reduced
// window set rather than the oracle's full one.

func benchFeasibility(b *testing.B, a *trace.Analysis, numBuses int) {
	conflicts := core.BuildConflicts(a, core.DefaultOptions())
	f := NewFormulator(a, conflicts, 4).ForBusCount(numBuses, false)
	b.ResetTimer()
	var nodes, warm, pivots int64
	for i := 0; i < b.N; i++ {
		sol, err := milp.SolveCtx(context.Background(), f.Problem, milp.Options{FirstFeasible: true})
		if err != nil {
			b.Fatal(err)
		}
		nodes += int64(sol.Nodes)
		warm += sol.WarmSolves
		pivots += sol.DualPivots
	}
	b.ReportMetric(float64(nodes)/float64(b.N), "nodes/op")
	b.ReportMetric(float64(warm)/float64(b.N), "warmsolves/op")
	b.ReportMetric(float64(pivots)/float64(b.N), "dualpivots/op")
}

// BenchmarkMILPFeasible12Warm solves the 12-receiver feasibility MILP
// at its first feasible bus count.
func BenchmarkMILPFeasible12Warm(b *testing.B) {
	benchFeasibility(b, benchprobs.Analysis12(), 4)
}

// BenchmarkMILPFeasible32Warm solves the 32-receiver feasibility MILP
// (the STbus architectural maximum) at its first feasible bus count.
func BenchmarkMILPFeasible32Warm(b *testing.B) {
	benchFeasibility(b, benchprobs.Analysis32(), 12)
}

// BenchmarkMILPInfeasible32Root measures the fast-rejection path: one
// bus short of any conflict-free packing, proven infeasible at the root
// relaxation without branching.
func BenchmarkMILPInfeasible32Root(b *testing.B) {
	benchFeasibility(b, benchprobs.Analysis32(), 8)
}

// BenchmarkMILPBinding8Warm exercises optimize mode (the exact binding
// MILP of Eq. 9–11) end to end.
func BenchmarkMILPBinding8Warm(b *testing.B) {
	a := benchprobs.Analysis8()
	fr := NewFormulator(a, core.BuildConflicts(a, core.DefaultOptions()), 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		busOf, _, err := fr.Probe(context.Background(), 3, true)
		if err != nil {
			b.Fatal(err)
		}
		if busOf == nil {
			b.Fatal("binding instance became infeasible")
		}
	}
}
