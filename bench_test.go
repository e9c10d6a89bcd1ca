// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (Section 7), plus ablation benches for the design choices
// DESIGN.md calls out. Each benchmark iteration regenerates the full
// result — simulation, analysis, design and validation — so -benchtime
// 1x gives the end-to-end cost of reproducing that artifact.
//
// Run with:
//
//	go test -bench=. -benchmem
package stbusgen_test

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/oracle"
	"repro/internal/sim"
	"repro/internal/stbus"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// BenchmarkTable1 regenerates Table 1 (shared / full / partial crossbar
// performance and cost on Mat2).
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table1(experiments.Seed); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable2 regenerates Table 2 (component savings over the five
// benchmark applications).
func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table2(experiments.Seed); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure4 regenerates Figures 4(a) and 4(b) (relative packet
// latencies of average-flow vs window-based designs).
func BenchmarkFigure4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure4(experiments.Seed); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure5a regenerates Figure 5(a) (crossbar size vs window
// size on the synthetic benchmark).
func BenchmarkFigure5a(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure5a(experiments.Seed); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure5b regenerates Figure 5(b) (acceptable window size vs
// burst size).
func BenchmarkFigure5b(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure5b(experiments.Seed); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure6 regenerates Figure 6 (crossbar size vs overlap
// threshold).
func BenchmarkFigure6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure6(experiments.Seed); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBinding regenerates the Section 7.3 random-vs-optimal
// binding comparison.
func BenchmarkBinding(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Binding(experiments.Seed); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRealtime regenerates the Section 7.3 real-time-stream study.
func BenchmarkRealtime(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Realtime(experiments.Seed); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablation and component benchmarks ---

// mat2Analysis prepares the Mat2 request-direction analysis once.
func mat2Analysis(b *testing.B) *trace.Analysis {
	b.Helper()
	run, err := experiments.Prepare(workloads.Mat2(experiments.Seed))
	if err != nil {
		b.Fatal(err)
	}
	return run.AReq
}

// BenchmarkDesignBranchBound times the specialized exact solver on the
// Mat2 initiator→target design (the paper's CPLEX step).
func BenchmarkDesignBranchBound(b *testing.B) {
	a := mat2Analysis(b)
	opts := core.DefaultOptions()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.DesignCrossbar(a, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDesignMILP times the literal MILP formulation (Eq. 3–9, 11),
// the test-only oracle, for comparison with the specialized solver.
// The instance is a small
// 5-receiver trace: the generic simplex/branch-and-bound path is only
// practical at cross-validation sizes (its per-node dense LP re-solve
// is orders of magnitude more expensive than the specialized search —
// which is the comparison this bench quantifies).
func BenchmarkDesignMILP(b *testing.B) {
	tr := &trace.Trace{NumReceivers: 5, NumSenders: 1, Horizon: 1000}
	for r := 0; r < 5; r++ {
		for k := 0; k < 4; k++ {
			tr.Events = append(tr.Events, trace.Event{
				Start: int64(200*k + 30*r), Len: 40, Receiver: r,
			})
		}
	}
	a, err := trace.AnalyzeCtx(context.Background(), tr, 200)
	if err != nil {
		b.Fatal(err)
	}
	opts := core.DefaultOptions()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := oracle.Design(context.Background(), a, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDesignNoPreprocessing times the design with the overlap
// threshold pre-processing disabled (ablation: Section 7.4 notes the
// pre-processing also speeds up configuration search).
func BenchmarkDesignNoPreprocessing(b *testing.B) {
	a := mat2Analysis(b)
	opts := core.DefaultOptions()
	opts.OverlapThreshold = -1
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.DesignCrossbar(a, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDesignNoBinding times phase 1 only (feasibility binary
// search without the optimal-binding MILP-2 phase).
func BenchmarkDesignNoBinding(b *testing.B) {
	a := mat2Analysis(b)
	opts := core.DefaultOptions()
	opts.OptimizeBinding = false
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.DesignCrossbar(a, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimFullCrossbar times one cycle-accurate full-crossbar
// simulation of Mat2 (the phase-1 trace collection cost).
func BenchmarkSimFullCrossbar(b *testing.B) {
	app := workloads.Mat2(experiments.Seed)
	req, resp := app.FullConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(app.SimConfig(req, resp)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimSharedBus times the shared-bus simulation (the congested
// configuration, exercising arbitration queues).
func BenchmarkSimSharedBus(b *testing.B) {
	app := workloads.Mat2(experiments.Seed)
	req, resp := app.SharedConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(app.SimConfig(req, resp)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimApps times the full-crossbar simulation of each paper
// app (the app-spec request's first simulation).
func BenchmarkSimApps(b *testing.B) {
	for _, app := range workloads.All(experiments.Seed) {
		b.Run(app.Name, func(b *testing.B) {
			req, resp := app.FullConfig()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := sim.Run(app.SimConfig(req, resp)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkWindowAnalysis times the window-based trace analysis (comm,
// overlap and criticality matrices) on the Mat2 request trace.
func BenchmarkWindowAnalysis(b *testing.B) {
	app := workloads.Mat2(experiments.Seed)
	req, resp := app.FullConfig()
	res, err := sim.Run(app.SimConfig(req, resp))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := trace.AnalyzeCtx(context.Background(), res.ReqTrace, app.WindowSize); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkArbitrationPolicies compares round-robin and fixed-priority
// arbitration on the designed Mat2 crossbar (extension ablation); the
// reported metric of interest is the per-policy average packet latency
// logged once per run.
func BenchmarkArbitrationPolicies(b *testing.B) {
	app := workloads.Mat2(experiments.Seed)
	run, err := experiments.Prepare(app)
	if err != nil {
		b.Fatal(err)
	}
	pair, err := run.Design(core.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	for _, policy := range []struct {
		name string
		p    stbus.Policy
	}{{"round-robin", stbus.RoundRobin}, {"fixed-priority", stbus.FixedPriority}} {
		b.Run(policy.name, func(b *testing.B) {
			req := stbus.Partial(app.NumInitiators, pair.Req.BusOf)
			resp := stbus.Partial(app.NumTargets, pair.Resp.BusOf)
			req.Arbitration = policy.p
			resp.Arbitration = policy.p
			var avg float64
			for i := 0; i < b.N; i++ {
				res, err := sim.Run(app.SimConfig(req, resp))
				if err != nil {
					b.Fatal(err)
				}
				avg = res.Latency.SummarizePacket().Avg
			}
			b.ReportMetric(avg, "avg-packet-cycles")
		})
	}
}

// BenchmarkCost regenerates the extension area/power comparison.
func BenchmarkCost(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Cost(experiments.Seed); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAdaptive regenerates the fixed-vs-adaptive window study
// (the paper's future-work extension).
func BenchmarkAdaptive(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Adaptive(experiments.Seed); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWriteModes compares blocking and posted writes on the
// designed Mat2 crossbar (ablation: STbus supports posted operations;
// the reproduction's default is blocking).
func BenchmarkWriteModes(b *testing.B) {
	app := workloads.Mat2(experiments.Seed)
	run, err := experiments.Prepare(app)
	if err != nil {
		b.Fatal(err)
	}
	pair, err := run.Design(core.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	for _, mode := range []struct {
		name   string
		posted bool
	}{{"blocking", false}, {"posted", true}} {
		b.Run(mode.name, func(b *testing.B) {
			req := stbus.Partial(app.NumInitiators, pair.Req.BusOf)
			resp := stbus.Partial(app.NumTargets, pair.Resp.BusOf)
			cfg := app.SimConfig(req, resp)
			cfg.PostedWrites = mode.posted
			var avg float64
			for i := 0; i < b.N; i++ {
				res, err := sim.Run(cfg)
				if err != nil {
					b.Fatal(err)
				}
				avg = res.Latency.SummarizePacket().Avg
			}
			b.ReportMetric(avg, "avg-packet-cycles")
		})
	}
}

// BenchmarkAdapterDelay measures the latency cost of frequency/width
// adapters between heterogeneous cores and the designed Mat2 crossbar.
func BenchmarkAdapterDelay(b *testing.B) {
	app := workloads.Mat2(experiments.Seed)
	run, err := experiments.Prepare(app)
	if err != nil {
		b.Fatal(err)
	}
	pair, err := run.Design(core.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	for _, delay := range []int64{0, 1, 2} {
		b.Run(fmt.Sprintf("delay-%d", delay), func(b *testing.B) {
			req := stbus.Partial(app.NumInitiators, pair.Req.BusOf)
			resp := stbus.Partial(app.NumTargets, pair.Resp.BusOf)
			req.AdapterDelay = delay
			resp.AdapterDelay = delay
			cfg := app.SimConfig(req, resp)
			var avg float64
			for i := 0; i < b.N; i++ {
				res, err := sim.Run(cfg)
				if err != nil {
					b.Fatal(err)
				}
				avg = res.Latency.SummarizePacket().Avg
			}
			b.ReportMetric(avg, "avg-packet-cycles")
		})
	}
}

// BenchmarkMultiUse regenerates the multi-use-case design study.
func BenchmarkMultiUse(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.MultiUse(experiments.Seed); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRobustness regenerates the seed-robustness study.
func BenchmarkRobustness(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Robustness(nil); err != nil {
			b.Fatal(err)
		}
	}
}
