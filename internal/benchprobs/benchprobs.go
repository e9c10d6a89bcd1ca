// Package benchprobs builds deterministic solver benchmark instances.
// They are shared by the in-tree `go test -bench` microbenchmarks, the
// tests that pin large-instance outcomes, and the cmd/bench end-to-end
// benchmark, so all of them measure the same problems.
//
// The package deliberately depends only on internal/trace: benchmark
// code living inside internal/core can import it without an import
// cycle.
package benchprobs

import (
	"context"
	"fmt"
	"math/rand"

	"repro/internal/trace"
)

// Analysis32 returns the window analysis of a synthetic trace with 32
// receivers — the STbus architectural maximum and the largest
// feasibility problem the crossbar methodology ever poses. The
// traffic is staggered DMA-style bursts with a deterministic layout:
// heavy enough that several buses are needed, light enough that the
// instance stays feasible well below 32 buses.
func Analysis32() *trace.Analysis {
	return analysisN(32)
}

// Analysis12 is a mid-size (12-receiver) variant for the feasibility
// benchmarks, between Analysis8 and the architectural maximum.
func Analysis12() *trace.Analysis {
	return analysisN(12)
}

// Analysis8 is the small variant used for the binding (optimize-mode)
// benchmarks: the exact binding MILP of Eq. 9–11 couples every bus pair
// through the shared max-overlap variable and is far more expensive per
// bus count than the feasibility probe, so it gets the smallest
// instance.
func Analysis8() *trace.Analysis {
	return analysisN(8)
}

// TraceN returns the synthetic staggered-burst trace behind AnalysisN
// without analyzing it, for callers that want to drive the analysis
// kernels themselves (the adaptive-window equivalence tests, for one).
func TraceN(n int) *trace.Trace {
	return traceN(n)
}

func analysisN(n int) *trace.Analysis {
	tr := traceN(n)
	a, err := trace.AnalyzeCtx(context.Background(), tr, analysisWindow)
	if err != nil {
		panic(fmt.Sprintf("benchprobs: %v", err))
	}
	return a
}

const analysisWindow = 400

func traceN(n int) *trace.Trace {
	const horizon = 4000
	rng := rand.New(rand.NewSource(int64(n) * 7919))
	tr := &trace.Trace{NumReceivers: n, NumSenders: 1, Horizon: horizon}
	for r := 0; r < n; r++ {
		// Each receiver bursts once per period; periods and phases are
		// spread so windows see varied pairings and some hot spots.
		period := int64(400 + 25*(r%5))
		phase := int64((r * 137) % 400)
		burst := int64(100 + 12*(r%4) + rng.Intn(8))
		for s := phase; s < horizon; s += period {
			l := burst
			if s+l > horizon {
				l = horizon - s
			}
			if l <= 0 {
				continue
			}
			tr.Events = append(tr.Events, trace.Event{Start: s, Len: l, Receiver: r})
		}
	}
	return tr
}

// Analysis128 returns the window analysis of the 128-receiver
// production-scale instance (see analysisLarge). It is the smallest of
// the large set and the one the solver benchmarks pin to audited
// optimality under the default node budget.
func Analysis128() *trace.Analysis {
	return analysisLarge(128)
}

// Analysis256 is the 256-receiver variant of analysisLarge.
func Analysis256() *trace.Analysis {
	return analysisLarge(256)
}

// Analysis512 is the 512-receiver variant of analysisLarge — the upper
// end of the application-specific NoC scale the solver targets, and
// well past the 64-vertex limit of the old single-word clique bound.
func Analysis512() *trace.Analysis {
	return analysisLarge(512)
}

// analysisLarge builds the production-scale instances: n receivers in
// three phase classes (offsets 0/130/260 inside each 400-cycle window)
// bursting 121–128 cycles per window. Same-class pairs overlap by more
// than the 30% conflict threshold, so every class is a conflict clique
// of ~n/3 receivers — past 64 vertices the exact multi-word clique
// bound is what proves the minimal bus count outright. Cross-class
// pairs never overlap (130 ≥ max burst), so the aggregate-overlap
// matrix is block-diagonal and the optimal binding objective is
// exactly zero: a correct solver settles these instances through its
// bounds rather than through search, which is the point — they verify
// that the bounds, the conflict machinery and the binding proof all
// scale, and any regression that breaks a bound turns them from
// milliseconds into an exponential search.
func analysisLarge(n int) *trace.Analysis {
	const horizon = 4000
	rng := rand.New(rand.NewSource(int64(n) * 104729))
	tr := &trace.Trace{NumReceivers: n, NumSenders: 1, Horizon: horizon}
	for r := 0; r < n; r++ {
		off := int64((r % 3) * 130)
		for w := int64(0); w < horizon/analysisWindow; w++ {
			l := int64(121 + rng.Intn(8))
			tr.Events = append(tr.Events, trace.Event{Start: w*analysisWindow + off, Len: l, Receiver: r})
		}
	}
	a, err := trace.AnalyzeCtx(context.Background(), tr, analysisWindow)
	if err != nil {
		panic(fmt.Sprintf("benchprobs: %v", err))
	}
	return a
}

// PerturbTrace returns a copy of tr with roughly frac of its events'
// burst lengths jittered by a few cycles — the "yesterday's trace,
// today's firmware" scenario the warm re-solve benchmarks model. The
// perturbation is deterministic in seed, structurally valid (lengths
// stay positive and inside the horizon), and proportional: frac 0.01
// touches ~1% of events, so the window analysis of the result differs
// from the original's in a correspondingly small number of cells.
func PerturbTrace(tr *trace.Trace, frac float64, seed int64) *trace.Trace {
	rng := rand.New(rand.NewSource(seed))
	out := &trace.Trace{
		NumReceivers: tr.NumReceivers,
		NumSenders:   tr.NumSenders,
		Horizon:      tr.Horizon,
		Events:       append([]trace.Event(nil), tr.Events...),
	}
	for i := range out.Events {
		if rng.Float64() >= frac {
			continue
		}
		ev := &out.Events[i]
		ev.Len += int64(rng.Intn(9) - 4) // ±4 cycles
		if ev.Len < 1 {
			ev.Len = 1
		}
		if ev.Start+ev.Len > out.Horizon {
			ev.Len = out.Horizon - ev.Start
		}
		if ev.Len < 1 {
			ev.Len = 1
		}
	}
	return out
}

// AnalysisWindow is the window size behind Analysis8/12/32, exported
// so perturbed variants of those instances can be re-analyzed under
// identical options (a cache key requirement).
const AnalysisWindow = analysisWindow
