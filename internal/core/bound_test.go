package core

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// TestCardinalityBound builds one 300-cycle window in which 13
// receivers each carry 101 cycles, more than a third of it. A bus holds
// at most two of them, so 7 buses are needed, although their total load
// (1,313 cycles) needs only 5 and nothing else binds: no conflicts, no
// cap. The bound comes from j = 2; at j = 1 no receiver qualifies, so a
// scan that stopped at the first empty count would miss it.
func TestCardinalityBound(t *testing.T) {
	const n, ws = 13, 300
	tr := &trace.Trace{NumReceivers: n, NumSenders: n, Horizon: ws}
	for r := 0; r < n; r++ {
		tr.Events = append(tr.Events, trace.Event{Start: 0, Len: 101, Sender: r, Receiver: r})
	}
	a, err := trace.AnalyzeCtx(context.Background(), tr, ws)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{OverlapThreshold: -1, OptimizeBinding: true}
	p := newAssignProblem(a, BuildConflicts(a, opts), n, 0)
	if lb, kind := p.lowerBound(); lb != 7 || kind != "cardinality" {
		t.Fatalf("lower bound %d (%s), want 7 (cardinality)", lb, kind)
	}
	d, err := DesignCrossbar(a, opts)
	if err != nil {
		t.Fatal(err)
	}
	if d.NumBuses != 7 {
		t.Fatalf("designed %d buses, want 7", d.NumBuses)
	}
}

// fftAnalysis simulates FFT at the given workload seed on the full
// crossbar and analyzes one direction at the app's window size.
func fftAnalysis(tb testing.TB, seed int64, dir string) *trace.Analysis {
	tb.Helper()
	app := workloads.FFT(seed)
	req, resp := app.FullConfig()
	res, err := sim.RunCtx(context.Background(), app.SimConfig(req, resp))
	if err != nil {
		tb.Fatal(err)
	}
	tr := res.ReqTrace
	if dir == "resp" {
		tr = res.RespTrace
	}
	a, err := trace.AnalyzeCtx(context.Background(), tr, app.WindowSize)
	if err != nil {
		tb.Fatal(err)
	}
	return a
}

// TestLowerBoundMeetsFFT checks that the analytic lower bound proves
// FFT's bus count in both directions, so the design needs no
// infeasibility probe: the bandwidth bound alone gives 6 on the request
// side and 5 on the response side, and the cardinality bound lifts both
// to the 7 buses the design needs.
func TestLowerBoundMeetsFFT(t *testing.T) {
	opts := DefaultOptions()
	for _, seed := range []int64{1, 1072} {
		for _, dir := range []string{"req", "resp"} {
			t.Run(fmt.Sprintf("seed%d.%s", seed, dir), func(t *testing.T) {
				a := fftAnalysis(t, seed, dir)
				p := newAssignProblem(a, BuildConflicts(a, opts), opts.MaxPerBus, 0)
				lb, kind := p.lowerBound()
				d, err := DesignCrossbar(a, opts)
				if err != nil {
					t.Fatal(err)
				}
				if lb != 7 || d.NumBuses != 7 || kind != "cardinality" {
					t.Fatalf("lower bound %d (%s), design %d buses; want both 7, from the cardinality bound", lb, kind, d.NumBuses)
				}
			})
		}
	}
}

// BenchmarkDesignFFT designs both directions of FFT at seed 1 and the
// app's window size, the problem that dominates app-spec's solver time.
func BenchmarkDesignFFT(b *testing.B) {
	as := []*trace.Analysis{fftAnalysis(b, 1, "req"), fftAnalysis(b, 1, "resp")}
	opts := DefaultOptions()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, a := range as {
			if _, err := DesignCrossbar(a, opts); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// TestBindExactMatchesOnePass checks the two-pass binding probe against
// the one-pass index-order search it replaces: the same binding,
// objective and capped flag. On FFT's request side at seed 1072, whose
// index-order search climbs through many incumbents, the best-first
// pass must also save nodes. With a 20-node budget pass 1 gets one
// node, is cut short, and the probe is the one-pass search plus the
// nodes pass 1 spent.
func TestBindExactMatchesOnePass(t *testing.T) {
	ctx := context.Background()
	check := func(name string, p *assignProblem, k int, wantCut bool) (one, two *assignResult) {
		t.Helper()
		one, err := p.solveSeeded(ctx, k, true, nil, 0)
		if err != nil {
			t.Fatalf("%s: one pass: %v", name, err)
		}
		two, err = p.bindExact(ctx, k, nil, 0)
		if err != nil {
			t.Fatalf("%s: two passes: %v", name, err)
		}
		sameResult(t, name, one, two)
		if two.pass1Cut != wantCut || two.pass1Nodes <= 0 || two.pass1Nodes > two.nodes {
			t.Fatalf("%s: pass 1 cut %v after %d of %d nodes, want cut %v", name, two.pass1Cut, two.pass1Nodes, two.nodes, wantCut)
		}
		return one, two
	}

	opts := DefaultOptions()
	a := fftAnalysis(t, 1072, "req")
	one, two := check("fft.req.1072", newAssignProblem(a, BuildConflicts(a, opts), opts.MaxPerBus, 0), 7, false)
	if two.nodes >= one.nodes {
		t.Errorf("fft.req.1072: two passes took %d nodes, one pass %d", two.nodes, one.nodes)
	}

	capped := cappedAnalysis(t)
	copts := Options{OverlapThreshold: -1}
	one, two = check("capped", newAssignProblem(capped, BuildConflicts(capped, copts), 8, 20), 3, true)
	if !one.capped || two.nodes != one.nodes+two.pass1Nodes {
		t.Errorf("capped: one pass %d nodes (capped %v), two passes %d with %d in pass 1", one.nodes, one.capped, two.nodes, two.pass1Nodes)
	}
}
