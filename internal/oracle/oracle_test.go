package oracle

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/trace"
)

// TestFormulationCoversEveryBusyWindow pins the oracle's independence
// from core's window reduction: Eq. 4 gets one row per bus for every
// window with traffic, dominated windows included. Window 1 below is
// dominated by window 0 (the same receivers, lighter loads), so the
// reduced set core solves over would drop it; the idle window 2 loads
// no bus and gets no row.
func TestFormulationCoversEveryBusyWindow(t *testing.T) {
	tr := &trace.Trace{NumReceivers: 2, NumSenders: 1, Horizon: 300, Events: []trace.Event{
		{Start: 0, Len: 60, Receiver: 0},
		{Start: 0, Len: 50, Receiver: 1},
		{Start: 100, Len: 30, Receiver: 0},
		{Start: 130, Len: 20, Receiver: 1},
	}}
	a, err := trace.AnalyzeCtx(context.Background(), tr, 100)
	if err != nil {
		t.Fatal(err)
	}
	conflicts := core.BuildConflicts(a, core.Options{OverlapThreshold: -1})
	const buses = 2
	f := Formulate(a, conflicts, buses, 0, false)
	// Eq. 3 (one row per receiver), Eq. 4 (busy windows × buses) and
	// the one weak symmetry row x_{0,1} = 0; no pairs, no cap.
	if want := 2 + 2*buses + 1; len(f.Problem.LP.Constraints) != want {
		t.Fatalf("%d rows, want %d (both busy windows, every bus)", len(f.Problem.LP.Constraints), want)
	}
}
