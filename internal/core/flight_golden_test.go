package core

import (
	"context"
	"testing"

	"repro/internal/benchprobs"
	"repro/internal/obs"
)

// recordedSolve runs one Analysis12 design under a fresh flight
// recorder and returns both the design and the recording.
func recordedSolve(t *testing.T) (*Design, []obs.Event) {
	t.Helper()
	rec := obs.NewFlightRecorder(obs.DefaultFlightCapacity)
	ctx := obs.WithFlightRecorder(context.Background(), rec)
	d, err := DesignCrossbarCtx(ctx, benchprobs.Analysis12(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if rec.Dropped() != 0 {
		t.Fatalf("recording overwrote %d events — capacity too small for the golden test", rec.Dropped())
	}
	return d, rec.Events()
}

func sameDesign(t *testing.T, label string, a, b *Design) {
	t.Helper()
	if a.NumBuses != b.NumBuses || a.MaxBusOverlap != b.MaxBusOverlap || a.Capped != b.Capped {
		t.Fatalf("%s: designs differ: (%d buses, obj %d, capped %v) vs (%d buses, obj %d, capped %v)",
			label, a.NumBuses, a.MaxBusOverlap, a.Capped, b.NumBuses, b.MaxBusOverlap, b.Capped)
	}
	if len(a.BusOf) != len(b.BusOf) {
		t.Fatalf("%s: binding lengths differ: %d vs %d", label, len(a.BusOf), len(b.BusOf))
	}
	for i := range a.BusOf {
		if a.BusOf[i] != b.BusOf[i] {
			t.Fatalf("%s: binding differs at receiver %d: %d vs %d", label, i, a.BusOf[i], b.BusOf[i])
		}
	}
}

// TestFlightGoldenCanonical pins the schedule-invariant canonical
// reduction of a fixed 12-receiver solve: two
// recordings of the same problem must reduce to the same canonical
// event sequence, and that sequence itself is pinned here so a change
// to the search's decision structure (not just its schedule) fails
// loudly.
func TestFlightGoldenCanonical(t *testing.T) {
	d1, ev1 := recordedSolve(t)
	d2, ev2 := recordedSolve(t)

	// The design is deterministic, and recording must not perturb it.
	sameDesign(t, "run 1 vs run 2", d1, d2)

	c1, c2 := obs.Canonical(ev1), obs.Canonical(ev2)
	if diff := obs.DiffEvents(c1, c2); diff != "" {
		t.Fatalf("canonical recordings diverge between runs:\n%s", diff)
	}

	// Pinned canonical sequence for benchprobs.Analysis12 under
	// DefaultOptions. The clique lower bound starts
	// the search at k=4, which is feasible outright (first binding at
	// objective 856), so no infeasible close survives the reduction;
	// the optimize pass then settles the objective at 432. Seq/T and
	// node counts are schedule artifacts already zeroed by Canonical.
	if d1.NumBuses != 4 || d1.MaxBusOverlap != 432 {
		t.Fatalf("design drifted from the golden instance: %d buses, objective %d (want 4, 432)",
			d1.NumBuses, d1.MaxBusOverlap)
	}
	want := []obs.Event{
		{Kind: obs.EvDesignStart, Val: 12},
		{Kind: obs.EvProbeClose, K: 4, Who: "feasible", Val: 856},
		{Kind: obs.EvProbeClose, K: 4, Flag: true, Who: "feasible", Val: 432},
		{Kind: obs.EvDesignDone, K: 4, Val: 432},
	}
	if diff := obs.DiffEvents(want, c1); diff != "" {
		t.Fatalf("canonical recording diverged from the pinned golden sequence:\n%s", diff)
	}
}

// TestFlightRecordingDoesNotPerturbDesign pins the acceptance
// criterion that recorded and unrecorded solves produce bit-identical
// designs: the recorder is observation only.
func TestFlightRecordingDoesNotPerturbDesign(t *testing.T) {
	bare, err := DesignCrossbarCtx(context.Background(), benchprobs.Analysis12(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	recorded, _ := recordedSolve(t)
	sameDesign(t, "recorded vs unrecorded", bare, recorded)
}
