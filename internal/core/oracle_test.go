package core_test

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/oracle"
	"repro/internal/trace"
)

// TestEnginesAgree: the specialized solver and the literal MILP
// formulation (the oracle) produce the same bus count and objective.
func TestEnginesAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for iter := 0; iter < 10; iter++ {
		a := core.RandomAnalysis(t, rng, 2+rng.Intn(4)) // up to 5 receivers
		opts := core.Options{
			OverlapThreshold: 0.4,
			SeparateCritical: true,
			MaxPerBus:        3,
			OptimizeBinding:  true,
		}
		dBB, err := core.DesignCrossbar(a, opts)
		if err != nil {
			t.Fatalf("iter %d: branch-bound: %v", iter, err)
		}
		dMI, err := oracle.Design(context.Background(), a, opts)
		if err != nil {
			t.Fatalf("iter %d: milp: %v", iter, err)
		}
		if dBB.NumBuses != dMI.NumBuses {
			t.Errorf("iter %d: bus counts differ: bb=%d milp=%d", iter, dBB.NumBuses, dMI.NumBuses)
		}
		if dBB.MaxBusOverlap != dMI.MaxBusOverlap {
			t.Errorf("iter %d: objectives differ: bb=%d milp=%d", iter, dBB.MaxBusOverlap, dMI.MaxBusOverlap)
		}
		if err := dMI.Validate(a, opts); err != nil {
			t.Errorf("iter %d: MILP design invalid: %v", iter, err)
		}
	}
}

func TestFormulateStructure(t *testing.T) {
	a := core.MkAnalysis(t, 3, 100, 100, []trace.Event{
		{Start: 0, Len: 40, Receiver: 0},
		{Start: 0, Len: 40, Receiver: 1},
		{Start: 50, Len: 20, Receiver: 2},
	})
	conflicts := core.BuildConflicts(a, core.Options{OverlapThreshold: 0.1})
	f := oracle.Formulate(a, conflicts, 2, 2, true)
	if f.NumBuses != 2 {
		t.Errorf("NumBuses = %d", f.NumBuses)
	}
	if f.MaxovIdx < 0 {
		t.Error("binding formulation missing maxov variable")
	}
	// Feasibility mode has no objective variable.
	ff := oracle.Formulate(a, conflicts, 2, 2, false)
	if ff.MaxovIdx != -1 {
		t.Error("feasibility formulation should have no maxov")
	}
	if ff.Problem.LP.Objective != nil {
		t.Error("feasibility formulation should have no objective")
	}
}

func TestFormulationExtractErrors(t *testing.T) {
	a := core.MkAnalysis(t, 2, 100, 100, nil)
	conflicts := core.BuildConflicts(a, core.Options{OverlapThreshold: -1})
	f := oracle.Formulate(a, conflicts, 2, 2, false)
	x := make([]float64, f.Problem.LP.NumVars)
	// Receiver 0 unbound.
	if _, err := f.Extract(x); err == nil {
		t.Error("unbound receiver accepted")
	}
	// Receiver 0 double-bound.
	x[0], x[1] = 1, 1 // x(0,0) and x(0,1)
	if _, err := f.Extract(x); err == nil {
		t.Error("double-bound receiver accepted")
	}
}

func TestSolveMILPInfeasibleBusCount(t *testing.T) {
	// Two receivers that must be separated; one bus is infeasible.
	a := core.MkAnalysis(t, 2, 100, 100, []trace.Event{
		{Start: 0, Len: 60, Receiver: 0},
		{Start: 0, Len: 60, Receiver: 1},
	})
	conflicts := core.BuildConflicts(a, core.Options{OverlapThreshold: -1})
	busOf, _, err := oracle.NewFormulator(a, conflicts, 2).Probe(context.Background(), 1, false)
	if err != nil {
		t.Fatal(err)
	}
	if busOf != nil {
		t.Error("infeasible bus count reported feasible")
	}
	// The oracle's design loop reports the same verdict for the range.
	_, err = oracle.Design(context.Background(), a, core.Options{OverlapThreshold: -1, MaxBuses: 1})
	if !errors.Is(err, core.ErrInfeasible) {
		t.Errorf("oracle design with one bus: err = %v, want ErrInfeasible", err)
	}
}

func TestMILPEngineFirstFeasibleMatchesValidate(t *testing.T) {
	a := core.MkAnalysis(t, 4, 200, 50, []trace.Event{
		{Start: 0, Len: 30, Receiver: 0},
		{Start: 0, Len: 30, Receiver: 1},
		{Start: 60, Len: 30, Receiver: 2},
		{Start: 100, Len: 30, Receiver: 3},
	})
	opts := core.Options{OverlapThreshold: 0.5, MaxPerBus: 3}
	d, err := oracle.Design(context.Background(), a, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Validate(a, opts); err != nil {
		t.Errorf("MILP design invalid: %v", err)
	}
}
