package stbusgen_test

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"

	stbusgen "repro"
	"repro/internal/core"
	"repro/internal/experiments"
)

// TestDesignerAuditsWhenEnabled runs the full methodology with the
// independent auditor switched on: a correct solver produces designs
// the auditor certifies, so the run must succeed exactly as without
// auditing.
func TestDesignerAuditsWhenEnabled(t *testing.T) {
	opts := stbusgen.DefaultOptions()
	opts.Audit = true
	app := stbusgen.QSort(1)
	res, err := stbusgen.NewDesigner(opts).Design(context.Background(), app)
	if err != nil {
		t.Fatalf("audited design failed: %v", err)
	}
	if res.Pair.Req.NumBuses <= 0 || res.Pair.Resp.NumBuses <= 0 {
		t.Fatalf("audited design produced empty pair: %+v", res.Pair)
	}
}

// TestDesignerRejectsInvalidOptions pins that every facade entry point
// runs Options.Validate before touching the pipeline.
func TestDesignerRejectsInvalidOptions(t *testing.T) {
	bad := stbusgen.DefaultOptions()
	bad.OverlapThreshold = math.NaN()
	d := stbusgen.NewDesigner(bad)
	app := stbusgen.QSort(1)

	if _, err := d.Design(context.Background(), app); err == nil {
		t.Error("Design accepted NaN threshold")
	}
	tr := &stbusgen.Trace{NumReceivers: 1, NumSenders: 1, Horizon: 10}
	if _, err := d.DesignTrace(context.Background(), tr, 10); err == nil {
		t.Error("DesignTrace accepted NaN threshold")
	}

	bad.OverlapThreshold = 0.3
	bad.MaxNodes = -1
	if _, err := stbusgen.DesignForApp(app, bad); err == nil {
		t.Error("DesignForApp accepted negative node budget")
	}
}

// TestValidateDesignRejectsOutOfRangeBus pins the checkPair hardening:
// a binding whose bus index exceeds the declared bus count must be
// rejected up front, not crash netlist generation or simulation.
func TestValidateDesignRejectsOutOfRangeBus(t *testing.T) {
	app := stbusgen.Mat2(1)
	req := &core.Design{NumBuses: 2, BusOf: make([]int, app.NumTargets)}
	req.BusOf[0] = 7 // out of range
	bad := &stbusgen.DesignPair{
		Req:  req,
		Resp: &core.Design{NumBuses: 1, BusOf: make([]int, app.NumInitiators)},
	}
	_, err := stbusgen.ValidateDesign(app, bad)
	if err == nil {
		t.Fatal("out-of-range bus index accepted")
	}
	if !strings.Contains(err.Error(), "bus") {
		t.Errorf("rejection does not name the bus problem: %v", err)
	}
	if _, err := stbusgen.ValidateDesign(app, &stbusgen.DesignPair{}); err == nil {
		t.Error("incomplete design pair accepted")
	}
}

// TestDesignerCanceled: a cancellation arriving mid-pipeline aborts
// the facade Design promptly with a context error.
func TestDesignerCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	d := stbusgen.NewDesigner(stbusgen.DefaultOptions())
	if _, err := d.Design(ctx, stbusgen.Mat2(experiments.Seed)); !errors.Is(err, context.Canceled) {
		t.Errorf("Design under canceled ctx = %v, want context.Canceled", err)
	}
}
