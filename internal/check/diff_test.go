package check

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/oracle"
	"repro/internal/trace"
)

func mkEvent(start, length int64, r int) trace.Event {
	return trace.Event{Start: start, Len: length, Sender: 0, Receiver: r}
}

// TestRandomTraceDeterministic pins the generator's replayability: the
// same seed must produce the identical trace, or a reported failing
// case number would be useless.
func TestRandomTraceDeterministic(t *testing.T) {
	p := DefaultGenParams()
	for seed := int64(0); seed < 10; seed++ {
		a, b := RandomTrace(seed, p), RandomTrace(seed, p)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: non-deterministic trace", seed)
		}
	}
}

// TestRandomTraceValid ensures every generated trace satisfies the
// structural invariants the pipeline assumes.
func TestRandomTraceValid(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		if err := RandomTrace(seed, GenParams{}).Validate(); err != nil {
			t.Fatalf("seed %d: invalid trace: %v", seed, err)
		}
	}
}

// TestDifferentialSolvers is the solver-agreement gate: ≥200 seeded
// cases solved by the specialized assignment search and the literal
// MILP oracle must produce identical feasibility verdicts,
// identical minimal bus counts, identical optimal objectives (binding
// mode), and constraint-clean designs under the independent auditor.
func TestDifferentialSolvers(t *testing.T) {
	if testing.Short() {
		t.Skip("differential sweep skipped in -short mode")
	}
	const cases = 220
	for seed := int64(1); seed <= cases; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			c := RandomCase(seed, DefaultGenParams())
			out, err := diffCase(context.Background(), c)
			if err != nil {
				t.Fatalf("case %d: %v", seed, err)
			}
			for _, d := range out.Disagreements() {
				t.Errorf("case %d (nT=%d, ws=%d, opts=%+v): %s",
					seed, c.Trace.NumReceivers, c.WindowSize, c.Opts, d)
			}
		})
	}
}

// TestDiffInfeasibleAgreement forces the infeasible verdict directly:
// MaxBuses=1 with a guaranteed conflict leaves no feasible count, and
// all three paths must say so.
func TestDiffInfeasibleAgreement(t *testing.T) {
	c := RandomCase(3, DefaultGenParams())
	// Rebuild a case that must be infeasible: two receivers that
	// overlap the full horizon, threshold 0, one bus allowed.
	c.Trace.NumReceivers = 2
	c.Trace.Events = c.Trace.Events[:0]
	for r := 0; r < 2; r++ {
		c.Trace.Events = append(c.Trace.Events, mkEvent(0, c.Trace.Horizon, r))
	}
	c.WindowSize = c.Trace.Horizon
	c.Opts.OverlapThreshold = 0
	c.Opts.MaxPerBus = 0
	c.Opts.MaxBuses = 1
	out, err := diffCase(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range out.Verdicts {
		if v.Feasible {
			t.Errorf("path %s found the infeasible case feasible", v.Path)
		}
	}
	if ds := out.Disagreements(); len(ds) != 0 {
		t.Errorf("unexpected disagreements: %v", ds)
	}
}

// SolverPath is one of the design paths whose agreement the
// differential harness asserts.
type SolverPath struct {
	// Name identifies the path in disagreement reports.
	Name string
	// Design solves the case's problem on this path.
	Design func(context.Context, *trace.Analysis, core.Options) (*core.Design, error)
}

// solverPaths returns the paths the harness pins: the branch and bound
// and the literal MILP oracle, which shares nothing with the branch and
// bound past the conflict matrix.
func solverPaths() []SolverPath {
	return []SolverPath{
		{Name: "assign", Design: core.DesignCrossbarCtx},
		{Name: "milp-oracle", Design: oracle.Design},
	}
}

// Verdict is one solver path's outcome on a case.
type Verdict struct {
	Path string
	// Feasible is false when the path proved the whole bus range
	// infeasible (core.ErrInfeasible).
	Feasible bool
	// Design is the produced design when feasible.
	Design *core.Design
	// Err holds any non-infeasibility failure (a harness error: node
	// limit, cancellation, solver defect).
	Err error
}

// DiffOutcome is the differential result of one case across all paths.
type DiffOutcome struct {
	Case     Case
	Analysis *trace.Analysis
	Verdicts []Verdict
}

// Disagreements returns a description per solver-contract breach: a
// feasibility verdict mismatch, a minimal-bus-count mismatch, an
// optimal-objective mismatch (binding mode only — the exact paths
// must agree on the optimum even when tie-broken bindings differ), or
// an audit violation in any produced design. Empty means the paths
// agree and every design is constraint-clean.
func (o *DiffOutcome) Disagreements() []string {
	var out []string
	ref := o.Verdicts[0]
	for _, v := range o.Verdicts[1:] {
		if v.Feasible != ref.Feasible {
			out = append(out, fmt.Sprintf("feasibility: %s=%v, %s=%v", ref.Path, ref.Feasible, v.Path, v.Feasible))
			continue
		}
		if !v.Feasible {
			continue
		}
		if v.Design.NumBuses != ref.Design.NumBuses {
			out = append(out, fmt.Sprintf("bus count: %s=%d, %s=%d", ref.Path, ref.Design.NumBuses, v.Path, v.Design.NumBuses))
		}
		if o.Case.Opts.OptimizeBinding && v.Design.MaxBusOverlap != ref.Design.MaxBusOverlap {
			out = append(out, fmt.Sprintf("objective: %s=%d, %s=%d", ref.Path, ref.Design.MaxBusOverlap, v.Path, v.Design.MaxBusOverlap))
		}
	}
	for _, v := range o.Verdicts {
		if !v.Feasible {
			continue
		}
		if v.Design.Capped {
			// The differential cases are sized so every path proves its
			// answer; a budget-capped (unproven) design here means a path
			// silently degraded to best-effort.
			out = append(out, fmt.Sprintf("capped(%s): returned an unproven design on a case every path must prove", v.Path))
		}
		if rep := Audit(v.Design, o.Analysis, o.Case.Opts); !rep.OK() {
			out = append(out, fmt.Sprintf("audit(%s): %v", v.Path, rep.Err()))
		}
	}
	return out
}

// diffCase analyzes the case's trace once and solves the same problem
// on every solver path. It errs only on harness failures (analysis
// errors, unexpected solver errors); disagreements between successful
// runs are data, reported by DiffOutcome.Disagreements.
func diffCase(ctx context.Context, c Case) (*DiffOutcome, error) {
	a, err := trace.AnalyzeCtx(ctx, c.Trace, c.WindowSize)
	if err != nil {
		return nil, fmt.Errorf("check: analyzing case %d: %w", c.Seed, err)
	}
	out := &DiffOutcome{Case: c, Analysis: a}
	for _, path := range solverPaths() {
		d, err := path.Design(ctx, a, c.Opts)
		v := Verdict{Path: path.Name}
		switch {
		case err == nil:
			v.Feasible = true
			v.Design = d
		case errors.Is(err, core.ErrInfeasible):
			// The negative verdict: every path must reproduce it.
		default:
			v.Err = fmt.Errorf("check: case %d, path %s: %w", c.Seed, path.Name, err)
			return nil, v.Err
		}
		out.Verdicts = append(out.Verdicts, v)
	}
	return out, nil
}
