package stbusgen

import (
	"context"
	"fmt"

	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/stbus"
	"repro/internal/trace"
)

// Sentinel errors of the design pipeline, re-exported so facade users
// can classify failures with errors.Is without importing internal
// packages.
var (
	// ErrInfeasible: no bus count in the search range admits a binding.
	ErrInfeasible = core.ErrInfeasible
	// ErrCanceled: the design was abandoned because its context was
	// canceled or timed out. The context cause is wrapped, so
	// errors.Is(err, context.Canceled) (or DeadlineExceeded) also holds.
	ErrCanceled = core.ErrCanceled
	// ErrSearchLimit: the solver exhausted its node budget.
	ErrSearchLimit = core.ErrSearchLimit
)

// Designer is the concurrent design engine: it runs the four-phase
// methodology under a context, designing the two directions and
// analyzing their traces concurrently. Each direction's design runs one
// search thread, so every produced design is the sequential
// pipeline's: concurrency only changes how fast the answer arrives,
// never which answer.
type Designer struct {
	// Opts are the methodology parameters.
	Opts Options
}

// NewDesigner returns a Designer with the given methodology options.
func NewDesigner(opts Options) *Designer { return &Designer{Opts: opts} }

// Design runs the complete methodology on an application under ctx:
// full-crossbar simulation, window analysis of both directions,
// crossbar design for both directions, and validation. Cancellation or
// deadline expiry surfaces promptly as an error wrapping ErrCanceled
// (design phases) or sim.ErrCanceled (simulation phases).
func (d *Designer) Design(ctx context.Context, app *App) (_ *Result, err error) {
	ctx, span := obs.Start(ctx, "designer.design")
	defer span.End()
	defer func() { span.SetError(err) }()
	span.SetStr("app", app.Name)
	span.SetInt("initiators", int64(app.NumInitiators))
	span.SetInt("targets", int64(app.NumTargets))
	opts := d.Opts
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	run, err := experiments.PrepareCtx(ctx, app)
	if err != nil {
		return nil, err
	}
	pair, err := run.DesignCtx(ctx, opts)
	if err != nil {
		return nil, err
	}
	if opts.Audit {
		if err := auditDesign(pair.Req, run.AReq, opts, "request"); err != nil {
			return nil, err
		}
		if err := auditDesign(pair.Resp, run.AResp, opts, "response"); err != nil {
			return nil, err
		}
	}
	validation, err := run.ValidateCtx(ctx, pair)
	if err != nil {
		return nil, err
	}
	return &Result{
		App:          app,
		FullRun:      run.Full,
		ReqAnalysis:  run.AReq,
		RespAnalysis: run.AResp,
		Pair:         pair,
		Validation:   validation,
	}, nil
}

// DesignTrace designs one direction's crossbar from an existing trace
// with the given window size (phases 2–3 only).
func (d *Designer) DesignTrace(ctx context.Context, tr *Trace, windowSize int64) (_ *Design, err error) {
	ctx, span := obs.Start(ctx, "designer.design_trace")
	defer span.End()
	defer func() { span.SetError(err) }()
	span.SetInt("receivers", int64(tr.NumReceivers))
	span.SetInt("window_size", windowSize)
	opts := d.Opts
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	a, err := trace.AnalyzeCtx(ctx, tr, windowSize)
	if err != nil {
		return nil, err
	}
	return designFromAnalysis(ctx, a, opts)
}

// DesignAnalysis designs one direction's crossbar from a precomputed
// window analysis (phase 3 only). It is the entry point for callers
// that produced the analysis themselves — the stbusd daemon for every
// trace job, analyzed in memory (trace.AnalyzeCtx) or out of core over
// a spooled file (trace.AnalyzeFileSharded), where the event stream
// never exists as a Trace value. The design cache keys on the analysis
// fingerprint, so designs reached through this path and through
// DesignTrace share hits.
func (d *Designer) DesignAnalysis(ctx context.Context, a *Analysis) (_ *Design, err error) {
	ctx, span := obs.Start(ctx, "designer.design_analysis")
	defer span.End()
	defer func() { span.SetError(err) }()
	span.SetInt("receivers", int64(a.NumReceivers))
	span.SetInt("windows", int64(a.NumWindows()))
	opts := d.Opts
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	return designFromAnalysis(ctx, a, opts)
}

// designFromAnalysis is the shared phase-3 body of DesignTrace and
// DesignAnalysis: solve, then optionally audit.
func designFromAnalysis(ctx context.Context, a *Analysis, opts Options) (*Design, error) {
	design, err := core.DesignCrossbarCtx(ctx, a, opts)
	if err != nil {
		return nil, err
	}
	if opts.Audit {
		if err := auditDesign(design, a, opts, "trace"); err != nil {
			return nil, err
		}
	}
	return design, nil
}

// auditDesign re-derives every paper constraint for one direction's
// design with the independent checker and converts violations into an
// error. Solver and auditor sharing a bug is the only way this passes
// wrongly, which is exactly the redundancy Options.Audit buys.
func auditDesign(d *Design, a *Analysis, opts Options, direction string) error {
	if rep := check.Audit(d, a, opts); !rep.OK() {
		return fmt.Errorf("stbusgen: %s design failed audit: %w", direction, rep.Err())
	}
	return nil
}

// DesignForAppCtx is DesignForApp under a context.
func DesignForAppCtx(ctx context.Context, app *App, opts Options) (*Result, error) {
	return (&Designer{Opts: opts}).Design(ctx, app)
}

// CollectTraceCtx is CollectTrace under a context.
func CollectTraceCtx(ctx context.Context, app *App) (req, resp *Trace, err error) {
	fullReq, fullResp := app.FullConfig()
	res, err := sim.RunCtx(ctx, app.SimConfig(fullReq, fullResp))
	if err != nil {
		return nil, nil, err
	}
	return res.ReqTrace, res.RespTrace, nil
}

// DesignFromTraceCtx is DesignFromTrace under a context.
func DesignFromTraceCtx(ctx context.Context, tr *Trace, windowSize int64, opts Options) (*Design, error) {
	return (&Designer{Opts: opts}).DesignTrace(ctx, tr, windowSize)
}

// ValidateDesignCtx is ValidateDesign under a context.
func ValidateDesignCtx(ctx context.Context, app *App, pair *DesignPair) (*SimResult, error) {
	if err := checkPair(app, pair); err != nil {
		return nil, err
	}
	req := stbus.Partial(app.NumInitiators, pair.Req.BusOf)
	resp := stbus.Partial(app.NumTargets, pair.Resp.BusOf)
	return sim.RunCtx(ctx, app.SimConfig(req, resp))
}
