// Command xbargen designs an STbus crossbar from a functional traffic
// trace (as produced by stbus-sim -dump-traces): it runs the
// window-based analysis, the pre-processing, the feasibility binary
// search and the optimal binding, then prints the resulting
// configuration.
//
// Usage:
//
//	xbargen -trace mat2.req.trc -window 800
//	xbargen -trace mat2.resp.trc -window 800 -threshold 0.4 -maxtb 4 -engine milp
//	xbargen -trace mat2.req.trc -trace-out design.trace.json
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"

	"repro/internal/cache"
	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/stbus"
	"repro/internal/trace"
)

var (
	tracePath  = flag.String("trace", "", "trace file (binary or JSON)")
	window     = flag.Int64("window", 0, "analysis window size in cycles (0 = horizon/100)")
	threshold  = flag.Float64("threshold", 0.30, "overlap threshold as a fraction of the window (negative disables)")
	maxtb      = flag.Int("maxtb", 4, "maximum receivers per bus (0 = unlimited)")
	noBind     = flag.Bool("no-binding", false, "skip the optimal-binding phase")
	noCrit     = flag.Bool("no-critical", false, "do not separate overlapping critical streams")
	engine     = flag.String("engine", "bb", "solver engine: bb (branch and bound), milp, or portfolio (race bb and milp per probe)")
	jsonTrace  = flag.Bool("json", false, "trace file is JSON")
	netlist    = flag.String("netlist", "", "also write a JSON netlist of the designed direction (paired with a full crossbar for the other direction)")
	structural = flag.Bool("structural", false, "print a structural-HDL rendering of the design")
	cacheDir   = flag.String("cache-dir", "", "content-addressed design cache directory: identical (trace, options) runs are served from it, near-identical ones warm-start the solver; results are bit-identical either way")
)

func main() { cli.Main("xbargen", run) }

func run(ctx context.Context) (err error) {

	if *tracePath == "" {
		return errors.New("missing -trace")
	}
	f, err := os.Open(*tracePath)
	if err != nil {
		return err
	}
	defer f.Close()
	var tr *trace.Trace
	if *jsonTrace {
		tr, err = trace.ReadJSON(f)
	} else {
		tr, err = trace.ReadBinary(f)
	}
	if err != nil {
		return err
	}

	ws := *window
	if ws <= 0 {
		ws = tr.WindowSizeHint()
	}
	a, err := trace.AnalyzeCtx(ctx, tr, ws)
	if err != nil {
		return err
	}

	opts := core.Options{
		OverlapThreshold: *threshold,
		SeparateCritical: !*noCrit,
		MaxPerBus:        *maxtb,
		OptimizeBinding:  !*noBind,
		Workers:          cli.Workers(),
	}
	if opts.Engine, err = cli.ParseEngine(*engine); err != nil {
		return fmt.Errorf("-engine: %w", err)
	}
	if *cacheDir != "" {
		opts.Cache = cache.New(cache.Config{Dir: *cacheDir})
	}

	d, err := core.DesignCrossbarCtx(ctx, a, opts)
	if err != nil {
		return err
	}

	burst := tr.Bursts()
	fmt.Printf("trace: %d receivers, %d events, horizon %d cycles, mean burst %.0f cycles\n",
		tr.NumReceivers, len(tr.Events), tr.Horizon, burst.MeanLen)
	fmt.Printf("analysis: %d windows of %d cycles, peak windowed demand %d buses\n",
		a.NumWindows(), ws, a.MaxWindowLoad())
	fmt.Printf("design (%s engine): %d buses, %d conflict pairs, max bus overlap %d cycles, %d search nodes\n",
		d.Engine, d.NumBuses, d.Conflicts, d.MaxBusOverlap, d.SearchNodes)
	for b := 0; b < d.NumBuses; b++ {
		fmt.Printf("  bus %d:", b)
		for r, bus := range d.BusOf {
			if bus == b {
				fmt.Printf(" r%d", r)
			}
		}
		fmt.Println()
	}

	if *netlist != "" || *structural {
		designed := stbus.Partial(tr.NumSenders, d.BusOf)
		other := stbus.Full(tr.NumReceivers, tr.NumSenders)
		nl, err := stbus.GenerateNetlist(*tracePath, designed, other)
		if err != nil {
			return err
		}
		if *netlist != "" {
			out, err := os.Create(*netlist)
			if err != nil {
				return err
			}
			if err := nl.WriteJSON(out); err != nil {
				out.Close()
				return err
			}
			if err := out.Close(); err != nil {
				return err
			}
			fmt.Printf("netlist written to %s\n", *netlist)
		}
		if *structural {
			if err := nl.WriteStructural(os.Stdout); err != nil {
				return err
			}
		}
	}
	return nil
}
