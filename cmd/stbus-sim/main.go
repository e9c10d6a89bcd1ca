// Command stbus-sim runs one of the benchmark applications on a chosen
// STbus configuration, reports cycle-accurate latency statistics, and
// optionally dumps the functional traffic traces for use with xbargen.
//
// Usage:
//
//	stbus-sim -app mat2 -arch full -dump-traces mat2
//	stbus-sim -app synth -burst 2000 -arch shared
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/cli"
	"repro/internal/sim"
	"repro/internal/stbus"
	"repro/internal/trace"
	"repro/internal/workloads"
)

var (
	appName    = flag.String("app", "mat2", "application: mat1, mat2, fft, qsort, des, synth")
	specPath   = flag.String("spec", "", "JSON workload spec file (overrides -app)")
	arch       = flag.String("arch", "full", "interconnect: full or shared")
	seed       = flag.Int64("seed", 1, "workload seed")
	burst      = flag.Int64("burst", 1000, "nominal burst length for -app synth (cycles)")
	dumpTraces = flag.String("dump-traces", "", "prefix for binary trace dumps (<prefix>.req.trc, <prefix>.resp.trc)")
	asJSON     = flag.Bool("json-traces", false, "dump traces as JSON instead of binary")
	traceFmt   = flag.String("trace-format", "v1", "binary trace container: v1 (fixed 25-byte records) or v2 (columnar delta-encoded, ~5x smaller)")
)

func main() { cli.Main("stbus-sim", run) }

func run(ctx context.Context) (err error) {

	var app *workloads.App
	if *specPath != "" {
		spec, err := readSpecFile(*specPath)
		if err != nil {
			return err
		}
		app, err = spec.Build(*seed)
		if err != nil {
			return err
		}
	} else {
		var err error
		app, err = lookupApp(*appName, *seed, *burst)
		if err != nil {
			return err
		}
	}

	var req, resp *stbus.Config
	switch *arch {
	case "full":
		req, resp = app.FullConfig()
	case "shared":
		req, resp = app.SharedConfig()
	default:
		return fmt.Errorf("unknown -arch %q (want full or shared)", *arch)
	}

	res, err := sim.RunCtx(ctx, app.SimConfig(req, resp))
	if err != nil {
		return err
	}

	s := res.Latency.SummarizePacket()
	tx := res.Latency.Summarize()
	fmt.Printf("%s on %s STbus (%d initiators, %d targets, horizon %d cycles)\n",
		app.Name, *arch, app.NumInitiators, app.NumTargets, app.Horizon)
	fmt.Printf("  transactions: %d (cores completed: %d/%d)\n", s.Count, res.Completed, app.NumInitiators)
	fmt.Printf("  packet latency:      avg %.2f  max %d  p95 %d cycles\n", s.Avg, s.Max, s.P95)
	fmt.Printf("  transaction latency: avg %.2f  max %d  p95 %d cycles\n", tx.Avg, tx.Max, tx.P95)
	fmt.Printf("  request-bus utilization:  %s\n", fmtUtil(res.ReqUtil))
	fmt.Printf("  response-bus utilization: %s\n", fmtUtil(res.RespUtil))

	if *dumpTraces != "" {
		if err := dumpTrace(*dumpTraces+".req.trc", res.ReqTrace, *asJSON); err != nil {
			return err
		}
		if err := dumpTrace(*dumpTraces+".resp.trc", res.RespTrace, *asJSON); err != nil {
			return err
		}
		fmt.Printf("  traces written to %s.req.trc and %s.resp.trc\n", *dumpTraces, *dumpTraces)
	}
	return nil
}

// readSpecFile loads a JSON workload spec.
func readSpecFile(path string) (*workloads.Spec, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return workloads.ReadSpec(f)
}

func lookupApp(name string, seed, burst int64) (*workloads.App, error) {
	switch strings.ToLower(name) {
	case "mat1":
		return workloads.Mat1(seed), nil
	case "mat2":
		return workloads.Mat2(seed), nil
	case "fft":
		return workloads.FFT(seed), nil
	case "qsort":
		return workloads.QSort(seed), nil
	case "des":
		return workloads.DES(seed), nil
	case "synth":
		return workloads.Synthetic(seed, burst), nil
	}
	return nil, fmt.Errorf("unknown -app %q (want mat1, mat2, fft, qsort, des, synth)", name)
}

func fmtUtil(util []float64) string {
	parts := make([]string, len(util))
	for i, u := range util {
		parts[i] = fmt.Sprintf("%.0f%%", u*100)
	}
	return strings.Join(parts, " ")
}

func dumpTrace(path string, tr *trace.Trace, asJSON bool) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if asJSON {
		return trace.WriteJSON(f, tr)
	}
	switch *traceFmt {
	case "v1":
		return trace.WriteBinary(f, tr)
	case "v2":
		return trace.WriteBinaryV2(f, tr)
	}
	return fmt.Errorf("-trace-format: unknown %q (want v1 or v2)", *traceFmt)
}
