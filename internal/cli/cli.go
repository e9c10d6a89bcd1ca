// Package cli holds the scaffolding shared by the command-line tools:
// a root context wired to Ctrl-C / SIGTERM and an optional -timeout
// deadline, so every tool can be interrupted or bounded and still exit
// through its normal error path, plus the shared profiling
// (-cpuprofile, -memprofile) and observability (-trace-out,
// -flight-out, -metrics-addr, -progress) flags.
package cli

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// Context returns the root context of a tool run. It is canceled on
// SIGINT or SIGTERM and, when timeout is positive, expires after that
// duration. The returned stop function releases the signal handler and
// any timer; call it (usually via defer) before exiting.
func Context(timeout time.Duration) (context.Context, context.CancelFunc) {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	if timeout <= 0 {
		return ctx, stop
	}
	ctx, cancel := context.WithTimeout(ctx, timeout)
	return ctx, func() {
		cancel()
		stop()
	}
}

// Profiling flags shared by every tool. They are registered on the
// default flag set at package init, so importing cli is enough for a
// tool to accept -cpuprofile and -memprofile.
var (
	cpuProfilePath = flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfilePath = flag.String("memprofile", "", "write a heap profile to this file at exit")
)

// StartProfiling honors the -cpuprofile / -memprofile flags. Call it
// after flag.Parse; the returned stop function finishes the CPU profile
// and writes the heap profile, so it must run on every exit path —
// tools use the run()-returns-error pattern so their deferred stop
// also fires on errors and Ctrl-C cancellation. Both profile files are
// created eagerly, so an unwritable path fails the run up front
// instead of being discovered (or silently dropped) at exit.
func StartProfiling() (stop func() error, err error) {
	var cpuFile, memFile *os.File
	if *cpuProfilePath != "" {
		cpuFile, err = os.Create(*cpuProfilePath)
		if err != nil {
			return nil, fmt.Errorf("-cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, fmt.Errorf("-cpuprofile: %w", err)
		}
	}
	if *memProfilePath != "" {
		memFile, err = os.Create(*memProfilePath)
		if err != nil {
			if cpuFile != nil {
				pprof.StopCPUProfile()
				cpuFile.Close()
			}
			return nil, fmt.Errorf("-memprofile: %w", err)
		}
	}
	return func() error {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				return fmt.Errorf("-cpuprofile: %w", err)
			}
		}
		if memFile != nil {
			runtime.GC() // flush recently freed objects out of the heap profile
			if err := pprof.WriteHeapProfile(memFile); err != nil {
				memFile.Close()
				return fmt.Errorf("-memprofile: %w", err)
			}
			if err := memFile.Close(); err != nil {
				return fmt.Errorf("-memprofile: %w", err)
			}
		}
		return nil
	}, nil
}

// Observability flags shared by every tool, registered at package init
// like the profiling flags above.
var (
	traceOutPath  = flag.String("trace-out", "", "write a Chrome trace-event JSON of this run to the given file (open in chrome://tracing or Perfetto)")
	flightOutPath = flag.String("flight-out", "", "write an NDJSON flight recording of the solver's events to the given file (inspect with cmd/flightview)")
	metricsAddr   = flag.String("metrics-addr", "", "serve live telemetry over HTTP on this address: expvar at /debug/vars, JSON snapshot at /progress, Prometheus at /metrics, SSE stream at /events")
	progressIntv  = flag.Duration("progress", 0, "print a one-line metrics progress report to stderr at this interval (0 disables)")
)

// StartObs honors the -trace-out, -flight-out, -metrics-addr and
// -progress flags. Call it after flag.Parse with the tool's root
// context; run the workload under the returned context (it carries the
// span tracer when -trace-out is set and the flight recorder when
// -flight-out or -metrics-addr is set) and call finish on every exit
// path — it stops the progress reporter, shuts the telemetry endpoint
// down and writes the Chrome trace and the flight recording, so a
// canceled run still yields loadable partial artifacts. Output files
// are created eagerly so an unwritable path fails the run up front.
func StartObs(ctx context.Context) (_ context.Context, finish func() error, err error) {
	var (
		traceFile  *os.File
		tracer     *obs.Tracer
		flightFile *os.File
		rec        *obs.FlightRecorder
		stopProg   func()
		stopHTTP   func() error
	)
	if *traceOutPath != "" {
		traceFile, err = os.Create(*traceOutPath)
		if err != nil {
			return ctx, nil, fmt.Errorf("-trace-out: %w", err)
		}
		tracer = obs.NewTracer()
		ctx = obs.WithTracer(ctx, tracer)
	}
	closeFiles := func() {
		if traceFile != nil {
			traceFile.Close()
		}
		if flightFile != nil {
			flightFile.Close()
		}
	}
	if *flightOutPath != "" {
		flightFile, err = os.Create(*flightOutPath)
		if err != nil {
			closeFiles()
			return ctx, nil, fmt.Errorf("-flight-out: %w", err)
		}
	}
	// The recorder runs whenever anything can consume it: a -flight-out
	// file, or live SSE subscribers behind -metrics-addr.
	if *flightOutPath != "" || *metricsAddr != "" {
		rec = obs.NewFlightRecorder(0)
		ctx = obs.WithFlightRecorder(ctx, rec)
	}
	if *metricsAddr != "" {
		bus := obs.NewBus()
		rec.AttachBus(bus)
		bound, serveErr, stop, err := obs.ServeTelemetry(*metricsAddr, obs.TelemetryConfig{Bus: bus})
		if err != nil {
			closeFiles()
			return ctx, nil, fmt.Errorf("-metrics-addr: %w", err)
		}
		fmt.Fprintf(os.Stderr, "telemetry: http://%s — /debug/vars /progress /metrics /events\n", bound)
		// A telemetry server that dies mid-run (port stolen, fd
		// exhaustion) must not fail silently: log it when it happens; the
		// shutdown func surfaces it again on the tool's error path.
		go func() {
			if err := <-serveErr; err != nil {
				log.Print(err)
			}
		}()
		stopHTTP = stop
	}
	if *progressIntv > 0 {
		stopProg = obs.LogProgress(os.Stderr, *progressIntv)
	}
	return ctx, func() error {
		var errs []error
		if stopProg != nil {
			stopProg()
		}
		if stopHTTP != nil {
			if err := stopHTTP(); err != nil {
				errs = append(errs, fmt.Errorf("-metrics-addr: %w", err))
			}
		}
		if flightFile != nil {
			if err := rec.WriteNDJSON(flightFile); err != nil {
				flightFile.Close()
				errs = append(errs, fmt.Errorf("-flight-out: %w", err))
			} else if err := flightFile.Close(); err != nil {
				errs = append(errs, fmt.Errorf("-flight-out: %w", err))
			}
		}
		if traceFile != nil {
			if err := tracer.WriteChromeTrace(traceFile); err != nil {
				traceFile.Close()
				errs = append(errs, fmt.Errorf("-trace-out: %w", err))
			} else if err := traceFile.Close(); err != nil {
				errs = append(errs, fmt.Errorf("-trace-out: %w", err))
			}
		}
		return errors.Join(errs...)
	}, nil
}

// The tool timeout, registered at package init like the profiling
// flags: one definition, every tool.
var timeoutFlag = flag.Duration("timeout", 0, "abort the run after this duration (0 = no limit); Ctrl-C also cancels")

// The solver worker count, registered at package init like -timeout:
// one definition, every tool. Tools pass Workers() into
// core.Options.Workers, where 0 resolves to all CPU cores
// (conc.Workers). The parallel solver returns bit-identical results at
// every worker count, so the flag trades wall clock only — never the
// design.
var workersFlag = flag.Int("workers", 0, "parallel solver workers (0 = all CPU cores); the result is identical at any setting")

// Workers reports the -workers flag for tools to place into
// core.Options.Workers.
func Workers() int { return *workersFlag }

// The trace-analysis shard count, registered at package init like
// -workers: one definition, every tool. Tools pass Shards() into the
// out-of-core entry points (trace.AnalyzeFileSharded,
// trace.AnalyzeBytesSharded), where 0 resolves to one shard per CPU
// core. The sharded driver is bit-identical to the single-pass sweep
// at every shard count, so the flag trades wall clock and peak memory
// only — never the analysis.
var shardsFlag = flag.Int("shards", 0, "trace-analysis shards (0 = one per CPU core); the analysis is identical at any setting")

// Shards reports the -shards flag for tools to pass into the sharded
// trace-analysis entry points.
func Shards() int { return *shardsFlag }

// ParseEngine maps the user-facing engine names shared by the -engine
// flags and the daemon's engine= request parameter onto core.Engine.
func ParseEngine(name string) (core.Engine, error) {
	switch name {
	case "", "bb":
		return core.EngineBranchBound, nil
	case "milp":
		return core.EngineMILP, nil
	case "portfolio":
		return core.EnginePortfolio, nil
	}
	return 0, fmt.Errorf("unknown engine %q (want bb, milp or portfolio)", name)
}

// Main is the shared entry point of the command-line tools: logger
// prefix, flag parsing, then Run around the tool body. Tools reduce to
//
//	func main() { cli.Main("xbargen", run) }
//	func run(ctx context.Context) error { ... }
//
// The body's error — joined with any scaffolding teardown error —
// exits through log.Fatal with the tool's prefix.
func Main(name string, run func(ctx context.Context) error) {
	log.SetFlags(0)
	log.SetPrefix(name + ": ")
	flag.Parse()
	if err := Run(run); err != nil {
		log.Fatal(err)
	}
}

// Run wires the shared scaffolding around one tool body: the root
// context (Ctrl-C / SIGTERM / -timeout), profiling and observability.
// Teardown runs on every exit path and its errors join the body's.
func Run(run func(ctx context.Context) error) (err error) {
	ctx, stop := Context(*timeoutFlag)
	defer stop()

	stopProf, err := StartProfiling()
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, stopProf()) }()

	ctx, stopObs, err := StartObs(ctx)
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, stopObs()) }()

	return run(ctx)
}
