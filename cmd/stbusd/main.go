// Command stbusd is the design-as-a-service daemon: a long-running
// HTTP server that designs STbus crossbars on demand. Clients POST a
// traffic trace (binary or JSON) or a named benchmark application to
// /v1/design and receive the designed crossbar as JSON; every job runs
// through the shared content-addressed design cache, so repeated
// identical requests are served in microseconds and near-identical
// ones warm-start the solver.
//
// Endpoints:
//
//	POST /v1/design            submit a design job (sync by default, ?async=1 for 202 + polling)
//	GET  /v1/jobs/{id}         job status / result
//	GET  /v1/jobs/{id}/events  per-job solver progress as SSE (replay + live)
//	GET  /v1/stats             queue and worker-pool statistics
//	GET  /healthz              liveness (503 while draining)
//
// Usage:
//
//	stbusd -addr :8377 -cache-dir /var/cache/stbusd
//	curl -s --data-binary @mat2.req.trc 'localhost:8377/v1/design?window=800'
//	curl -s -H 'Content-Type: application/json' -d '{"app":"mat2"}' localhost:8377/v1/design
//
// POST /v1/design reads the query keys window, threshold, maxtb, mode
// (optimize or first-feasible), critical, audit, max_nodes, timeout and
// async, and ignores any other key. Among those is engine=, with which
// older clients picked a solver engine: there is one. A design whose
// node budget runs out still answers 200, with "capped": true; only a
// budget that settles no bus count at all answers 422 search_limit.
//
// SIGTERM/SIGINT drain gracefully: admission stops (503), in-flight
// jobs finish within -drain-timeout (stragglers are canceled), then
// the listener closes. The shared observability flags apply: add
// -metrics-addr for the daemon-wide telemetry listener (Prometheus at
// /metrics, the daemon-wide flight recording as SSE at /events),
// -flight-out to write that recording on exit and -trace-out to write
// its Chrome trace view, every job's spans included. A POST
// /v1/design body must arrive within two minutes.
package main

import (
	"context"
	"flag"
	"log"
	"net"

	"repro/internal/cache"
	"repro/internal/cli"
	"repro/internal/server"
)

var (
	addr         = flag.String("addr", ":8377", "HTTP listen address of the design API")
	concurrency  = flag.Int("jobs", 0, "design jobs solved concurrently (0 = all CPU cores)")
	queueDepth   = flag.Int("queue", 64, "admitted-but-not-running job bound; a full queue answers 429")
	defTimeout   = flag.Duration("default-timeout", 0, "per-job solve budget when the request names none (0 = 60s)")
	maxTimeout   = flag.Duration("max-timeout", 0, "upper clamp on per-request timeouts (0 = 10m)")
	maxNodes     = flag.Int64("max-nodes", 0, "upper clamp on per-job solver node budgets (0 = the solver default); a design that outruns its budget is returned capped")
	drainTimeout = flag.Duration("drain-timeout", 0, "graceful-drain budget on SIGTERM before in-flight jobs are canceled (0 = 15s)")
	maxBody      = flag.Int64("max-body", 0, "request body size bound in bytes (0 = 64 MiB)")
	spoolLimit   = flag.Int64("spool-threshold", 0, "binary trace bodies above this many bytes are spooled to disk and analyzed out-of-core via the sharded driver (0 = 8 MiB, negative = always decode in memory)")
	spoolDir     = flag.String("spool-dir", "", "directory for spooled trace bodies (empty = system temp dir)")
	history      = flag.Int("history", 0, "job-table bound: the oldest finished jobs are forgotten once more than history + -queue + -jobs jobs are kept, so up to that many stay pollable (0 = 512)")
	cacheDir     = flag.String("cache-dir", "", "design-cache disk tier directory (empty = memory only)")
	cacheEntries = flag.Int("cache-entries", 0, "design-cache in-memory entry bound (0 = default)")
	cacheDelta   = flag.Float64("cache-delta", -2, "warm-start delta tolerance as a cell fraction; 0 = exact hits only, negative = warm tier off, unset = default")
	quiet        = flag.Bool("quiet", false, "suppress per-request logging")
)

func main() { cli.Main("stbusd", run) }

func run(ctx context.Context) error {
	ccfg := cache.Config{Dir: *cacheDir, MaxEntries: *cacheEntries}
	// -2 is the flag's cannot-collide sentinel for "unset": 0 and every
	// negative tolerance the cache distinguishes are -1..1.
	if *cacheDelta != -2 {
		ccfg.MaxDeltaFrac = cache.Delta(*cacheDelta)
	}
	logf := log.Printf
	if *quiet {
		logf = nil
	}
	return server.Run(ctx, server.Config{
		Addr:           *addr,
		Concurrency:    *concurrency,
		QueueDepth:     *queueDepth,
		DefaultTimeout: *defTimeout,
		MaxTimeout:     *maxTimeout,
		MaxNodes:       *maxNodes,
		MaxBody:        *maxBody,
		SpoolThreshold: *spoolLimit,
		SpoolDir:       *spoolDir,
		Shards:         cli.Shards(),
		JobHistory:     *history,
		CacheConfig:    ccfg,
		DrainTimeout:   *drainTimeout,
		Logf:           logf,
	}, func(bound net.Addr) {
		log.Printf("design API on http://%s — POST /v1/design", bound)
	})
}
