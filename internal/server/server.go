// Package server implements the design-as-a-service HTTP daemon behind
// cmd/stbusd: POST a traffic trace (or a named benchmark application)
// to /v1/design and get the designed crossbar back as JSON, with every
// job running through the stbusgen Designer facade so the shared
// content-addressed cache, the independent audit and the flight
// recorder all apply per request.
//
// The service is built for sustained concurrent load:
//
//   - a bounded job queue with admission control — a full queue answers
//     429 with Retry-After instead of buffering without bound;
//   - a fixed worker pool sized independently of the HTTP layer, so a
//     burst of requests queues instead of spawning unbounded solves;
//   - per-request timeouts and node budgets mapped onto the engine's
//     context plumbing;
//   - per-job telemetry: each job carries its own obs.FlightRecorder
//     (never the process-global one), streamed over
//     /v1/jobs/{id}/events as SSE (obs.StreamEvents: replay, then
//     live) and summarized in the job status;
//   - graceful drain: on shutdown the server stops admitting (503),
//     lets in-flight jobs finish within a deadline, cancels stragglers,
//     and only then closes the listener (see Run).
//
// Zero dependencies beyond the standard library, like the rest of the
// repository.
package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	stbusgen "repro"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/trace"
)

// Service traffic instruments (see internal/obs), process-global like
// every other subsystem's: admissions, 429/503 rejections, jobs
// finished by outcome, and the end-to-end job latency distribution.
var (
	metAdmitted  = obs.NewCounter("server.admitted")
	metRejected  = obs.NewCounter("server.rejected_full")
	metDraining  = obs.NewCounter("server.rejected_draining")
	metJobsOK    = obs.NewCounter("server.jobs_done")
	metJobsFail  = obs.NewCounter("server.jobs_failed")
	metPanics    = obs.NewCounter("server.job_panics")
	metJobNS     = obs.NewHistogram("server.job_ns")
	metQueueWait = obs.NewHistogram("server.queue_wait_ns")
)

// Config tunes a Server. The zero value is usable: every field has a
// production-sane default.
type Config struct {
	// Addr is the listen address of Run ("host:port"; ":0" picks a free
	// port). Defaults to ":8377".
	Addr string
	// Concurrency is the worker-pool size — the number of design jobs
	// solved simultaneously. 0 means GOMAXPROCS. Each job runs one
	// search thread per direction, so about one job per core keeps the
	// machine busy.
	Concurrency int
	// QueueDepth bounds the jobs admitted but not yet running. A full
	// queue rejects new work with 429 + Retry-After. 0 means 64.
	QueueDepth int
	// DefaultTimeout applies to jobs whose request names none;
	// MaxTimeout clamps what a request may ask for. Defaults: 60s / 10m.
	DefaultTimeout, MaxTimeout time.Duration
	// MaxNodes caps the per-job solver node budget (requests may lower
	// it, never raise it). 0 leaves the engine default.
	MaxNodes int64
	// MaxBody bounds a request body. 0 means 64 MiB.
	MaxBody int64
	// SpoolThreshold routes binary trace bodies larger than this
	// through the out-of-core path: the body is spooled to a temp file
	// and analyzed via the mmap-backed sharded driver instead of being
	// decoded into an in-memory event slice — a 100M-event POST costs
	// the analysis tables, not gigabytes, per in-flight job. 0 means
	// 8 MiB; negative disables spooling (always decode in memory).
	SpoolThreshold int64
	// SpoolDir holds the spooled bodies. "" means os.TempDir().
	SpoolDir string
	// Shards is the trace-analysis shard count for spooled jobs
	// (trace.AnalyzeFileSharded); 0 means one shard per CPU core. The
	// analysis is bit-identical at any setting. In-memory trace bodies
	// are always analyzed in one pass (trace.AnalyzeCtx).
	Shards int
	// JobHistory sizes the job table: the oldest finished jobs are
	// forgotten once the table holds more than JobHistory + QueueDepth
	// + Concurrency jobs, so up to that many finished jobs stay pollable
	// (and keep their results) when nothing is queued or running: 578
	// at the defaults on two cores. 0 means 512.
	JobHistory int
	// Cache is the shared design cache every job runs through — the
	// daemon's headline win: a repeated identical request is served in
	// microseconds, a near-identical one warm-starts. Nil builds one
	// from CacheConfig.
	Cache core.Cache
	// CacheConfig configures the built cache when Cache is nil.
	CacheConfig cache.Config
	// DrainTimeout bounds the graceful drain: how long Run waits for
	// in-flight jobs after shutdown begins before canceling them.
	// 0 means 15s.
	DrainTimeout time.Duration
	// Logf receives one line per request and lifecycle event. Nil
	// disables logging.
	Logf func(format string, args ...any)
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.Addr == "" {
		out.Addr = ":8377"
	}
	if out.Concurrency <= 0 {
		out.Concurrency = runtime.GOMAXPROCS(0)
	}
	if out.QueueDepth <= 0 {
		out.QueueDepth = 64
	}
	if out.DefaultTimeout <= 0 {
		out.DefaultTimeout = 60 * time.Second
	}
	if out.MaxTimeout <= 0 {
		out.MaxTimeout = 10 * time.Minute
	}
	if out.MaxBody <= 0 {
		out.MaxBody = 64 << 20
	}
	if out.SpoolThreshold == 0 {
		out.SpoolThreshold = 8 << 20
	}
	if out.SpoolDir == "" {
		out.SpoolDir = os.TempDir()
	}
	if out.JobHistory <= 0 {
		out.JobHistory = 512
	}
	if out.DrainTimeout <= 0 {
		out.DrainTimeout = 15 * time.Second
	}
	if out.Cache == nil {
		out.Cache = cache.New(out.CacheConfig)
	}
	return out
}

// Server is the design service: an http.Handler plus the job queue and
// worker pool behind it. Construct with New, serve via Handler (or the
// Run lifecycle helper), stop with Drain then Close.
type Server struct {
	cfg   Config
	cache core.Cache
	mux   *http.ServeMux

	// baseCtx parents every job context; baseCancel fires only when the
	// drain deadline expires (or Close is called), canceling stragglers.
	baseCtx    context.Context
	baseCancel context.CancelCauseFunc

	queue    chan *job
	workerWG sync.WaitGroup // worker goroutines
	inflight sync.WaitGroup // admitted jobs not yet terminal
	draining atomic.Bool
	closed   atomic.Bool
	// admitMu orders admissions against shutdown: admit holds it from
	// the draining check through inflight.Add and the enqueue, and
	// Drain and Close set draining under it. No job can then join
	// inflight after a drain has started waiting on it, or be sent on
	// the queue after Close has closed it.
	admitMu sync.Mutex

	seq   atomic.Int64
	jobMu sync.Mutex
	jobs  map[string]*job
	order []string // admission order, for history eviction

	// testHookJobRunning, when set, runs at job start on the worker
	// goroutine — tests use it to hold a worker busy deterministically.
	testHookJobRunning func(*job)
}

// New builds a Server and starts its worker pool. The context supplies
// ambient values — notably a daemon-wide obs.FlightRecorder attached by
// the shared -flight-out flag — but not cancellation: jobs must outlive
// the signal context during a graceful drain, so only Drain's deadline
// (or Close) cancels them.
func New(ctx context.Context, cfg Config) *Server {
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancelCause(context.WithoutCancel(ctx))
	s := &Server{
		cfg:        cfg,
		cache:      cfg.Cache,
		baseCtx:    ctx,
		baseCancel: cancel,
		queue:      make(chan *job, cfg.QueueDepth),
		jobs:       make(map[string]*job),
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/design", s.handleDesign)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	s.mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleJobEvents)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	for i := 0; i < cfg.Concurrency; i++ {
		s.workerWG.Add(1)
		go s.worker()
	}
	return s
}

// Handler returns the service's HTTP handler with the standard
// middleware (panic recovery, request logging) applied.
func (s *Server) Handler() http.Handler {
	return withRecovery(s.cfg.Logf, withLogging(s.cfg.Logf, s.mux))
}

// logf logs one line when a logger is configured.
func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// worker drains the job queue until Close. Jobs admitted before a
// drain finish normally; once the drain deadline cancels baseCtx the
// remaining ones fail fast with a canceled error.
func (s *Server) worker() {
	defer s.workerWG.Done()
	for j := range s.queue {
		s.runJob(j)
	}
}

// runJob executes one job (see execute) and records its outcome;
// finishing the job ends its event streams with the terminal status.
func (s *Server) runJob(j *job) {
	defer s.inflight.Done()
	defer j.req.cleanup()
	now := time.Now()
	j.setRunning(now)
	metQueueWait.Observe(now.Sub(j.created).Nanoseconds())
	design, result, err := s.execute(j)
	end := time.Now()
	j.finish(end, design, result, err)
	metJobNS.Observe(end.Sub(now).Nanoseconds())
	if err != nil {
		metJobsFail.Inc()
		s.logf("job %s failed after %s: %v", j.id, end.Sub(now), err)
	} else {
		metJobsOK.Inc()
		s.logf("job %s done in %s", j.id, end.Sub(now))
	}
	s.forwardToGlobal(j)
}

// execute runs the body of a job: the analysis and design under the
// job's telemetry and deadline. A panic anywhere in it becomes an
// "internal" job failure with its stack logged and a panic event in
// the job's journal — without the recover it would unwind the worker
// goroutine and take the whole daemon, and every other queued job,
// down with it.
func (s *Server) execute(j *job) (design *core.Design, result *stbusgen.Result, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			metPanics.Inc()
			j.rec.Emit(obs.Event{Kind: obs.EvPanic, Who: "server"})
			s.logf("job %s panicked: %v\n%s", j.id, rec, debug.Stack())
			design, result, err = nil, nil, fmt.Errorf("server: job panicked: %v", rec)
		}
	}()
	if s.testHookJobRunning != nil {
		s.testHookJobRunning(j)
	}

	ctx := obs.WithFlightRecorder(s.baseCtx, j.rec)
	ctx, cancel := context.WithTimeout(ctx, j.req.timeout)
	defer cancel()

	designer := stbusgen.NewDesigner(j.req.opts)
	if j.req.app != nil {
		result, err = designer.Design(ctx, j.req.app)
		return nil, result, err
	}
	// Trace job: a spooled body is analyzed out of core over the mmap'd
	// file, an in-memory trace by the single-pass sweep. The cache keys
	// on the analysis fingerprint, so hits are shared between the two
	// regardless of container format.
	var a *trace.Analysis
	if j.req.spool != "" {
		a, err = trace.AnalyzeFileSharded(ctx, j.req.spool, j.req.window, s.cfg.Shards, nil)
	} else {
		a, err = trace.AnalyzeCtx(ctx, j.req.tr, j.req.window)
	}
	if err != nil {
		return nil, nil, err
	}
	design, err = designer.DesignAnalysis(ctx, a)
	return design, nil, err
}

// forwardToGlobal copies the job's flight events into the daemon-wide
// recorder when one is attached (the shared -flight-out, -trace-out and
// -metrics-addr flags), so a single recording journals the whole
// service while per-job streams stay isolated. Events acquire
// daemon-global sequence numbers and keep their times, shifted onto the
// daemon-wide recorder's clock.
func (s *Server) forwardToGlobal(j *job) {
	obs.FlightRecorderFrom(s.baseCtx).Forward(j.rec)
}

// admit registers and enqueues a job, enforcing admission control.
func (s *Server) admit(req *designRequest) (*job, error) {
	j := &job{
		id:      fmt.Sprintf("j-%06d", s.seq.Add(1)),
		req:     req,
		rec:     obs.NewFlightRecorder(jobFlightCapacity),
		done:    make(chan struct{}),
		created: time.Now(),
	}

	s.admitMu.Lock()
	defer s.admitMu.Unlock()
	if s.draining.Load() {
		metDraining.Inc()
		return nil, &httpError{status: http.StatusServiceUnavailable, msg: "server is draining"}
	}
	s.jobMu.Lock()
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	s.evictHistoryLocked()
	s.jobMu.Unlock()

	s.inflight.Add(1)
	select {
	case s.queue <- j:
		metAdmitted.Inc()
		return j, nil
	default:
		s.inflight.Done()
		s.jobMu.Lock()
		delete(s.jobs, j.id)
		if n := len(s.order); n > 0 && s.order[n-1] == j.id {
			s.order = s.order[:n-1]
		}
		s.jobMu.Unlock()
		metRejected.Inc()
		return nil, &httpError{status: http.StatusTooManyRequests,
			msg: fmt.Sprintf("job queue full (%d queued, %d running); retry shortly", s.cfg.QueueDepth, s.cfg.Concurrency)}
	}
}

// evictHistoryLocked forgets the oldest *finished* jobs while the job
// table holds more than JobHistory + QueueDepth + Concurrency jobs, live
// or finished. Queued and running jobs are never evicted — their
// clients still hold the id. Caller holds s.jobMu.
func (s *Server) evictHistoryLocked() {
	limit := s.cfg.JobHistory + s.cfg.QueueDepth + s.cfg.Concurrency
	for len(s.order) > limit {
		evicted := false
		for i, id := range s.order {
			if j, ok := s.jobs[id]; ok && j.terminal() {
				delete(s.jobs, id)
				s.order = append(s.order[:i], s.order[i+1:]...)
				evicted = true
				break
			}
		}
		if !evicted {
			return // everything retained is still live
		}
	}
}

// lookup returns a registered job.
func (s *Server) lookup(id string) (*job, bool) {
	s.jobMu.Lock()
	defer s.jobMu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Drain performs the graceful half of shutdown: stop admitting, then
// wait for every admitted job to reach a terminal state — up to ctx's
// deadline, past which the remaining jobs are canceled (they fail
// promptly with a canceled error and their clients get the terminal
// status). Safe to call once; Close must follow.
func (s *Server) Drain(ctx context.Context) {
	s.stopAdmission()
	s.logf("draining: admission stopped, waiting for in-flight jobs")
	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(done)
	}()
	select {
	case <-done:
		s.logf("drain complete: all jobs finished")
		return
	case <-ctx.Done():
	}
	s.baseCancel(fmt.Errorf("server drain deadline: %w", context.Cause(ctx)))
	s.logf("drain deadline passed: canceling remaining jobs")
	<-done
	s.logf("drain complete: stragglers canceled")
}

// stopAdmission makes every later admit answer 503. Once it returns,
// no admission is still between its draining check and the enqueue.
func (s *Server) stopAdmission() {
	s.admitMu.Lock()
	s.draining.Store(true)
	s.admitMu.Unlock()
}

// Close stops the worker pool. Jobs still queued are canceled via the
// base context (Drain normally empties the queue first).
func (s *Server) Close() {
	if !s.closed.CompareAndSwap(false, true) {
		return
	}
	s.stopAdmission()
	s.baseCancel(errors.New("server closed"))
	close(s.queue)
	s.workerWG.Wait()
}

// --- handlers ---

func (s *Server) handleDesign(w http.ResponseWriter, r *http.Request) {
	rc := http.NewResponseController(w)
	rc.SetReadDeadline(time.Now().Add(bodyReadTimeout)) //nolint:errcheck // unsupported only by test recorders
	req, err := s.decodeDesignRequest(r)
	if err != nil {
		he := asHTTPError(err)
		writeError(w, he.status, "bad_request", "%s", he.msg)
		return
	}
	// The body is in. Lift the deadline: a sync request waits on its job
	// past it, and an expired read deadline cancels the request context.
	rc.SetReadDeadline(time.Time{}) //nolint:errcheck // as above
	j, err := s.admit(req)
	if err != nil {
		req.cleanup()
		he := asHTTPError(err)
		if he.status == http.StatusTooManyRequests {
			w.Header().Set("Retry-After", "1")
		}
		reason := "unavailable"
		if he.status == http.StatusTooManyRequests {
			reason = "queue_full"
		}
		writeError(w, he.status, reason, "%s", he.msg)
		return
	}

	if req.async {
		w.Header().Set("Location", "/v1/jobs/"+j.id)
		writeJSON(w, http.StatusAccepted, j.wire())
		return
	}
	select {
	case <-j.done:
	case <-r.Context().Done():
		// The client went away; the job keeps running (its result stays
		// pollable and cacheable) but this response is dead.
		return
	}
	status := http.StatusOK
	j.mu.Lock()
	jerr := j.err
	j.mu.Unlock()
	if jerr != nil {
		_, status = failureReason(jerr)
	}
	writeJSON(w, status, j.wire())
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "not_found", "no such job %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, j.wire())
}

// handleJobEvents streams one job's flight recording as Server-Sent
// Events (obs.StreamEvents): the journal so far, then live events, and
// once the job finishes a "result" frame with its terminal status and
// a "bye" frame.
func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "not_found", "no such job %q", r.PathValue("id"))
		return
	}
	obs.StreamEvents(w, r, j.rec, j.done, func() any { return j.wire() })
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	s.jobMu.Lock()
	known := len(s.jobs)
	s.jobMu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{
		"queue_depth": s.cfg.QueueDepth,
		"queued":      len(s.queue),
		"concurrency": s.cfg.Concurrency,
		"jobs_known":  known,
		"draining":    s.draining.Load(),
	})
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	if s.draining.Load() {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// asHTTPError coerces any decode/admission error into an httpError.
func asHTTPError(err error) *httpError {
	var he *httpError
	if errors.As(err, &he) {
		return he
	}
	return &httpError{status: http.StatusInternalServerError, msg: err.Error()}
}
