package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/stbus"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// span is one timed call of the replica. Spans of one request share Req;
// Parent is the ID of the enclosing span, 0 for a request's root.
type span struct {
	Req    int    `json:"req"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps the replica's spans in memory. The design's cache calls
// are the only ones made from inside another layer; the mutex keeps the
// tracer safe should the solver ever make them from its own goroutines.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	off   bool // warmup: run the calls, record nothing
	req   int
	stack []int
	spans []span
}

// begin opens a span under the innermost open one.
func (t *tracer) begin(name string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.off {
		return 0
	}
	parent := 0
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{Req: t.req, ID: id, Parent: parent, Name: name, Start: time.Since(t.t0).Nanoseconds()})
	t.stack = append(t.stack, id)
	return id
}

// end closes span id, which must be the innermost open one.
func (t *tracer) end(id int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if id == 0 {
		return
	}
	t.spans[id-1].End = time.Since(t.t0).Nanoseconds()
	t.stack = t.stack[:len(t.stack)-1]
}

// do runs fn inside a span.
func (t *tracer) do(name string, fn func() error) error {
	id := t.begin(name)
	err := fn()
	t.end(id)
	return err
}

// tracedCache times each call into the replica's own cache.Store and
// notes whether the last Lookup hit.
type tracedCache struct {
	store *cache.Store
	t     *tracer
	hit   bool
}

func (c *tracedCache) Lookup(ctx context.Context, a *trace.Analysis, opts core.Options) (*core.Design, bool) {
	id := c.t.begin("cache.lookup")
	d, ok := c.store.Lookup(ctx, a, opts)
	c.t.end(id)
	c.hit = ok
	return d, ok
}

func (c *tracedCache) Warm(ctx context.Context, a *trace.Analysis, opts core.Options) *core.Incumbent {
	id := c.t.begin("cache.warm")
	defer c.t.end(id)
	return c.store.Warm(ctx, a, opts)
}

func (c *tracedCache) Store(ctx context.Context, a *trace.Analysis, opts core.Options, d *core.Design) {
	id := c.t.begin("cache.store")
	defer c.t.end(id)
	c.store.Store(ctx, a, opts, d)
}

// replica replays requests in one goroutine through the public calls the
// daemon makes for them, timing each call.
type replica struct {
	cfg   config
	t     *tracer
	cache *tracedCache
	opts  core.Options
	// missed are the analyses of this request whose design missed the
	// cache, with their core.design span IDs.
	missed []missedDesign
	counts map[string]int64
}

type missedDesign struct {
	a      *trace.Analysis
	parent int
}

func newReplica(cfg config) *replica {
	t := &tracer{t0: time.Now()}
	opts := core.DefaultOptions()
	c := &tracedCache{store: cache.New(cacheConfig()), t: t}
	opts.Cache = c
	return &replica{cfg: cfg, t: t, cache: c, opts: opts, counts: map[string]int64{}}
}

// serve handles one request and returns its designs.
func (r *replica) serve(ctx context.Context, rq request) (expect, error) {
	r.t.req = rq.idx
	r.missed = r.missed[:0]
	root := r.t.begin("request")
	var out expect
	var err error
	switch {
	case rq.json:
		out, err = r.app(ctx, rq)
	case int64(len(rq.body)) > r.cfg.spoolThreshold:
		out.design, err = r.spooled(ctx, rq)
	default:
		out.design, err = r.trace(ctx, rq)
	}
	if err == nil {
		err = r.t.do("server.encode", func() error { return encodeJob(out) })
	}
	r.t.end(root)
	if err != nil {
		return out, err
	}
	// Pre-processing runs inside core.DesignCrossbarCtx, where the
	// benchmark cannot time it; it is timed here by a second call on a
	// copy, outside the request, so that the request's wall time stays
	// that of the daemon's calls.
	for _, m := range r.missed {
		a := m.a.Clone()
		r.detached("core.preprocess", m.parent, func() { core.BuildConflicts(a, r.opts) })
	}
	return out, nil
}

// detached records a span under parent that lies outside its parent's
// interval. It does nothing while the tracer is off.
func (r *replica) detached(name string, parent int, fn func()) {
	if r.t.off {
		return
	}
	start := time.Since(r.t.t0).Nanoseconds()
	fn()
	r.t.mu.Lock()
	r.t.spans = append(r.t.spans, span{Req: r.t.req, ID: len(r.t.spans) + 1, Parent: parent, Name: name,
		Start: start, End: time.Since(r.t.t0).Nanoseconds()})
	r.t.mu.Unlock()
}

func (r *replica) count(name string, v int64) {
	if !r.t.off {
		r.counts[name] += v
	}
}

// design is the daemon's phase 3: core.DesignCrossbarCtx through the cache.
func (r *replica) design(ctx context.Context, a *trace.Analysis) (*core.Design, error) {
	r.cache.hit = false
	id := r.t.begin("core.design")
	d, err := core.DesignCrossbarCtx(ctx, a, r.opts)
	r.t.end(id)
	if err != nil {
		return nil, err
	}
	if !r.cache.hit {
		r.missed = append(r.missed, missedDesign{a: a, parent: id})
	}
	r.count("trace.windows", int64(a.NumWindows()))
	r.count("core.conflict_pairs", int64(d.Conflicts))
	r.count("core.search_nodes", d.SearchNodes)
	r.count("core.buses", int64(d.NumBuses))
	return d, nil
}

// trace is the in-memory trace path: decode, analyze, design.
func (r *replica) trace(ctx context.Context, rq request) (*core.Design, error) {
	var tr *trace.Trace
	err := r.t.do("trace.decode", func() (err error) {
		tr, err = trace.ReadBinary(bytes.NewReader(rq.body))
		return err
	})
	if err != nil {
		return nil, err
	}
	r.count("trace.events", int64(len(tr.Events)))
	var a *trace.Analysis
	if err := r.t.do("trace.analyze", func() (err error) {
		a, err = trace.AnalyzeCtx(ctx, tr, rq.window)
		return err
	}); err != nil {
		return nil, err
	}
	return r.design(ctx, a)
}

// spooled is the out-of-core path: header check, spool to a synced temp
// file, sharded analysis of the mapped file, design, remove the file.
func (r *replica) spooled(ctx context.Context, rq request) (*core.Design, error) {
	var hdr trace.Header
	if err := r.t.do("trace.decode", func() (err error) {
		hdr, err = trace.ReadHeader(bytes.NewReader(rq.body[:r.cfg.spoolThreshold+1]))
		return err
	}); err != nil {
		return nil, err
	}
	r.count("trace.events", int64(hdr.NumEvents))
	var path string
	if err := r.t.do("server.spool", func() error {
		f, err := os.CreateTemp("", "bench-spool-*.trc")
		if err != nil {
			return err
		}
		path = f.Name()
		if _, err := f.Write(rq.body); err != nil {
			f.Close()
			return err
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}); err != nil {
		if path != "" {
			os.Remove(path) //nolint:errcheck // already failing
		}
		return nil, err
	}
	var a *trace.Analysis
	err := r.t.do("trace.analyze", func() (err error) {
		a, err = trace.AnalyzeFileSharded(ctx, path, rq.window, 0, nil)
		return err
	})
	var d *core.Design
	if err == nil {
		d, err = r.design(ctx, a)
	}
	if rmErr := r.t.do("server.spool", func() error { return os.Remove(path) }); err == nil {
		err = rmErr
	}
	return d, err
}

// app is the application path: decode the spec, simulate the full
// crossbar, analyze and design both directions, validate by simulation.
func (r *replica) app(ctx context.Context, rq request) (expect, error) {
	var app *workloads.App
	if err := r.t.do("trace.decode", func() error {
		var spec appSpec
		if err := json.Unmarshal(rq.body, &spec); err != nil {
			return err
		}
		var err error
		app, err = lookupApp(spec)
		return err
	}); err != nil {
		return expect{}, err
	}
	var full *sim.Result
	if err := r.t.do("sim.full", func() (err error) {
		req, resp := app.FullConfig()
		full, err = sim.RunCtx(ctx, app.SimConfig(req, resp))
		return err
	}); err != nil {
		return expect{}, err
	}
	var out expect
	for _, dir := range []struct {
		tr *trace.Trace
		d  **core.Design
	}{{full.ReqTrace, &out.req}, {full.RespTrace, &out.resp}} {
		r.count("trace.events", int64(len(dir.tr.Events)))
		var a *trace.Analysis
		if err := r.t.do("trace.analyze", func() (err error) {
			a, err = trace.AnalyzeCtx(ctx, dir.tr, app.WindowSize)
			return err
		}); err != nil {
			return expect{}, err
		}
		d, err := r.design(ctx, a)
		if err != nil {
			return expect{}, err
		}
		*dir.d = d
	}
	err := r.t.do("sim.validate", func() error {
		req := stbus.Partial(app.NumInitiators, out.req.BusOf)
		resp := stbus.Partial(app.NumTargets, out.resp.BusOf)
		_, err := sim.RunCtx(ctx, app.SimConfig(req, resp))
		return err
	})
	return out, err
}

// encodeJob renders the designs as the daemon's indented JSON reply.
func encodeJob(out expect) error {
	wire := func(d *core.Design) *designWire {
		if d == nil {
			return nil
		}
		return &designWire{NumBuses: d.NumBuses, BusOf: d.BusOf, MaxBusOverlap: d.MaxBusOverlap, Conflicts: d.Conflicts, SearchNodes: d.SearchNodes}
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	return enc.Encode(&jobWire{Status: "done", Design: wire(out.design), Request: wire(out.req), Response: wire(out.resp)})
}

// replicaRun is the outcome of one traced replica run.
type replicaRun struct {
	requests int
	failures []string
	spans    []span
	counts   map[string]int64
}

// runReplica replays the workload's warmup untraced, then requests 0, 1,
// 2, ... traced until cfg.replicaSeconds have passed, checking every
// answer that has a reference.
func runReplica(ctx context.Context, cfg config, w *workload) (*replicaRun, error) {
	r := newReplica(cfg)
	r.t.off = true
	for _, rq := range w.warmup {
		if _, err := r.serve(ctx, rq); err != nil {
			return nil, fmt.Errorf("replica warmup request %d: %w", rq.idx, err)
		}
	}
	r.t.off = false
	out := &replicaRun{}
	deadline := time.Now().Add(cfg.replicaSeconds)
	for i := 0; ctx.Err() == nil && (i == 0 || time.Now().Before(deadline)); i++ {
		rq := w.next(i)
		got, err := r.serve(ctx, rq)
		if err == nil && rq.want != nil {
			err = rq.want.match(got)
		}
		if err != nil {
			out.failures = append(out.failures, fmt.Sprintf("replica request %d: %v", i, err))
		}
		out.requests++
	}
	out.spans, out.counts = r.t.spans, r.counts
	return out, ctx.Err()
}

// replicaLayers are the layers timed around one call each, reported as
// mean self milliseconds per request.
var replicaLayers = []string{
	"trace.decode", "server.spool", "sim.full", "sim.validate", "trace.analyze",
	"cache.lookup", "cache.warm", "cache.store", "server.encode",
}

// replicaCounts are the work counts, reported as means per request.
var replicaCounts = []string{"trace.events", "trace.windows", "core.conflict_pairs", "core.search_nodes", "core.buses"}

// replicaMetrics derives the per-layer metrics from the spans. A span's
// self time is its duration minus that of the child spans inside it.
func replicaMetrics(rr *replicaRun) map[string]metric {
	inner := make(map[int]int64)
	for _, s := range rr.spans {
		if s.Parent == 0 {
			continue
		}
		if p := rr.spans[s.Parent-1]; s.Start >= p.Start && s.End <= p.End {
			inner[s.Parent] += s.dur()
		}
	}
	self := make(map[string]int64)
	var wall, rootSelf, pre int64
	for _, s := range rr.spans {
		switch s.Name {
		case "request":
			wall += s.dur()
			rootSelf += s.dur() - inner[s.ID]
		case "core.preprocess":
			pre += s.dur()
		default:
			self[s.Name] += s.dur() - inner[s.ID]
		}
	}
	n := float64(max(rr.requests, 1))
	perReq := func(ns int64) float64 { return float64(ns) / 1e6 / n }
	m := make(map[string]metric)
	for _, l := range replicaLayers {
		m[l+"_ms"] = metric{perReq(self[l]), "ms"}
	}
	m["core.preprocess_ms"] = metric{perReq(pre), "ms"}
	m["core.search_bind_ms"] = metric{perReq(self["core.design"] - pre), "ms"}
	for _, c := range replicaCounts {
		m[c] = metric{float64(rr.counts[c]) / n, "count"}
	}
	m["replica.wall_ms"] = metric{perReq(wall), "ms"}
	coverage := 0.0
	if wall > 0 {
		coverage = float64(wall-rootSelf) / float64(wall)
	}
	m["replica.coverage"] = metric{coverage, "ratio"}
	return m
}
