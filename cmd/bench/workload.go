package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"strconv"

	"repro/internal/benchprobs"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// workloadNames lists the workloads in the order a full run drives them.
var workloadNames = []string{"trace-cold", "trace-repeat", "app-spec", "spool-large"}

// request is one generated design request. For a given seed the same
// index always yields the same request, so a request can be rebuilt
// after the run to check its response.
type request struct {
	idx    int
	kind   string // cold, exact, near1, near5, app or spool
	window int64  // ?window= of a trace body; 0 for application specs
	json   bool   // the body is an application spec
	body   []byte
	want   *expect // the reference design; nil when the post-run sample checks it
}

// path is the request's URL path and query.
func (r request) path() string {
	if r.window > 0 {
		return "/v1/design?window=" + strconv.FormatInt(r.window, 10)
	}
	return "/v1/design"
}

// expect is a reference answer computed by a direct cold call.
type expect struct {
	design    *core.Design // trace requests
	req, resp *core.Design // application requests
}

// workload is one request mix against the daemon.
type workload struct {
	// tailQ is the quantile reported as latency_tail_ms. A run must have
	// at least ten samples beyond it.
	tailQ float64
	// warmup is sent once after the daemon is healthy and before the
	// measured run.
	warmup []request
	// next builds request i. Bodies that differ only in their header are
	// patched in one buffer per base, so a request's body is valid until
	// the next call.
	next func(i int) request
	// valid checks one response against what the workload promises
	// about the cache tier that served it.
	valid func(kind, cached string, warm bool) error
	// reference recomputes a request's answer by a direct cold call,
	// for the kinds whose answers cannot be precomputed.
	reference func(ctx context.Context, rq request) (expect, error)
}

// refOptions are the options of every reference design: the daemon's
// request defaults, serial and without a cache.
func refOptions() core.Options {
	opts := core.DefaultOptions()
	opts.Workers = 1
	return opts
}

// coldDesign analyzes tr at window ws and designs it with refOptions.
func coldDesign(ctx context.Context, tr *trace.Trace, ws int64) (*core.Design, error) {
	a, err := trace.AnalyzeCtx(ctx, tr, ws)
	if err != nil {
		return nil, err
	}
	return core.DesignCrossbarCtx(ctx, a, refOptions())
}

// base is one of the ten dumped paper traces: a paper application at
// experiments.Seed simulated on a full crossbar, in one direction.
type base struct {
	name string
	tr   *trace.Trace
	ws   int64  // tr.WindowSizeHint()
	body []byte // v1 encoding
}

// apps are the paper applications by the names the daemon accepts.
var apps = []struct {
	name string
	make func(seed int64) *workloads.App
}{
	{"mat1", workloads.Mat1},
	{"mat2", workloads.Mat2},
	{"fft", workloads.FFT},
	{"qsort", workloads.QSort},
	{"des", workloads.DES},
}

// loadBases simulates the five paper applications and encodes both
// directions of each.
func loadBases(ctx context.Context) ([]*base, error) {
	var out []*base
	for _, ap := range apps {
		app := ap.make(experiments.Seed)
		req, resp := app.FullConfig()
		res, err := sim.RunCtx(ctx, app.SimConfig(req, resp))
		if err != nil {
			return nil, fmt.Errorf("simulating %s: %w", ap.name, err)
		}
		for _, d := range []struct {
			dir string
			tr  *trace.Trace
		}{{"req", res.ReqTrace}, {"resp", res.RespTrace}} {
			var buf bytes.Buffer
			if err := trace.WriteBinary(&buf, d.tr); err != nil {
				return nil, err
			}
			out = append(out, &base{name: ap.name + "." + d.dir, tr: d.tr, ws: d.tr.WindowSizeHint(), body: buf.Bytes()})
		}
	}
	return out, nil
}

// idleHorizon is the horizon of idle-tail variant k: h rounded up to a
// multiple of ws, then extended by k whole windows. The rounding keeps
// every existing window boundary, so all variants design identically;
// without it the last window of some traces changes length and so does
// their design.
func idleHorizon(h, ws int64, k int) int64 {
	return (h+ws-1)/ws*ws + int64(k)*ws
}

// setHorizon rewrites the horizon field (bytes 16–24) of a v1 or v2
// binary trace header.
func setHorizon(body []byte, h int64) {
	binary.LittleEndian.PutUint64(body[16:24], uint64(h))
}

// withHorizon is tr with another horizon; the events are shared.
func withHorizon(tr *trace.Trace, h int64) *trace.Trace {
	cp := *tr
	cp.Horizon = h
	return &cp
}

// checkIdleTail asserts that idle-tail variants 1 and 100 design like
// variant 0, and returns variant 0's design.
func checkIdleTail(ctx context.Context, name string, design func(k int) (*core.Design, error)) (*core.Design, error) {
	ref, err := design(0)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	for _, k := range []int{1, 100} {
		d, err := design(k)
		if err != nil {
			return nil, fmt.Errorf("%s idle tail %d: %w", name, k, err)
		}
		if err := sameDesign(d, ref); err != nil {
			return nil, fmt.Errorf("%s: idle tail %d changes the design: %w", name, k, err)
		}
	}
	return ref, nil
}

// neverCached is the validity check of the workloads whose every request
// must solve without the cache's help.
func neverCached(kind, cached string, warm bool) error {
	if cached != "" || warm {
		return fmt.Errorf("%s request served from the cache (cached=%q warm=%v)", kind, cached, warm)
	}
	return nil
}

// newWorkload builds a workload and its references.
func newWorkload(ctx context.Context, cfg config, name string) (*workload, error) {
	switch name {
	case "trace-cold":
		return newTraceCold(ctx, cfg)
	case "trace-repeat":
		return newTraceRepeat(ctx, cfg)
	case "app-spec":
		return newAppSpec(cfg), nil
	case "spool-large":
		return newSpoolLarge(ctx, cfg)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// newTraceCold: request i sends base i mod 10 with idle tail
// k = 1 + perm[(i/10) mod 100], so 1000 distinct problems cycle through
// the daemon's 32-entry cache and every request solves cold.
func newTraceCold(ctx context.Context, cfg config) (*workload, error) {
	bases, err := loadBases(ctx)
	if err != nil {
		return nil, err
	}
	refs := make([]*core.Design, len(bases))
	for b, bs := range bases {
		refs[b], err = checkIdleTail(ctx, bs.name, func(k int) (*core.Design, error) {
			return coldDesign(ctx, withHorizon(bs.tr, idleHorizon(bs.tr.Horizon, bs.ws, k)), bs.ws)
		})
		if err != nil {
			return nil, err
		}
	}
	perm := rand.New(rand.NewSource(cfg.seed)).Perm(100)
	bufs := make([][]byte, len(bases))
	for b, bs := range bases {
		bufs[b] = append([]byte(nil), bs.body...)
	}
	tail := func(b, k int) []byte {
		setHorizon(bufs[b], idleHorizon(bases[b].tr.Horizon, bases[b].ws, k))
		return bufs[b]
	}
	w := &workload{
		tailQ: 0.95,
		next: func(i int) request {
			b := i % len(bases)
			k := 1 + perm[(i/len(bases))%len(perm)]
			return request{idx: i, kind: "cold", window: bases[b].ws, body: tail(b, k), want: &expect{design: refs[b]}}
		},
		valid: neverCached,
	}
	// Variant 0 of every base: never requested again, and its window
	// boundaries differ from every measured variant, so it can neither
	// hit nor warm-start a measured request.
	for b := range bases {
		w.warmup = append(w.warmup, request{idx: -1 - b, kind: "cold", window: bases[b].ws,
			body: append([]byte(nil), tail(b, 0)...), want: &expect{design: refs[b]}})
	}
	return w, nil
}

// newTraceRepeat: the ten bases, primed by the warmup. Request i sends
// base perm[i mod 10]; by (i/10) mod 5 it is an exact repeat, a fresh 1%
// perturbation, an exact repeat, a fresh 5% perturbation or an exact
// repeat. Each base recurs every ten requests, so the bases stay in the
// daemon's cache. Three fifths are exact so that the p50 falls inside the
// cluster of cache hits: at half, it sat in the gap between hits and warm
// re-solves and moved with every small shift in the mix.
func newTraceRepeat(ctx context.Context, cfg config) (*workload, error) {
	bases, err := loadBases(ctx)
	if err != nil {
		return nil, err
	}
	refs := make([]*core.Design, len(bases))
	for b, bs := range bases {
		if refs[b], err = coldDesign(ctx, bs.tr, bs.ws); err != nil {
			return nil, fmt.Errorf("%s: %w", bs.name, err)
		}
	}
	perm := rand.New(rand.NewSource(cfg.seed)).Perm(len(bases))
	w := &workload{
		tailQ: 0.95,
		next: func(i int) request {
			b := perm[i%len(bases)]
			rq := request{idx: i, kind: "exact", window: bases[b].ws, body: bases[b].body, want: &expect{design: refs[b]}}
			frac := 0.0
			switch (i / len(bases)) % 5 {
			case 1:
				rq.kind, frac = "near1", 0.01
			case 3:
				rq.kind, frac = "near5", 0.05
			}
			if frac > 0 {
				var buf bytes.Buffer
				tr := benchprobs.PerturbTrace(bases[b].tr, frac, cfg.seed*1_000_003+int64(i))
				if err := trace.WriteBinary(&buf, tr); err != nil {
					panic(fmt.Sprintf("bench: encoding a perturbed trace: %v", err)) // PerturbTrace keeps traces valid
				}
				rq.body, rq.want = buf.Bytes(), nil
			}
			return rq
		},
		valid: func(kind, cached string, warm bool) error {
			switch {
			case kind == "exact" && cached != "memory":
				return fmt.Errorf("exact repeat not served from memory (cached=%q)", cached)
			case kind != "exact" && (cached != "" || !warm):
				return fmt.Errorf("%s request not warm-started (cached=%q warm=%v)", kind, cached, warm)
			}
			return nil
		},
		reference: func(ctx context.Context, rq request) (expect, error) {
			tr, err := trace.ReadBinary(bytes.NewReader(rq.body))
			if err != nil {
				return expect{}, err
			}
			d, err := coldDesign(ctx, tr, rq.window)
			return expect{design: d}, err
		},
	}
	for b := range bases {
		w.warmup = append(w.warmup, request{idx: -1 - b, kind: "exact", window: bases[b].ws,
			body: bases[b].body, want: &expect{design: refs[b]}})
	}
	return w, nil
}

// appSpec is the JSON body of an application request.
type appSpec struct {
	App  string `json:"app"`
	Seed int64  `json:"seed"`
}

func appBody(name string, seed int64) []byte {
	b, _ := json.Marshal(appSpec{App: name, Seed: seed}) // cannot fail
	return b
}

// lookupApp resolves an application spec the way the daemon does.
func lookupApp(spec appSpec) (*workloads.App, error) {
	seed := spec.Seed
	if seed == 0 {
		seed = 1
	}
	for _, ap := range apps {
		if ap.name == spec.App {
			return ap.make(seed), nil
		}
	}
	return nil, fmt.Errorf("unknown app %q", spec.App)
}

// newAppSpec: request i designs app i mod 5 with workload seed
// 1000·seed+i, so no two requests share a problem.
func newAppSpec(cfg config) *workload {
	w := &workload{
		tailQ: 0.95,
		next: func(i int) request {
			return request{idx: i, kind: "app", json: true, body: appBody(apps[i%len(apps)].name, 1000*cfg.seed+int64(i))}
		},
		valid: func(string, string, bool) error { return nil },
		reference: func(ctx context.Context, rq request) (expect, error) {
			var spec appSpec
			if err := json.Unmarshal(rq.body, &spec); err != nil {
				return expect{}, err
			}
			app, err := lookupApp(spec)
			if err != nil {
				return expect{}, err
			}
			run, err := experiments.PrepareCtx(ctx, app)
			if err != nil {
				return expect{}, err
			}
			pair, err := run.DesignCtx(ctx, refOptions())
			if err != nil {
				return expect{}, err
			}
			return expect{req: pair.Req, resp: pair.Resp}, nil
		},
	}
	// Seeds below every measured one: the warmup never repeats a
	// measured problem.
	for j, ap := range apps {
		w.warmup = append(w.warmup, request{idx: -1 - j, kind: "app", json: true, body: appBody(ap.name, 1000*cfg.seed-1-int64(j))})
	}
	return w
}

// spoolWindow is the analysis window of the spool-large workload.
const spoolWindow = 800

// tileV2 encodes tiles back-to-back copies of tr as a v2 container. Each
// copy starts on a window boundary, and the events are written in start
// order as the out-of-core path requires.
func tileV2(tr *trace.Trace, tiles int, ws int64) ([]byte, error) {
	evs := append([]trace.Event(nil), tr.Events...)
	sort.Slice(evs, func(a, b int) bool {
		if evs[a].Start != evs[b].Start {
			return evs[a].Start < evs[b].Start
		}
		return evs[a].Receiver < evs[b].Receiver
	})
	period := idleHorizon(tr.Horizon, ws, 0)
	var buf bytes.Buffer
	vw, err := trace.NewV2Writer(&buf, tr.NumReceivers, tr.NumSenders, period*int64(tiles), uint64(len(evs)*tiles))
	if err != nil {
		return nil, err
	}
	for t := 0; t < tiles; t++ {
		off := int64(t) * period
		for _, e := range evs {
			e.Start += off
			if err := vw.Add(e); err != nil {
				return nil, err
			}
		}
	}
	if err := vw.Close(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// newSpoolLarge: the Mat2 request trace tiled cfg.tiles times into a v2
// body above the daemon's spool threshold, each request with its own
// idle tail k = 1 + perm[i mod 1000].
func newSpoolLarge(ctx context.Context, cfg config) (*workload, error) {
	app := workloads.Mat2(experiments.Seed)
	req, resp := app.FullConfig()
	res, err := sim.RunCtx(ctx, app.SimConfig(req, resp))
	if err != nil {
		return nil, fmt.Errorf("simulating mat2: %w", err)
	}
	body, err := tileV2(res.ReqTrace, cfg.tiles, spoolWindow)
	if err != nil {
		return nil, err
	}
	if limit := cfg.spoolThreshold; int64(len(body)) <= limit {
		return nil, fmt.Errorf("spool-large body is %d bytes, not above the %d-byte spool threshold", len(body), limit)
	}
	hdr, err := trace.ReadHeader(bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	h0 := hdr.Horizon
	variant := func(k int, dst []byte) []byte {
		setHorizon(dst, idleHorizon(h0, spoolWindow, k))
		return dst
	}
	scratchBody := append([]byte(nil), body...)
	ref, err := checkIdleTail(ctx, "spool-large", func(k int) (*core.Design, error) {
		a, err := trace.AnalyzeBytesSharded(ctx, variant(k, scratchBody), spoolWindow, 0, nil)
		if err != nil {
			return nil, err
		}
		return core.DesignCrossbarCtx(ctx, a, refOptions())
	})
	if err != nil {
		return nil, err
	}
	perm := rand.New(rand.NewSource(cfg.seed)).Perm(1000)
	w := &workload{
		tailQ: 0.90,
		next: func(i int) request {
			k := 1 + perm[i%len(perm)]
			return request{idx: i, kind: "spool", window: spoolWindow, body: variant(k, body), want: &expect{design: ref}}
		},
		valid:  neverCached,
		warmup: []request{{idx: -1, kind: "spool", window: spoolWindow, body: variant(0, scratchBody), want: &expect{design: ref}}},
	}
	return w, nil
}
