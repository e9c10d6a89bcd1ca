package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime/metrics"
	"syscall"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/server"
)

// designWire mirrors the daemon's JSON form of one designed direction.
type designWire struct {
	NumBuses      int   `json:"num_buses"`
	BusOf         []int `json:"bus_of"`
	MaxBusOverlap int64 `json:"max_bus_overlap"`
	Conflicts     int   `json:"conflicts"`
	SearchNodes   int64 `json:"search_nodes"`
}

// jobWire mirrors the daemon's JSON job status.
type jobWire struct {
	Status    string      `json:"status"`
	Cached    string      `json:"cached"`
	Warm      bool        `json:"warm"`
	QueueNS   int64       `json:"queue_ns"`
	ElapsedNS int64       `json:"elapsed_ns"`
	Design    *designWire `json:"design"`
	Request   *designWire `json:"request"`
	Response  *designWire `json:"response"`
	Error     string      `json:"error"`
}

// sameDesign compares a design with its reference on every field that
// does not depend on scheduling. SearchNodes is left out: it varies
// with the solver's parallel schedule.
func sameDesign(got, want *core.Design) error {
	if got == nil {
		return errors.New("no design")
	}
	switch {
	case got.NumBuses != want.NumBuses:
		return fmt.Errorf("num_buses %d, want %d", got.NumBuses, want.NumBuses)
	case got.MaxBusOverlap != want.MaxBusOverlap:
		return fmt.Errorf("max_bus_overlap %d, want %d", got.MaxBusOverlap, want.MaxBusOverlap)
	case got.Conflicts != want.Conflicts:
		return fmt.Errorf("conflicts %d, want %d", got.Conflicts, want.Conflicts)
	case len(got.BusOf) != len(want.BusOf):
		return fmt.Errorf("bus_of has %d entries, want %d", len(got.BusOf), len(want.BusOf))
	}
	for r := range got.BusOf {
		if got.BusOf[r] != want.BusOf[r] {
			return fmt.Errorf("bus_of[%d] = %d, want %d", r, got.BusOf[r], want.BusOf[r])
		}
	}
	return nil
}

// match compares got with the reference e.
func (e expect) match(got expect) error {
	if e.design != nil {
		return sameDesign(got.design, e.design)
	}
	if err := sameDesign(got.req, e.req); err != nil {
		return fmt.Errorf("request direction: %w", err)
	}
	if err := sameDesign(got.resp, e.resp); err != nil {
		return fmt.Errorf("response direction: %w", err)
	}
	return nil
}

func (d *designWire) design() *core.Design {
	if d == nil {
		return nil
	}
	return &core.Design{NumBuses: d.NumBuses, BusOf: d.BusOf, MaxBusOverlap: d.MaxBusOverlap, Conflicts: d.Conflicts}
}

// checkJob compares a finished job with its reference.
func checkJob(j *jobWire, want expect) error {
	if j.Status != "done" {
		return fmt.Errorf("job %s: %s", j.Status, j.Error)
	}
	return want.match(expect{design: j.Design.design(), req: j.Request.design(), resp: j.Response.design()})
}

// record is the outcome of one request.
type record struct {
	timed   bool // sent in the measured window, not while filling
	idx     int
	kind    string
	latency time.Duration
	queue   time.Duration
	job     time.Duration
	cached  string
	warm    bool
	err     error    // transport error, refusal, failed job or mismatch
	got     *jobWire // kept when the post-run sample checks the answer
}

// daemon is a stock stbusd server running in this process.
type daemon struct {
	url    string
	cancel context.CancelFunc
	done   chan error
	client *http.Client // the load run's one keep-alive connection
}

// The daemon runs with the stbusd defaults except for three settings.
//
// Two are memory bounds (stbusd -history and -cache-entries). At the
// defaults, 512 finished jobs and 256 cache entries, the daemon holds
// about 3 GB of live heap on app-spec, mostly the simulation results of
// finished jobs kept for polling, and about 1.7 GB of cached analyses on
// trace-cold. The benchmark must fit beside other work on an 8 GB
// machine. The client never polls finished jobs, and every workload
// keeps the property it needs from the cache at 32 entries:
// trace-repeat's ten bases stay cached, and no other request repeats
// within 32.
//
// The third is the spool threshold (stbusd -spool-threshold), lowered
// from 8 MiB to 2 MiB so that spool-large can take the out-of-core path
// with a body small enough to complete enough requests per run; see
// spoolTiles.
const (
	jobHistory     = 16
	cacheEntries   = 32
	spoolThreshold = 2 << 20
)

// cacheConfig is the design-cache configuration of the daemon and of the
// replica.
func cacheConfig() cache.Config { return cache.Config{MaxEntries: cacheEntries} }

// startDaemon runs server.Run on a loopback port and waits until
// /healthz answers.
func startDaemon(ctx context.Context, cfg config) (*daemon, error) {
	ctx, cancel := context.WithCancel(ctx)
	d := &daemon{cancel: cancel, done: make(chan error, 1)}
	bound := make(chan net.Addr, 1)
	go func() {
		d.done <- server.Run(ctx, server.Config{
			Addr:           "127.0.0.1:0",
			SpoolThreshold: cfg.spoolThreshold,
			JobHistory:     jobHistory,
			CacheConfig:    cacheConfig(),
		}, func(a net.Addr) { bound <- a })
	}()
	select {
	case a := <-bound:
		d.url = "http://" + a.String()
	case err := <-d.done:
		cancel()
		return nil, fmt.Errorf("starting the daemon: %w", err)
	}
	d.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}}
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := d.client.Get(d.url + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body) //nolint:errcheck // draining for connection reuse
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
			err = fmt.Errorf("healthz: HTTP %d", resp.StatusCode)
		}
		if time.Now().After(deadline) {
			d.stop() //nolint:errcheck // already failing
			return nil, fmt.Errorf("daemon not healthy: %w", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// stop drains the daemon and waits for server.Run to return.
func (d *daemon) stop() error {
	if d.client != nil {
		d.client.CloseIdleConnections()
	}
	d.cancel()
	return <-d.done
}

// send posts one request and checks the answer.
func send(ctx context.Context, hc *http.Client, url string, rq request) record {
	rec := record{idx: rq.idx, kind: rq.kind}
	hr, err := http.NewRequestWithContext(ctx, http.MethodPost, url+rq.path(), bytes.NewReader(rq.body))
	if err != nil {
		rec.err = err
		return rec
	}
	if rq.json {
		hr.Header.Set("Content-Type", "application/json")
	} else {
		hr.Header.Set("Content-Type", "application/octet-stream")
	}
	start := time.Now()
	resp, err := hc.Do(hr)
	if err != nil {
		rec.err = err
		return rec
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	rec.latency = time.Since(start)
	if err != nil {
		rec.err = err
		return rec
	}
	if resp.StatusCode != http.StatusOK {
		rec.err = fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(data))
		return rec
	}
	var j jobWire
	if err := json.Unmarshal(data, &j); err != nil {
		rec.err = fmt.Errorf("decoding the response: %w", err)
		return rec
	}
	rec.queue = time.Duration(j.QueueNS)
	rec.job = time.Duration(j.ElapsedNS)
	rec.cached, rec.warm = j.Cached, j.Warm
	switch {
	case j.Status != "done":
		rec.err = fmt.Errorf("job %s: %s", j.Status, j.Error)
	case rq.want != nil:
		rec.err = checkJob(&j, *rq.want)
	default:
		rec.got = &j
	}
	return rec
}

// setup starts a daemon and sends the workload's warmup pass through it,
// checking every answer.
func setup(ctx context.Context, cfg config, w *workload) (*daemon, time.Duration, error) {
	start := time.Now()
	d, err := startDaemon(ctx, cfg)
	if err != nil {
		return nil, 0, err
	}
	for _, rq := range w.warmup {
		if rec := send(ctx, d.client, d.url, rq); rec.err != nil {
			d.stop() //nolint:errcheck // already failing
			return nil, 0, fmt.Errorf("warmup request %d: %w", rq.idx, rec.err)
		}
	}
	return d, time.Since(start), nil
}

// heapSampler records the peak of /gc/heap/live:bytes every 100 ms.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	peak uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	read := func() {
		metrics.Read(sample)
		if sample[0].Value.Kind() == metrics.KindUint64 {
			h.peak = max(h.peak, sample[0].Value.Uint64())
		}
	}
	read()
	go func() {
		defer close(h.done)
		t := time.NewTicker(100 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				read()
				return
			case <-t.C:
				read()
			}
		}
	}()
	return h
}

// finish stops the sampler and returns the peak in bytes.
func (h *heapSampler) finish() uint64 {
	close(h.stop)
	<-h.done
	return h.peak
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// loadRun is the outcome of one untraced load run.
type loadRun struct {
	recs     []record
	elapsed  time.Duration
	cpu      time.Duration
	heapPeak uint64
	setups   []time.Duration
	verified int // answers checked by the post-run sample
}

// driveLoad starts the daemon cfg.setups times and keeps the last one.
// Through it one closed-loop client drives the workload untimed for
// cfg.fill, so the cache and the heap reach their steady state, then
// timed for cfg.seconds.
//
// One client, not one per CPU: on a shared 2-CPU machine, runs of
// app-spec alternating between one and two clients spread 5% and 10%
// in throughput over ten seeds. Two clients keep both CPUs busy, so
// every slowdown other tenants cause shows in full; one leaves the
// daemon's second worker and the solver's parallel search room.
func driveLoad(ctx context.Context, cfg config, w *workload) (*loadRun, error) {
	out := &loadRun{}
	var d *daemon
	for s := 0; s < cfg.setups; s++ {
		if d != nil {
			if err := d.stop(); err != nil {
				return nil, err
			}
		}
		var took time.Duration
		var err error
		if d, took, err = setup(ctx, cfg, w); err != nil {
			return nil, err
		}
		out.setups = append(out.setups, took)
	}

	next := 0
	drive := func(dur time.Duration, timed bool) {
		deadline := time.Now().Add(dur)
		for ctx.Err() == nil && time.Now().Before(deadline) {
			rec := send(ctx, d.client, d.url, w.next(next))
			rec.timed = timed
			out.recs = append(out.recs, rec)
			next++
		}
	}
	drive(cfg.fill, false)
	heap := startHeapSampler()
	cpu0 := cpuTime()
	start := time.Now()
	drive(cfg.seconds, true)
	out.elapsed = time.Since(start)
	out.cpu = cpuTime() - cpu0
	out.heapPeak = heap.finish()
	if err := d.stop(); err != nil {
		return nil, fmt.Errorf("stopping the daemon: %w", err)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// verifySample re-designs up to n answers the load run could not check
// against a precomputed reference, spread evenly over the run.
func verifySample(ctx context.Context, w *workload, run *loadRun, n int) error {
	var idx []int
	for i, r := range run.recs {
		if r.err == nil && r.got != nil {
			idx = append(idx, i)
		}
	}
	if len(idx) == 0 {
		return nil
	}
	step := max(1, (len(idx)+n-1)/n)
	for p := 0; p < len(idx); p += step {
		r := &run.recs[idx[p]]
		want, err := w.reference(ctx, w.next(r.idx))
		if err != nil {
			return fmt.Errorf("reference for request %d: %w", r.idx, err)
		}
		run.verified++
		if err := checkJob(r.got, want); err != nil {
			r.err = fmt.Errorf("post-run check: %w", err)
		}
	}
	return nil
}
