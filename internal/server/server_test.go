package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/signal"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"repro/internal/benchprobs"
	"repro/internal/obs"
	"repro/internal/trace"
)

// testConfig is a small, quiet server configuration for tests.
func testConfig() Config {
	return Config{
		Addr:           "127.0.0.1:0",
		Concurrency:    2,
		QueueDepth:     4,
		DefaultTimeout: 30 * time.Second,
		DrainTimeout:   10 * time.Second,
	}
}

// newTestServer starts a Server behind an httptest listener and wires
// orderly teardown: drain jobs, then the HTTP layer, then the pool.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(context.Background(), cfg)
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		dctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		s.Drain(dctx)
		cancel()
		hs.Close()
		s.Close()
	})
	return s, hs
}

// slowTrace returns a trace whose design takes long enough to observe
// in flight (roughly a hundred milliseconds) but finishes well within
// test deadlines.
func slowTrace(seed int64) *trace.Trace {
	return benchprobs.PerturbTrace(benchprobs.TraceN(16), 0.3, seed)
}

func traceBody(t *testing.T, tr *trace.Trace) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := trace.WriteBinary(&buf, tr); err != nil {
		t.Fatalf("WriteBinary: %v", err)
	}
	return buf.Bytes()
}

func postDesign(t *testing.T, url string, body []byte) (*jobJSON, int) {
	t.Helper()
	resp, err := http.Post(url, "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	var j jobJSON
	if err := json.NewDecoder(resp.Body).Decode(&j); err != nil {
		t.Fatalf("decode response: %v", err)
	}
	return &j, resp.StatusCode
}

// pollJob polls /v1/jobs/{id} until pred accepts the status or the
// deadline passes.
func pollJob(t *testing.T, base, id string, pred func(*jobJSON) bool) *jobJSON {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		resp, err := http.Get(base + "/v1/jobs/" + id)
		if err != nil {
			t.Fatalf("GET job %s: %v", id, err)
		}
		var j jobJSON
		err = json.NewDecoder(resp.Body).Decode(&j)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("decode job %s: %v", id, err)
		}
		if pred(&j) {
			return &j
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s: still %q after deadline", id, j.Status)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// sseFrame is one parsed server-sent event.
type sseFrame struct {
	event string
	data  string
}

// readSSE consumes an event stream until a "bye" frame or EOF.
func readSSE(r *bufio.Reader) ([]sseFrame, error) {
	var frames []sseFrame
	var cur sseFrame
	for {
		line, err := r.ReadString('\n')
		if err != nil {
			return frames, err
		}
		line = strings.TrimRight(line, "\n")
		switch {
		case strings.HasPrefix(line, "event: "):
			cur.event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			cur.data = strings.TrimPrefix(line, "data: ")
		case line == "":
			if cur.event != "" || cur.data != "" {
				frames = append(frames, cur)
				if cur.event == "bye" {
					return frames, nil
				}
				cur = sseFrame{}
			}
		}
	}
}

// TestDesignEndToEnd is the daemon's core acceptance test: a first
// solve populates the shared cache, a repeat of the identical request
// is served from it (microseconds, not a re-solve), a perturbed
// request runs concurrently and streams live SSE progress, and the
// three interleave without interference.
func TestDesignEndToEnd(t *testing.T) {
	_, hs := newTestServer(t, testConfig())
	designURL := hs.URL + "/v1/design"
	body := traceBody(t, slowTrace(1))

	// Cold solve: a real search, journaled per-job.
	first, code := postDesign(t, designURL, body)
	if code != http.StatusOK {
		t.Fatalf("cold POST: status %d (%+v)", code, first)
	}
	if first.Status != "done" || first.Design == nil {
		t.Fatalf("cold POST: status=%q design=%v", first.Status, first.Design)
	}
	if first.Cached != "" {
		t.Fatalf("cold POST unexpectedly cached via %q", first.Cached)
	}
	if first.Design.NumBuses <= 0 || first.Design.NumBuses > 16 {
		t.Fatalf("cold POST: implausible bus count %d", first.Design.NumBuses)
	}

	// Identical repeat and a perturbed sibling, concurrently.
	var wg sync.WaitGroup
	var repeat *jobJSON
	wg.Add(1)
	go func() {
		defer wg.Done()
		repeat, _ = postDesign(t, designURL, body)
	}()

	perturbed, code := postDesign(t, designURL+"?async=1", traceBody(t, slowTrace(2)))
	if code != http.StatusAccepted {
		t.Fatalf("async POST: status %d", code)
	}

	// Stream the perturbed job's progress while it solves.
	resp, err := http.Get(hs.URL + perturbed.EventsURL)
	if err != nil {
		t.Fatalf("GET events: %v", err)
	}
	frames, err := readSSE(bufio.NewReader(resp.Body))
	resp.Body.Close()
	if err != nil {
		t.Fatalf("read SSE: %v (got %d frames)", err, len(frames))
	}
	var flights, results int
	for _, f := range frames {
		switch f.event {
		case "flight":
			flights++
		case "result":
			results++
		}
	}
	if flights == 0 {
		t.Errorf("SSE: no flight events streamed for the running job")
	}
	if results != 1 {
		t.Errorf("SSE: got %d result frames, want 1", results)
	}
	last := frames[len(frames)-1]
	if last.event != "bye" {
		t.Errorf("SSE: stream ended with %q, want bye", last.event)
	}

	wg.Wait()
	if repeat.Status != "done" || repeat.Design == nil {
		t.Fatalf("repeat POST: status=%q", repeat.Status)
	}
	if repeat.Cached != "memory" {
		t.Fatalf("repeat POST: cached=%q, want memory hit", repeat.Cached)
	}
	// A content hit skips the search entirely: its service time is
	// microseconds. The bound is generous for race-detector CI noise.
	if repeat.ElapsedNS > (50 * time.Millisecond).Nanoseconds() {
		t.Errorf("repeat POST took %s — not a cache hit fast path", time.Duration(repeat.ElapsedNS))
	}
	if repeat.Design.NumBuses != first.Design.NumBuses {
		t.Errorf("repeat bus count %d != first %d", repeat.Design.NumBuses, first.Design.NumBuses)
	}

	done := pollJob(t, hs.URL, perturbed.Job, func(j *jobJSON) bool { return j.Status == "done" })
	if done.Design == nil || done.Design.NumBuses <= 0 {
		t.Errorf("perturbed job: no design in terminal status")
	}
	if done.Cached != "" {
		t.Errorf("perturbed job unexpectedly an exact cache hit (%q)", done.Cached)
	}
}

// TestQueueSaturation429 pins admission control: with one worker held
// mid-job and the queue full, the next POST is rejected with 429 and a
// Retry-After hint, and the queue recovers once the worker is released.
func TestQueueSaturation429(t *testing.T) {
	cfg := testConfig()
	cfg.Concurrency = 1
	cfg.QueueDepth = 1
	s, hs := newTestServer(t, cfg)

	entered := make(chan string, 4)
	release := make(chan struct{})
	var once sync.Once
	defer once.Do(func() { close(release) })
	s.testHookJobRunning = func(j *job) {
		entered <- j.id
		<-release
	}

	body := traceBody(t, slowTrace(3))
	// Job 1 occupies the only worker (held by the hook)...
	running, code := postDesign(t, hs.URL+"/v1/design?async=1", body)
	if code != http.StatusAccepted {
		t.Fatalf("job 1: status %d", code)
	}
	select {
	case <-entered:
	case <-time.After(10 * time.Second):
		t.Fatal("job 1 never started")
	}
	// ...job 2 fills the one queue slot...
	if _, code := postDesign(t, hs.URL+"/v1/design?async=1", body); code != http.StatusAccepted {
		t.Fatalf("job 2: status %d", code)
	}
	// ...and job 3 must bounce.
	resp, err := http.Post(hs.URL+"/v1/design", "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("job 3: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("job 3: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Errorf("429 carried no Retry-After")
	}
	var e errorJSON
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || e.Reason != "queue_full" {
		t.Errorf("429 body: reason=%q err=%v, want queue_full", e.Reason, err)
	}

	once.Do(func() { close(release) })
	pollJob(t, hs.URL, running.Job, func(j *jobJSON) bool { return j.Status == "done" })
}

// TestAppSpecDesign covers the structural-input route: a named
// benchmark application runs the full four-phase methodology and
// returns both crossbar directions.
func TestAppSpecDesign(t *testing.T) {
	_, hs := newTestServer(t, testConfig())
	resp, err := http.Post(hs.URL+"/v1/design", "application/json",
		strings.NewReader(`{"app":"mat2"}`))
	if err != nil {
		t.Fatalf("POST app: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST app: status %d", resp.StatusCode)
	}
	var j jobJSON
	if err := json.NewDecoder(resp.Body).Decode(&j); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if j.Request == nil || j.Response == nil {
		t.Fatalf("app job missing a direction: req=%v resp=%v", j.Request, j.Response)
	}
	if j.Request.NumBuses <= 0 || j.Response.NumBuses <= 0 {
		t.Errorf("implausible bus counts: req=%d resp=%d", j.Request.NumBuses, j.Response.NumBuses)
	}
}

// TestJobPanicRecovered pins that a panicking job fails alone: the job
// reports an internal error with its stack logged and counted and a
// panic event in its journal, the worker survives to serve the next
// request, and shutdown still drains cleanly.
func TestJobPanicRecovered(t *testing.T) {
	cfg := testConfig()
	cfg.Concurrency = 1 // the follow-up job must run on the same worker
	var logMu sync.Mutex
	var logs []string
	cfg.Logf = func(format string, args ...any) {
		logMu.Lock()
		logs = append(logs, fmt.Sprintf(format, args...))
		logMu.Unlock()
	}
	s, hs := newTestServer(t, cfg)
	var panicked atomic.Bool
	s.testHookJobRunning = func(*job) {
		if panicked.CompareAndSwap(false, true) {
			panic("injected job panic")
		}
	}
	panicsBefore := metPanics.Value()

	body := traceBody(t, slowTrace(5))
	failed, code := postDesign(t, hs.URL+"/v1/design", body)
	if code != http.StatusInternalServerError || failed.Status != "failed" || failed.Reason != "internal" {
		t.Fatalf("panicking job: status %d, job status %q reason %q, want 500 failed internal",
			code, failed.Status, failed.Reason)
	}
	if got := metPanics.Value() - panicsBefore; got != 1 {
		t.Errorf("server.job_panics rose by %d, want 1", got)
	}
	logMu.Lock()
	var stackLogged bool
	for _, l := range logs {
		if strings.Contains(l, "injected job panic") && strings.Contains(l, "goroutine") {
			stackLogged = true
		}
	}
	logMu.Unlock()
	if !stackLogged {
		t.Errorf("panic stack not logged")
	}

	// The job's journal replays the recovered panic, then ends.
	resp, err := http.Get(hs.URL + failed.EventsURL)
	if err != nil {
		t.Fatalf("GET events: %v", err)
	}
	frames, err := readSSE(bufio.NewReader(resp.Body))
	resp.Body.Close()
	if err != nil {
		t.Fatalf("read SSE: %v", err)
	}
	panicAt := -1
	for i, f := range frames {
		if f.event == "flight" && strings.Contains(f.data, `"kind":"panic"`) {
			panicAt = i
		}
	}
	if panicAt < 0 {
		t.Errorf("no panic event in the failed job's journal: %+v", frames)
	} else if last := frames[len(frames)-1]; last.event != "bye" {
		t.Errorf("journal ends with %q, want bye after the panic", last.event)
	}

	next, code := postDesign(t, hs.URL+"/v1/design", body)
	if code != http.StatusOK || next.Status != "done" || next.Design == nil {
		t.Fatalf("job after the panic: status %d, job status %q", code, next.Status)
	}

	dctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	s.Drain(dctx)
	if dctx.Err() != nil {
		t.Errorf("drain ran into its deadline after a panicked job")
	}
	s.Close()
}

// TestBadRequests pins the rejection surface: unknown app, synthetic
// bursts the application cannot be built from, bad content type, and
// garbage binary bodies all answer 4xx with a JSON error, never a 500.
func TestBadRequests(t *testing.T) {
	_, hs := newTestServer(t, testConfig())
	cases := []struct {
		name, url, ct, body string
		want                int
	}{
		{"unknown app", "/v1/design", "application/json", `{"app":"nope"}`, 400},
		{"synthetic burst too short", "/v1/design", "application/json", `{"app":"synthetic","burst":5}`, 400},
		{"synthetic burst overflows", "/v1/design", "application/json", `{"app":"synthetic","burst":4611686018427387904}`, 400},
		{"bad content type", "/v1/design", "text/csv", "a,b", 415},
		{"garbage binary", "/v1/design", "application/octet-stream", "not a trace", 400},
		{"bad mode", "/v1/design?mode=wat", "application/json", `{"app":"mat1"}`, 400},
		{"negative timeout", "/v1/design?timeout=-1s", "application/json", `{"app":"mat1"}`, 400},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(hs.URL+tc.url, tc.ct, strings.NewReader(tc.body))
			if err != nil {
				t.Fatalf("POST: %v", err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != tc.want {
				t.Fatalf("status %d, want %d", resp.StatusCode, tc.want)
			}
			var e errorJSON
			if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || e.Error == "" {
				t.Errorf("error body not JSON: %v", err)
			}
		})
	}

	// Unknown job ids 404 on both status and events.
	for _, path := range []string{"/v1/jobs/j-999999", "/v1/jobs/j-999999/events"} {
		resp, err := http.Get(hs.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s: status %d, want 404", path, resp.StatusCode)
		}
	}
}

// TestReceiverCapRejected: a trace declaring more receivers than the
// analysis accepts gets a classified 400 (reason bad_request) on the
// JSON path and on both binary paths, in memory and spooled, before any
// analysis runs. A spooled body over the cap used to be spooled and
// then fail its job as internal (500).
func TestReceiverCapRejected(t *testing.T) {
	cfg := testConfig()
	cfg.SpoolThreshold = 64
	cfg.SpoolDir = t.TempDir()
	_, hs := newTestServer(t, cfg)
	binaryHeader := append([]byte("STBT"), make([]byte, 28)...)
	binary.LittleEndian.PutUint32(binaryHeader[4:], 1)
	binary.LittleEndian.PutUint32(binaryHeader[8:], 4097)
	binary.LittleEndian.PutUint32(binaryHeader[12:], 1)
	binary.LittleEndian.PutUint64(binaryHeader[16:], 32)
	spooled := append(binary.LittleEndian.AppendUint64(binaryHeader[:24:24], 4), make([]byte, 4*25)...)
	for _, tc := range []struct{ ct, body string }{
		{"application/json", `{"num_receivers":4097,"num_senders":1,"horizon":32,"events":[]}`},
		{"application/octet-stream", string(binaryHeader)},
		{"application/octet-stream", string(spooled)},
	} {
		resp, err := http.Post(hs.URL+"/v1/design?window=8", tc.ct, strings.NewReader(tc.body))
		if err != nil {
			t.Fatalf("POST %s: %v", tc.ct, err)
		}
		var e errorJSON
		if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
			t.Errorf("%s: error body not JSON: %v", tc.ct, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || e.Reason != "bad_request" || !strings.Contains(e.Error, "4097 receivers exceeds the limit 4096") {
			t.Errorf("%s: status %d, reason %q, error %q; want 400 bad_request naming the limit", tc.ct, resp.StatusCode, e.Reason, e.Error)
		}
	}
}

// TestTooManyWindowsRejected: a window size that cuts the horizon into
// more windows than the analysis supports is the request's fault, so
// the job fails as too_many_windows (422), in memory and spooled.
func TestTooManyWindowsRejected(t *testing.T) {
	body := append([]byte("STBT"), make([]byte, 28)...)
	binary.LittleEndian.PutUint32(body[4:], 1)
	binary.LittleEndian.PutUint32(body[8:], 2)
	binary.LittleEndian.PutUint32(body[12:], 1)
	binary.LittleEndian.PutUint64(body[16:], 1<<26+1)
	for _, threshold := range []int64{0, 31} {
		cfg := testConfig()
		cfg.SpoolThreshold = threshold
		cfg.SpoolDir = t.TempDir()
		_, hs := newTestServer(t, cfg)
		j, code := postDesign(t, hs.URL+"/v1/design?window=1", body)
		if code != http.StatusUnprocessableEntity || j.Reason != "too_many_windows" || !strings.Contains(j.Error, "67108865 windows") {
			t.Errorf("spool threshold %d: status %d, reason %q, error %q; want 422 too_many_windows naming the count",
				threshold, code, j.Reason, j.Error)
		}
	}
}

// TestEngineParamIgnored: engine= once picked a solver engine and is now
// an unknown query key, which the server ignores like any other. An
// older client's engine=portfolio gets the design a request without the
// key gets, served from the cache entry that request stored: the key
// does not reach the options.
func TestEngineParamIgnored(t *testing.T) {
	_, hs := newTestServer(t, testConfig())
	body := traceBody(t, benchprobs.TraceN(12))
	url := fmt.Sprintf("%s/v1/design?window=%d", hs.URL, benchprobs.AnalysisWindow)
	plain, code := postDesign(t, url, body)
	if code != http.StatusOK || plain.Design == nil {
		t.Fatalf("no engine key: status %d, job %+v", code, plain)
	}
	for _, engine := range []string{"portfolio", "bb", "milp"} {
		got, code := postDesign(t, url+"&engine="+engine, body)
		if code != http.StatusOK || !designEqual(got.Design, plain.Design) ||
			got.Design.MaxBusOverlap != plain.Design.MaxBusOverlap || got.Cached != "memory" {
			t.Errorf("engine=%s: status %d, cached %q, design %+v; want 200, a memory hit, %+v",
				engine, code, got.Cached, got.Design, plain.Design)
		}
	}
}

// TestCappedDesignAnswered pins the capped contract at the service: a
// 32-receiver trace whose feasibility and binding searches outrun a
// small max_nodes budget answers 200 with an audited design flagged
// capped, not 422 search_limit. Capped designs are never stored, so a
// repeat solves again instead of hitting the cache.
func TestCappedDesignAnswered(t *testing.T) {
	_, hs := newTestServer(t, testConfig())
	body := traceBody(t, benchprobs.TraceN(32))
	url := fmt.Sprintf("%s/v1/design?window=%d&max_nodes=1000&audit=true", hs.URL, benchprobs.AnalysisWindow)
	first, code := postDesign(t, url, body)
	if code != http.StatusOK || first.Design == nil || !first.Design.Capped {
		t.Fatalf("status %d, reason %q, design %+v; want 200 with a capped design", code, first.Reason, first.Design)
	}
	again, code := postDesign(t, url, body)
	if code != http.StatusOK || again.Cached != "" || !again.Design.Capped {
		t.Fatalf("repeat: status %d, cached %q, design %+v; want a fresh capped solve", code, again.Cached, again.Design)
	}
	if !designEqual(again.Design, first.Design) || again.Design.MaxBusOverlap != first.Design.MaxBusOverlap {
		t.Errorf("repeat designed %+v, first %+v; capped designs are deterministic", again.Design, first.Design)
	}
}

// TestSSEAfterCompletion pins the replay half of the stream contract: a
// subscriber arriving after the job finished still receives the full
// journal, the result frame, and a clean bye.
func TestSSEAfterCompletion(t *testing.T) {
	_, hs := newTestServer(t, testConfig())
	j, code := postDesign(t, hs.URL+"/v1/design", traceBody(t, slowTrace(4)))
	if code != http.StatusOK {
		t.Fatalf("POST: status %d", code)
	}
	resp, err := http.Get(hs.URL + j.EventsURL)
	if err != nil {
		t.Fatalf("GET events: %v", err)
	}
	frames, err := readSSE(bufio.NewReader(resp.Body))
	resp.Body.Close()
	if err != nil {
		t.Fatalf("read SSE: %v", err)
	}
	var flights int
	var result *jobJSON
	for _, f := range frames {
		switch f.event {
		case "flight":
			flights++
		case "result":
			result = new(jobJSON)
			if err := json.Unmarshal([]byte(f.data), result); err != nil {
				t.Fatalf("result frame: %v", err)
			}
		}
	}
	if flights == 0 {
		t.Errorf("no journal replay for a finished job")
	}
	if result == nil || result.Status != "done" {
		t.Errorf("result frame missing or not done: %+v", result)
	}
	if frames[len(frames)-1].event != "bye" {
		t.Errorf("stream ended with %q, want bye", frames[len(frames)-1].event)
	}
}

// TestSigtermDrain runs the real daemon lifecycle: Run on a live
// listener, a job in flight, SIGTERM mid-solve. The daemon must stop
// admitting, let the job finish (its SSE subscriber sees the terminal
// result), and Run must return cleanly.
func TestSigtermDrain(t *testing.T) {
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM)
	defer stop()

	cfg := testConfig()
	addrCh := make(chan net.Addr, 1)
	runErr := make(chan error, 1)
	go func() {
		runErr <- Run(ctx, cfg, func(a net.Addr) { addrCh <- a })
	}()
	var base string
	select {
	case a := <-addrCh:
		base = "http://" + a.String()
	case err := <-runErr:
		t.Fatalf("Run exited before listening: %v", err)
	}
	if err := waitHealthy(base, 5*time.Second); err != nil {
		t.Fatal(err)
	}

	j, code := postDesign(t, base+"/v1/design?async=1", traceBody(t, slowTrace(5)))
	if code != http.StatusAccepted {
		t.Fatalf("async POST: status %d", code)
	}
	// Subscribe before the signal: the stream must survive the drain
	// long enough to deliver the job's terminal frames.
	stream, err := http.Get(base + j.EventsURL)
	if err != nil {
		t.Fatalf("GET events: %v", err)
	}
	defer stream.Body.Close()
	pollJob(t, base, j.Job, func(s *jobJSON) bool { return s.Status != "queued" })

	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatalf("kill: %v", err)
	}

	frames, err := readSSE(bufio.NewReader(stream.Body))
	if err != nil {
		t.Fatalf("SSE through drain: %v (%d frames)", err, len(frames))
	}
	var result *jobJSON
	for _, f := range frames {
		if f.event == "result" {
			result = new(jobJSON)
			if err := json.Unmarshal([]byte(f.data), result); err != nil {
				t.Fatalf("result frame: %v", err)
			}
		}
	}
	if result == nil {
		t.Fatal("drained job delivered no terminal result frame")
	}
	if result.Status != "done" {
		t.Errorf("drained job status %q, want done (graceful drain finishes in-flight work)", result.Status)
	}

	select {
	case err := <-runErr:
		if err != nil {
			t.Fatalf("Run returned %v after drain, want nil", err)
		}
	case <-time.After(cfg.DrainTimeout + 10*time.Second):
		t.Fatal("Run did not return after SIGTERM")
	}

	// The listener is down: new connections must fail.
	if _, err := http.Get(base + "/healthz"); err == nil {
		t.Error("listener still accepting after shutdown")
	}
}

// TestDrainRejectsNewWork pins the admission side of the drain: once
// draining, POST answers 503 and /healthz flips unhealthy, while
// status polling for existing jobs keeps working.
func TestDrainRejectsNewWork(t *testing.T) {
	s, hs := newTestServer(t, testConfig())
	j, code := postDesign(t, hs.URL+"/v1/design", traceBody(t, slowTrace(6)))
	if code != http.StatusOK {
		t.Fatalf("POST: status %d", code)
	}

	dctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	s.Drain(dctx)
	cancel()

	if _, code := postDesign(t, hs.URL+"/v1/design", traceBody(t, slowTrace(7))); code != http.StatusServiceUnavailable {
		t.Errorf("POST while draining: status %d, want 503", code)
	}
	resp, err := http.Get(hs.URL + "/healthz")
	if err != nil {
		t.Fatalf("healthz: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("healthz while draining: %d, want 503", resp.StatusCode)
	}
	got := pollJob(t, hs.URL, j.Job, func(x *jobJSON) bool { return x.Status == "done" })
	if got.Design == nil {
		t.Error("finished job lost its design during drain")
	}
}

// TestAsyncLocationHeader pins the 202 contract.
func TestAsyncLocationHeader(t *testing.T) {
	_, hs := newTestServer(t, testConfig())
	resp, err := http.Post(hs.URL+"/v1/design?async=1", "application/json",
		strings.NewReader(`{"app":"mat1"}`))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status %d, want 202", resp.StatusCode)
	}
	loc := resp.Header.Get("Location")
	if !strings.HasPrefix(loc, "/v1/jobs/") {
		t.Fatalf("Location %q", loc)
	}
	var j jobJSON
	if err := json.NewDecoder(resp.Body).Decode(&j); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if fmt.Sprintf("/v1/jobs/%s", j.Job) != loc {
		t.Errorf("Location %q does not match job id %q", loc, j.Job)
	}
	pollJob(t, hs.URL, j.Job, func(x *jobJSON) bool { return x.Status == "done" || x.Status == "failed" })
}

// TestStreamingIngest pins the out-of-core ingest path: with a tiny
// spool threshold every binary body is spooled to disk and analyzed
// through the mmap-backed sharded driver, the design round-trips, the
// spool file is cleaned up, and — because the cache keys on the
// analysis fingerprint, not the container bytes — a v2 re-encode of
// the same trace is an exact cache hit.
func TestStreamingIngest(t *testing.T) {
	spoolDir := t.TempDir()
	cfg := testConfig()
	cfg.SpoolThreshold = 64 // force spooling for any real trace body
	cfg.SpoolDir = spoolDir
	cfg.Shards = 3
	_, hs := newTestServer(t, cfg)

	tr := benchprobs.TraceN(16)
	// The out-of-core driver needs start-ordered bytes; keep the
	// original (unsorted) trace around to exercise the in-memory
	// fallback below.
	sorted := &trace.Trace{
		NumReceivers: tr.NumReceivers,
		NumSenders:   tr.NumSenders,
		Horizon:      tr.Horizon,
		Events:       append([]trace.Event(nil), tr.Events...),
	}
	sort.SliceStable(sorted.Events, func(i, j int) bool {
		return sorted.Events[i].Start < sorted.Events[j].Start
	})
	url := hs.URL + "/v1/design?window=500"

	j, status := postDesign(t, url, traceBody(t, sorted))
	if status != http.StatusOK || j.Status != "done" {
		t.Fatalf("spooled v1 design: status %d job %q err %q", status, j.Status, j.Error)
	}
	if j.Design == nil || j.Design.NumBuses <= 0 {
		t.Fatalf("spooled v1 design: no design in %+v", j)
	}
	if j.Cached != "" {
		t.Fatalf("first solve reported cached=%q", j.Cached)
	}

	// Same logical trace, v2 container: must hit the cache exactly.
	var v2 bytes.Buffer
	if err := trace.WriteBinaryV2(&v2, tr); err != nil {
		t.Fatal(err)
	}
	j2, status := postDesign(t, url, v2.Bytes())
	if status != http.StatusOK || j2.Status != "done" {
		t.Fatalf("spooled v2 design: status %d job %q err %q", status, j2.Status, j2.Error)
	}
	if j2.Cached != "memory" {
		t.Fatalf("v2 re-encode: cached=%q, want \"memory\" (fingerprint must be container-independent)", j2.Cached)
	}
	if !designEqual(j.Design, j2.Design) {
		t.Fatalf("cached design differs: %+v vs %+v", j.Design, j2.Design)
	}

	// An unsorted v1 body cannot be analyzed out-of-core; the server
	// falls back to in-memory decode — and since the fingerprint depends
	// only on the analysis, this too is an exact cache hit.
	j3, status := postDesign(t, url, traceBody(t, tr))
	if status != http.StatusOK || j3.Status != "done" {
		t.Fatalf("unsorted v1 fallback: status %d job %q err %q", status, j3.Status, j3.Error)
	}
	if j3.Cached != "memory" {
		t.Fatalf("unsorted v1 fallback: cached=%q, want \"memory\"", j3.Cached)
	}

	// Spool files are removed once their jobs finish (the cleanup is
	// deferred past the response, hence the poll).
	deadline := time.Now().Add(5 * time.Second)
	for {
		ents, err := os.ReadDir(spoolDir)
		if err != nil {
			t.Fatal(err)
		}
		if len(ents) == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d spool files remain after jobs finished", len(ents))
		}
		time.Sleep(10 * time.Millisecond)
	}

	// A corrupt oversized body fails fast on the header without leaving
	// a spool file behind.
	junk := append([]byte("NOPE"), make([]byte, 256)...)
	_, status = postDesign(t, url, junk)
	if status != http.StatusBadRequest {
		t.Fatalf("corrupt body: status %d, want 400", status)
	}
	if ents, _ := os.ReadDir(spoolDir); len(ents) != 0 {
		t.Fatalf("corrupt body left %d spool files", len(ents))
	}
}

// designEqual compares the wire forms of two designs structurally.
func designEqual(a, b *designJSON) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a.NumBuses != b.NumBuses || len(a.BusOf) != len(b.BusOf) {
		return false
	}
	for i := range a.BusOf {
		if a.BusOf[i] != b.BusOf[i] {
			return false
		}
	}
	return true
}

// TestSlowHeaderClientDisconnected pins the slow-client bound: a client
// that stalls partway through its request header is disconnected once
// readHeaderTimeout passes, and other clients are served meanwhile.
func TestSlowHeaderClientDisconnected(t *testing.T) {
	saved := readHeaderTimeout
	readHeaderTimeout = 200 * time.Millisecond
	defer func() { readHeaderTimeout = saved }()

	ctx, cancel := context.WithCancel(context.Background())
	addrCh := make(chan net.Addr, 1)
	runErr := make(chan error, 1)
	go func() {
		runErr <- Run(ctx, testConfig(), func(a net.Addr) { addrCh <- a })
	}()
	defer func() {
		cancel()
		if err := <-runErr; err != nil {
			t.Errorf("Run: %v", err)
		}
	}()
	var addr string
	select {
	case a := <-addrCh:
		addr = a.String()
	case err := <-runErr:
		t.Fatalf("Run exited before listening: %v", err)
	}

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	start := time.Now()
	if _, err := io.WriteString(conn, "GET /healthz HTTP/1.1\r\nHost: stbusd\r\n"); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get("http://" + addr + "/healthz")
	if err != nil {
		t.Fatalf("healthz beside a stalled client: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz beside a stalled client: status %d", resp.StatusCode)
	}

	conn.SetReadDeadline(time.Now().Add(10 * time.Second)) //nolint:errcheck // a failed deadline shows as a hang below
	if _, err := io.ReadAll(conn); err != nil {
		t.Fatalf("stalled client was not disconnected: %v", err)
	}
	if d := time.Since(start); d < readHeaderTimeout {
		t.Fatalf("stalled client disconnected after %s, before the %s header timeout", d, readHeaderTimeout)
	}
}

// TestSlowBodyClientDisconnected pins the body bound of POST
// /v1/design: a client that sends its headers and then stalls the body
// is answered 400 and disconnected once bodyReadTimeout passes. The
// no-op logger puts the request-logging wrapper in the path, which the
// read deadline must reach through.
func TestSlowBodyClientDisconnected(t *testing.T) {
	saved := bodyReadTimeout
	bodyReadTimeout = 200 * time.Millisecond
	defer func() { bodyReadTimeout = saved }()

	ctx, cancel := context.WithCancel(context.Background())
	cfg := testConfig()
	cfg.Logf = func(string, ...any) {}
	addrCh := make(chan net.Addr, 1)
	runErr := make(chan error, 1)
	go func() {
		runErr <- Run(ctx, cfg, func(a net.Addr) { addrCh <- a })
	}()
	defer func() {
		cancel()
		if err := <-runErr; err != nil {
			t.Errorf("Run: %v", err)
		}
	}()
	var addr string
	select {
	case a := <-addrCh:
		addr = a.String()
	case err := <-runErr:
		t.Fatalf("Run exited before listening: %v", err)
	}

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	start := time.Now()
	if _, err := io.WriteString(conn, "POST /v1/design HTTP/1.1\r\nHost: stbusd\r\n"+
		"Content-Type: application/octet-stream\r\nContent-Length: 100000\r\n\r\nSTB"); err != nil {
		t.Fatal(err)
	}

	conn.SetReadDeadline(time.Now().Add(10 * time.Second)) //nolint:errcheck // a failed deadline shows as a hang below
	resp, err := io.ReadAll(conn)
	if err != nil {
		t.Fatalf("stalled body was not cut off: %v", err)
	}
	if d := time.Since(start); d < bodyReadTimeout {
		t.Fatalf("stalled body cut off after %s, before the %s body timeout", d, bodyReadTimeout)
	}
	if !bytes.HasPrefix(resp, []byte("HTTP/1.1 400")) {
		t.Fatalf("stalled body answered %q, want a 400", resp)
	}
}

// TestJobEventsOverrunReportsDropped is the job-stream side of the
// shared overrun report: a job whose ring of 4 kept the last 4 of 10
// events streams a dropped frame of 6, seqs 6-9, its result and bye.
func TestJobEventsOverrunReportsDropped(t *testing.T) {
	s, hs := newTestServer(t, testConfig())
	j := &job{id: "j-overrun", rec: obs.NewFlightRecorder(4), done: make(chan struct{}), created: time.Now()}
	for i := 0; i < 10; i++ {
		j.rec.Emit(obs.Event{Kind: obs.EvNodes, Val: int64(i)})
	}
	j.finish(time.Now(), nil, nil, nil)
	s.jobMu.Lock()
	s.jobs[j.id] = j
	s.jobMu.Unlock()

	resp, err := http.Get(hs.URL + "/v1/jobs/j-overrun/events")
	if err != nil {
		t.Fatal(err)
	}
	frames, err := readSSE(bufio.NewReader(resp.Body))
	resp.Body.Close()
	if err != nil {
		t.Fatalf("read SSE: %v", err)
	}
	want := []sseFrame{{"dropped", `{"dropped":6}`}}
	for seq := 6; seq < 10; seq++ {
		want = append(want, sseFrame{event: "flight", data: fmt.Sprintf(`"seq":%d,`, seq)})
	}
	want = append(want, sseFrame{event: "result", data: `"status":"done"`}, sseFrame{event: "bye"})
	if len(frames) != len(want) {
		t.Fatalf("got %d frames %+v, want %d", len(frames), frames, len(want))
	}
	for i, f := range frames {
		if f.event != want[i].event || !strings.Contains(f.data, want[i].data) {
			t.Errorf("frame %d = %+v, want %s containing %s", i, f, want[i].event, want[i].data)
		}
	}
}

// TestForwardKeepsJobTiming: a job's events forwarded into the
// daemon-wide recorder keep their job-relative times, shifted onto the
// daemon-wide clock, so a probe lasts as long in the daemon's recording
// as in the job's own.
func TestForwardKeepsJobTiming(t *testing.T) {
	global := obs.NewFlightRecorder(0)
	s := New(obs.WithFlightRecorder(context.Background(), global), testConfig())
	hs := httptest.NewServer(s.Handler())
	defer func() {
		hs.Close()
		s.Close()
	}()
	j, code := postDesign(t, hs.URL+"/v1/design", traceBody(t, slowTrace(5)))
	if code != http.StatusOK {
		t.Fatalf("POST: status %d", code)
	}
	// Drain waits for the job to retire, forwarding included.
	dctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	s.Drain(dctx)

	firstProbe := func(events []obs.Event) (ns int64) {
		t.Helper()
		var open *obs.Event
		for i, e := range events {
			switch {
			case e.Kind == obs.EvProbeOpen && open == nil:
				open = &events[i]
			case e.Kind == obs.EvProbeClose && open != nil:
				return e.T - open.T
			}
		}
		t.Fatal("no probe recorded")
		return 0
	}
	s.jobMu.Lock()
	jobEvents := s.jobs[j.Job].rec.Events()
	s.jobMu.Unlock()
	want := firstProbe(jobEvents)
	if got := firstProbe(global.Events()); got != want {
		t.Errorf("forwarded probe lasts %dns, the job's own %dns", got, want)
	}
	if got, n := global.Emitted(), int64(len(jobEvents)); got != n {
		t.Errorf("global recorder holds %d events, the job %d", got, n)
	}
}
