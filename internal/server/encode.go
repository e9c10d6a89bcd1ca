package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"strconv"
	"time"

	stbusgen "repro"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/trace"
)

// designRequest is one decoded /v1/design submission of one of two
// kinds: a traffic trace to analyze and design (phases 2–3) or a named
// benchmark application to run through the full four-phase methodology.
type designRequest struct {
	// Exactly one of tr / spool / app is set. tr and spool are the two
	// containers of a trace job: spool is the temp-file path of a large
	// binary trace body analyzed out of core instead of decoded into
	// memory.
	tr     *trace.Trace
	spool  string
	app    *stbusgen.App
	window int64 // trace jobs; 0 means the trace's own hint

	opts    core.Options
	timeout time.Duration
	async   bool
}

// cleanup releases the request's spooled body, if any. Idempotent; it
// runs when the job finishes and on every pre-admission error path.
func (req *designRequest) cleanup() {
	if req.spool != "" {
		os.Remove(req.spool) //nolint:errcheck // best-effort temp cleanup
		req.spool = ""
	}
}

// appSpec is the JSON body of an application design request: a named
// benchmark from the paper's suite (the service-side counterpart of
// the netlist/workload constructors).
type appSpec struct {
	App   string `json:"app"`
	Seed  int64  `json:"seed"`
	Burst int64  `json:"burst"` // synthetic only; cycles per burst
}

// httpError is a decode/admission failure carrying its status code.
type httpError struct {
	status int
	msg    string
}

func (e *httpError) Error() string { return e.msg }

func badRequest(format string, args ...any) error {
	return &httpError{status: http.StatusBadRequest, msg: fmt.Sprintf(format, args...)}
}

// decodeDesignRequest parses one POST /v1/design: solver options from
// the query string, the problem from the body. Binary traces arrive as
// application/octet-stream (the stbus-sim -dump-traces format), JSON
// bodies carry either a JSON trace or an application spec ({"app":...}).
// Unknown query keys are ignored, among them engine=, which older
// clients send to pick a solver engine: there is one.
func (s *Server) decodeDesignRequest(r *http.Request) (*designRequest, error) {
	q := r.URL.Query()
	req := &designRequest{opts: core.DefaultOptions()}
	req.opts.Cache = s.cache

	var err error
	if v := q.Get("threshold"); v != "" {
		if req.opts.OverlapThreshold, err = strconv.ParseFloat(v, 64); err != nil {
			return nil, badRequest("threshold: %v", err)
		}
	}
	if v := q.Get("maxtb"); v != "" {
		if req.opts.MaxPerBus, err = strconv.Atoi(v); err != nil {
			return nil, badRequest("maxtb: %v", err)
		}
	}
	switch mode := q.Get("mode"); mode {
	case "", "optimize":
		req.opts.OptimizeBinding = true
	case "first-feasible":
		req.opts.OptimizeBinding = false
	default:
		return nil, badRequest("mode: unknown %q (want optimize or first-feasible)", mode)
	}
	if v := q.Get("critical"); v != "" {
		if req.opts.SeparateCritical, err = strconv.ParseBool(v); err != nil {
			return nil, badRequest("critical: %v", err)
		}
	}
	if v := q.Get("audit"); v != "" {
		if req.opts.Audit, err = strconv.ParseBool(v); err != nil {
			return nil, badRequest("audit: %v", err)
		}
	}
	if v := q.Get("max_nodes"); v != "" {
		if req.opts.MaxNodes, err = strconv.ParseInt(v, 10, 64); err != nil {
			return nil, badRequest("max_nodes: %v", err)
		}
		if s.cfg.MaxNodes > 0 && (req.opts.MaxNodes == 0 || req.opts.MaxNodes > s.cfg.MaxNodes) {
			req.opts.MaxNodes = s.cfg.MaxNodes
		}
	} else {
		req.opts.MaxNodes = s.cfg.MaxNodes
	}
	if v := q.Get("window"); v != "" {
		if req.window, err = strconv.ParseInt(v, 10, 64); err != nil {
			return nil, badRequest("window: %v", err)
		}
		if req.window < 0 {
			return nil, badRequest("window: must be positive")
		}
	}
	req.timeout = s.cfg.DefaultTimeout
	if v := q.Get("timeout"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil {
			return nil, badRequest("timeout: %v", err)
		}
		if d <= 0 {
			return nil, badRequest("timeout: must be positive")
		}
		req.timeout = d
	}
	if req.timeout <= 0 || req.timeout > s.cfg.MaxTimeout {
		req.timeout = s.cfg.MaxTimeout
	}
	if v := q.Get("async"); v != "" {
		if req.async, err = strconv.ParseBool(v); err != nil {
			return nil, badRequest("async: %v", err)
		}
	}
	if err := req.opts.Validate(); err != nil {
		return nil, badRequest("options: %v", err)
	}

	body := http.MaxBytesReader(nil, r.Body, s.cfg.MaxBody)
	switch ct := contentType(r); ct {
	// x-www-form-urlencoded is curl's --data-binary default; treating it
	// as a binary trace keeps the obvious invocation working.
	case "application/octet-stream", "application/x-stbus-trace",
		"application/x-www-form-urlencoded", "":
		if err := s.ingestBinaryTrace(body, req); err != nil {
			return nil, err
		}
	case "application/json":
		raw, err := io.ReadAll(body)
		if err != nil {
			return nil, badRequest("body: %v", err)
		}
		var spec appSpec
		if err := json.Unmarshal(raw, &spec); err == nil && spec.App != "" {
			app, err := lookupApp(spec)
			if err != nil {
				return nil, err
			}
			req.app = app
			break
		}
		tr, err := trace.ReadJSON(bytes.NewReader(raw))
		if err != nil {
			return nil, badRequest("JSON body: neither an application spec ({\"app\":...}) nor a trace: %v", err)
		}
		req.tr = tr
	default:
		return nil, &httpError{status: http.StatusUnsupportedMediaType,
			msg: fmt.Sprintf("unsupported content type %q (want application/octet-stream or application/json)", ct)}
	}
	if req.tr != nil && req.window == 0 {
		req.window = req.tr.WindowSizeHint()
	}
	return req, nil
}

// ingestBinaryTrace decodes a binary trace body. Bodies at most
// SpoolThreshold bytes are decoded in memory as before; larger ones
// are spooled to a temp file after a fail-fast header check and
// analyzed later through the mmap-backed sharded driver, so the
// per-job cost of a 100M-event POST is the analysis tables, not the
// event slice. Spooled jobs cannot compute burst statistics for the
// window hint, so the default window falls back to horizon/100 —
// clients posting huge traces should pass ?window= explicitly.
func (s *Server) ingestBinaryTrace(body io.Reader, req *designRequest) error {
	threshold := s.cfg.SpoolThreshold
	if threshold < 0 || threshold >= s.cfg.MaxBody {
		tr, err := trace.ReadBinary(body)
		if err != nil {
			return badRequest("binary trace: %v", err)
		}
		req.tr = tr
		return nil
	}

	// Read past the threshold, and never less than the header, which
	// the spool path checks before it commits to disk.
	head := make([]byte, max(threshold+1, trace.HeaderSize))
	n, err := io.ReadFull(body, head)
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		// The whole body fits in head (at most the threshold, or
		// shorter than a header): the in-memory path.
		tr, err := trace.ReadBinary(bytes.NewReader(head[:n]))
		if err != nil {
			return badRequest("binary trace: %v", err)
		}
		req.tr = tr
		return nil
	}
	if err != nil {
		return badRequest("binary trace: %v", err)
	}

	// Too big to hold: fail fast on the header, then spool to disk.
	hdr, err := trace.ReadHeader(bytes.NewReader(head))
	if err != nil {
		return badRequest("binary trace: %v", err)
	}
	f, err := os.CreateTemp(s.cfg.SpoolDir, "stbusd-trace-*.trc")
	if err != nil {
		return fmt.Errorf("spooling trace body: %w", err)
	}
	spooled := false
	defer func() {
		f.Close()
		if !spooled {
			os.Remove(f.Name()) //nolint:errcheck // best-effort temp cleanup
		}
	}()
	if _, err := f.Write(head); err != nil {
		return fmt.Errorf("spooling trace body: %w", err)
	}
	if _, err := io.Copy(f, body); err != nil {
		// MaxBytesReader errors land here for oversized bodies.
		return badRequest("binary trace: %v", err)
	}
	if err := f.Sync(); err != nil {
		return fmt.Errorf("spooling trace body: %w", err)
	}
	spooled = true
	req.spool = f.Name()
	if req.window == 0 {
		req.window = max(hdr.Horizon/100, 1)
	}
	return nil
}

// maxSyntheticBurst is the longest burst whose synthetic application
// horizon fits in an int64.
const maxSyntheticBurst = math.MaxInt64 / 255

// lookupApp resolves an application spec against the paper's benchmark
// suite.
func lookupApp(spec appSpec) (*stbusgen.App, error) {
	seed := spec.Seed
	if seed == 0 {
		seed = 1
	}
	switch spec.App {
	case "mat1":
		return stbusgen.Mat1(seed), nil
	case "mat2":
		return stbusgen.Mat2(seed), nil
	case "fft":
		return stbusgen.FFT(seed), nil
	case "qsort":
		return stbusgen.QSort(seed), nil
	case "des":
		return stbusgen.DES(seed), nil
	case "synthetic":
		burst := spec.Burst
		if burst <= 0 {
			burst = 600
		}
		// Shorter bursts give core 0 an empty burst or a negative gap;
		// longer ones overflow the horizon, 255 bursts long.
		if burst < 6 || burst > maxSyntheticBurst {
			return nil, badRequest("burst: %d cycles outside [6, %d]", burst, maxSyntheticBurst)
		}
		return stbusgen.Synthetic(seed, burst), nil
	}
	return nil, badRequest("app: unknown %q (want mat1, mat2, fft, qsort, des or synthetic)", spec.App)
}

func contentType(r *http.Request) string {
	ct := r.Header.Get("Content-Type")
	for i := 0; i < len(ct); i++ {
		if ct[i] == ';' {
			return ct[:i]
		}
	}
	return ct
}

// designJSON is the wire form of one designed crossbar direction.
type designJSON struct {
	NumBuses      int   `json:"num_buses"`
	BusOf         []int `json:"bus_of"`
	MaxBusOverlap int64 `json:"max_bus_overlap"`
	Conflicts     int   `json:"conflicts"`
	SearchNodes   int64 `json:"search_nodes"`
	Capped        bool  `json:"capped,omitempty"`
}

func designWire(d *core.Design) *designJSON {
	if d == nil {
		return nil
	}
	return &designJSON{
		NumBuses:      d.NumBuses,
		BusOf:         d.BusOf,
		MaxBusOverlap: d.MaxBusOverlap,
		Conflicts:     d.Conflicts,
		SearchNodes:   d.SearchNodes,
		Capped:        d.Capped,
	}
}

// jobJSON is the wire form of one job's status — the body of
// /v1/jobs/{id}, of a synchronous /v1/design response, and of the
// terminal "result" SSE frame.
type jobJSON struct {
	Job    string `json:"job"`
	Status string `json:"status"`
	// Cached names the tier that served an exact content hit ("memory"
	// or "disk"); Warm reports a near-hit incumbent seeding the solve.
	Cached string `json:"cached,omitempty"`
	Warm   bool   `json:"warm,omitempty"`
	// QueueNS / ElapsedNS are the admission-to-start and start-to-finish
	// times of a finished job.
	QueueNS   int64 `json:"queue_ns,omitempty"`
	ElapsedNS int64 `json:"elapsed_ns,omitempty"`
	// Design is the crossbar of a trace job; Request/Response the two
	// directions of an application job.
	Design   *designJSON `json:"design,omitempty"`
	Request  *designJSON `json:"request,omitempty"`
	Response *designJSON `json:"response,omitempty"`
	Error    string      `json:"error,omitempty"`
	Reason   string      `json:"reason,omitempty"`
	// Events counts the flight-recorder events this job emitted; the
	// live stream is at EventsURL while the job runs.
	Events    int64  `json:"events"`
	EventsURL string `json:"events_url"`
}

// wire renders the job's current status. Caller must not hold j.mu.
func (j *job) wire() *jobJSON {
	j.mu.Lock()
	defer j.mu.Unlock()
	out := &jobJSON{
		Job:       j.id,
		Status:    j.state.String(),
		Events:    j.rec.Emitted(),
		EventsURL: "/v1/jobs/" + j.id + "/events",
	}
	if !j.started.IsZero() {
		out.QueueNS = j.started.Sub(j.created).Nanoseconds()
	}
	if !j.finished.IsZero() {
		out.ElapsedNS = j.finished.Sub(j.started).Nanoseconds()
	}
	if j.design != nil {
		out.Design = designWire(j.design)
	}
	if j.result != nil {
		out.Request = designWire(j.result.Pair.Req)
		out.Response = designWire(j.result.Pair.Resp)
	}
	if j.err != nil {
		out.Error = j.err.Error()
		out.Reason, _ = failureReason(j.err)
	}
	for _, e := range j.rec.Events() {
		switch e.Kind {
		case obs.EvCacheHit:
			out.Cached = e.Who
		case obs.EvCacheWarm:
			out.Warm = true
		}
	}
	return out
}

// writeJSON writes v as a JSON response with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // response already committed
}

// errorJSON is the uniform error body.
type errorJSON struct {
	Error  string `json:"error"`
	Reason string `json:"reason,omitempty"`
}

func writeError(w http.ResponseWriter, status int, reason, format string, args ...any) {
	writeJSON(w, status, errorJSON{Error: fmt.Sprintf(format, args...), Reason: reason})
}
