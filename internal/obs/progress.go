package obs

import (
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"strings"
	"time"
)

// LogProgress starts a goroutine that writes a one-line progress
// report to w every interval until the returned stop function is
// called. Each line shows elapsed wall time and every counter or gauge
// that changed since the previous line, with per-second rates for
// counters — enough to see where a multi-minute solve is spending its
// time without attaching any other tooling.
func LogProgress(w io.Writer, interval time.Duration) (stop func()) {
	if interval <= 0 {
		interval = 5 * time.Second
	}
	done := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		start := time.Now()
		prev := flatSnapshot()
		prevT := start
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case now := <-tick.C:
				cur := flatSnapshot()
				line := progressLine(time.Since(start), cur, prev, now.Sub(prevT))
				if line != "" {
					fmt.Fprintln(w, line)
				}
				prev, prevT = cur, now
			}
		}
	}()
	return func() {
		close(done)
		<-finished
	}
}

// flatSnapshot reduces Snapshot to scalar metrics: counters and gauges
// as-is, histograms as their sample count plus p50/p99 pseudo-metrics —
// so the progress line and the bus's metric deltas surface quantiles,
// not just throughput.
func flatSnapshot() map[string]int64 {
	out := map[string]int64{}
	for k, v := range Snapshot() {
		switch t := v.(type) {
		case int64:
			out[k] = t
		case HistogramSnapshot:
			out[k+".count"] = t.Count
			if t.Count > 0 {
				out[k+".p50"] = t.P50
				out[k+".p99"] = t.P99
			}
		}
	}
	return out
}

// progressLine formats one report: elapsed time, then every metric
// that changed since prev as name=value(+rate/s), sorted by name.
// Quantile pseudo-metrics (.p50/.p99) are levels, not counts, so they
// print without a rate.
func progressLine(elapsed time.Duration, cur, prev map[string]int64, dt time.Duration) string {
	keys := make([]string, 0, len(cur))
	for k, v := range cur {
		if v != prev[k] {
			keys = append(keys, k)
		}
	}
	if len(keys) == 0 {
		return ""
	}
	sort.Strings(keys)
	var b strings.Builder
	fmt.Fprintf(&b, "progress %7.1fs", elapsed.Seconds())
	secs := dt.Seconds()
	for _, k := range keys {
		delta := cur[k] - prev[k]
		quantile := strings.HasSuffix(k, ".p50") || strings.HasSuffix(k, ".p99")
		if secs > 0 && delta > 0 && !quantile {
			fmt.Fprintf(&b, "  %s=%d (+%.0f/s)", k, cur[k], float64(delta)/secs)
		} else {
			fmt.Fprintf(&b, "  %s=%d", k, cur[k])
		}
	}
	return b.String()
}

// TelemetryConfig tunes ServeTelemetry beyond the always-on endpoints.
type TelemetryConfig struct {
	// Bus, when non-nil, is mounted at /events as a Server-Sent Events
	// stream and fed metric-delta frames by a pump goroutine. Attach the
	// same bus to a FlightRecorder to interleave live solver events.
	Bus *Bus
	// MetricsInterval is the pump's metric-delta publish period
	// (0 means one second). Ignored without a Bus.
	MetricsInterval time.Duration
	// ShutdownTimeout bounds how long the shutdown function waits for
	// in-flight requests (mid-scrape /metrics readers, SSE streams
	// writing their bye frame) before hard-closing the server
	// (0 means DefaultShutdownTimeout).
	ShutdownTimeout time.Duration
}

// DefaultShutdownTimeout is the graceful-drain budget of the telemetry
// server's shutdown function: generous against a slow scrape, short
// enough that a wedged client cannot stall process exit noticeably.
const DefaultShutdownTimeout = 5 * time.Second

// Slow-client bounds of the telemetry server, fixed rather than
// configurable: a client has telemetryReadHeaderTimeout to send its
// request header, and a keep-alive connection idle for
// telemetryIdleTimeout is closed. /events streams are long by design,
// so reads and writes past the header are left unbounded. Variables
// only so a test can shorten them.
var (
	telemetryReadHeaderTimeout = 10 * time.Second
	telemetryIdleTimeout       = 2 * time.Minute
)

// ServeTelemetry exposes the telemetry surface over HTTP on addr
// ("host:port"; ":0" picks a free port):
//
//	/debug/vars  expvar JSON (includes the "stbusgen" registry snapshot)
//	/progress    indented JSON snapshot of the metrics registry
//	/metrics     Prometheus text exposition with full histogram buckets
//	/events      live SSE stream (requires a TelemetryConfig.Bus; 503 otherwise)
//
// It returns the bound address, a channel on which a failed
// http.Server.Serve surfaces its error (closed when the serve loop
// ends; ErrServerClosed is filtered out, so a receive yields nil on any
// clean shutdown — long-running daemons select on it in their run
// loop), and a shutdown function.
//
// Shutdown is graceful: the metrics pump stops, the bus closes (every
// SSE subscriber receives its bye frame), then the server drains
// in-flight requests for TelemetryConfig.ShutdownTimeout before falling
// back to a hard Close — a subscriber connected at shutdown sees a
// clean end of stream, never a reset.
func ServeTelemetry(addr string, cfg TelemetryConfig) (bound string, serveErr <-chan error, shutdown func() error, err error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, nil, fmt.Errorf("obs: metrics listener: %w", err)
	}
	mux := http.NewServeMux()
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/progress", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(Snapshot()) //nolint:errcheck // best-effort diagnostics endpoint
	})
	mux.Handle("/metrics", PrometheusHandler())
	if cfg.Bus != nil {
		mux.Handle("/events", cfg.Bus)
	} else {
		mux.HandleFunc("/events", func(w http.ResponseWriter, _ *http.Request) {
			http.Error(w, "no event bus attached (start with -metrics-addr via internal/cli)", http.StatusServiceUnavailable)
		})
	}
	srv := &http.Server{Handler: mux, ReadHeaderTimeout: telemetryReadHeaderTimeout, IdleTimeout: telemetryIdleTimeout}
	errCh := make(chan error, 1)
	go func() {
		if e := srv.Serve(ln); e != nil && !errors.Is(e, http.ErrServerClosed) {
			errCh <- fmt.Errorf("obs: telemetry serve: %w", e)
		}
		close(errCh)
	}()

	stopPump := func() {}
	if cfg.Bus != nil {
		stopPump = startMetricsPump(cfg.Bus, cfg.MetricsInterval)
	}
	deadline := cfg.ShutdownTimeout
	if deadline <= 0 {
		deadline = DefaultShutdownTimeout
	}
	return ln.Addr().String(), errCh, func() error {
		stopPump()
		if cfg.Bus != nil {
			// Closing the bus first lets every SSE handler write its bye
			// frame and return before the server starts counting idle
			// connections, so Shutdown below drains instead of racing.
			cfg.Bus.Close()
		}
		sctx, cancel := context.WithTimeout(context.Background(), deadline)
		defer cancel()
		var errs []error
		if e := srv.Shutdown(sctx); e != nil {
			errs = append(errs, fmt.Errorf("obs: telemetry shutdown: %w", e))
			srv.Close() //nolint:errcheck // hard fallback past the drain deadline
		}
		// The serve goroutine has exited by now (Shutdown/Close closed
		// the listener); surface any error it hit, nil on clean close.
		errs = append(errs, <-errCh)
		return errors.Join(errs...)
	}, nil
}

// startMetricsPump publishes the changed flat metrics as "metrics"
// frames on the bus every interval, so SSE subscribers see live rates
// without polling /progress. Returns a stop function.
func startMetricsPump(bus *Bus, interval time.Duration) (stop func()) {
	if interval <= 0 {
		interval = time.Second
	}
	done := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		prev := flatSnapshot()
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				cur := flatSnapshot()
				changed := map[string]int64{}
				for k, v := range cur {
					if v != prev[k] {
						changed[k] = v
					}
				}
				prev = cur
				if len(changed) == 0 {
					continue
				}
				data, err := json.Marshal(changed)
				if err != nil {
					continue // unreachable: map[string]int64 marshals cleanly
				}
				bus.Publish("metrics", data)
			}
		}
	}()
	return func() {
		close(done)
		<-finished
	}
}
