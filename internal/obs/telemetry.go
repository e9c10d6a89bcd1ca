package obs

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"time"
)

// telemetryShutdownTimeout is the graceful-drain budget of the
// telemetry server's shutdown function: generous against a slow scrape,
// short enough that a wedged client cannot stall process exit
// noticeably.
const telemetryShutdownTimeout = 5 * time.Second

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
//	/metrics  Prometheus text exposition with full histogram buckets
//	/events   SSE stream of rec (StreamEvents; 503 when rec is nil)
//
// It returns the bound address, a channel on which a failed
// http.Server.Serve surfaces its error (closed when the serve loop
// ends; ErrServerClosed is filtered out, so a receive yields nil on any
// clean shutdown — long-running daemons select on it in their run
// loop), and a shutdown function.
//
// Shutdown is graceful: every /events stream drains the ring and
// receives its bye frame, then the server drains in-flight requests for
// up to five seconds before falling back to a hard Close — a
// subscriber connected at shutdown sees a clean end of stream, never a
// reset.
func ServeTelemetry(addr string, rec *FlightRecorder) (bound string, serveErr <-chan error, shutdown func() error, err error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, nil, fmt.Errorf("obs: metrics listener: %w", err)
	}
	closing := make(chan struct{})
	mux := http.NewServeMux()
	mux.Handle("/metrics", PrometheusHandler())
	mux.HandleFunc("/events", func(w http.ResponseWriter, r *http.Request) {
		if rec == nil {
			http.Error(w, "no flight recorder attached (start with -metrics-addr via internal/cli)", http.StatusServiceUnavailable)
			return
		}
		StreamEvents(w, r, rec, closing, nil)
	})
	srv := &http.Server{Handler: mux, ReadHeaderTimeout: telemetryReadHeaderTimeout, IdleTimeout: telemetryIdleTimeout}
	errCh := make(chan error, 1)
	go func() {
		if e := srv.Serve(ln); e != nil && !errors.Is(e, http.ErrServerClosed) {
			errCh <- fmt.Errorf("obs: telemetry serve: %w", e)
		}
		close(errCh)
	}()

	return ln.Addr().String(), errCh, func() error {
		// Ending the streams first lets every SSE handler write its bye
		// frame and return before the server starts counting idle
		// connections, so Shutdown below drains instead of racing.
		close(closing)
		sctx, cancel := context.WithTimeout(context.Background(), telemetryShutdownTimeout)
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

// sseHeartbeat is the idle keepalive period of StreamEvents: a comment
// frame per period keeps proxies and idle-timeout middleboxes from
// killing a quiet stream.
const sseHeartbeat = 15 * time.Second

// StreamEvents serves rec to one client as Server-Sent Events — the
// one implementation behind both /events and the daemon's
// /v1/jobs/{id}/events. It replays every event the ring still holds,
// then streams new ones as they are emitted, reading with a Seq cursor
// so no event is sent twice or skipped. Each event is a "flight" frame
// carrying the NDJSON wire form of the event. When the ring has
// overwritten events the client had not been sent yet, a "dropped"
// frame with their count ({"dropped":n}) precedes the next flight
// frame.
//
// The stream is woken by the recorder itself (a non-blocking signal per
// Emit, coalesced while the stream is busy), so a slow client costs
// only itself: Emit never waits for it. The stream ends when the client
// disconnects, or when done closes: the ring is drained, result (when
// non-nil) is sent as a "result" frame of its JSON, and a "bye" frame
// closes the stream.
func StreamEvents(w http.ResponseWriter, r *http.Request, rec *FlightRecorder, done <-chan struct{}, result func() any) {
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	// Watch before the first drain: an event emitted between the drain
	// and the watch would otherwise wait for the next wakeup.
	wake, unwatch := rec.watch()
	defer unwatch()
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	fmt.Fprint(w, ": stream open\n\n")

	var cursor int64
	drain := func() {
		for _, e := range rec.EventsSince(cursor) {
			if e.Seq > cursor {
				fmt.Fprintf(w, "event: dropped\ndata: {\"dropped\":%d}\n\n", e.Seq-cursor)
			}
			cursor = e.Seq + 1
			fmt.Fprintf(w, "event: flight\ndata: %s\n\n", e.wireJSON())
		}
		fl.Flush()
	}
	drain()

	heartbeat := time.NewTicker(sseHeartbeat)
	defer heartbeat.Stop()
	for {
		select {
		case <-r.Context().Done():
			return
		case <-done:
			drain()
			if result != nil {
				if data, err := json.Marshal(result()); err == nil {
					fmt.Fprintf(w, "event: result\ndata: %s\n\n", data)
				}
			}
			fmt.Fprint(w, "event: bye\ndata: {}\n\n")
			fl.Flush()
			return
		case <-wake:
			drain()
		case <-heartbeat.C:
			fmt.Fprint(w, ": keepalive\n\n")
			fl.Flush()
		}
	}
}
