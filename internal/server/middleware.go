package server

import (
	"net/http"
	"runtime/debug"
	"time"
)

// statusWriter observes the response status for the request log while
// passing the Flusher capability through — the SSE stream needs it.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(p)
}

func (w *statusWriter) Flush() {
	if fl, ok := w.ResponseWriter.(http.Flusher); ok {
		fl.Flush()
	}
}

// Unwrap lets http.ResponseController reach the connection (the design
// route sets a body read deadline through it).
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// withLogging logs one line per request: method, path, status, wall
// time. A nil logf short-circuits to the bare handler.
func withLogging(logf func(string, ...any), next http.Handler) http.Handler {
	if logf == nil {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w}
		start := time.Now()
		next.ServeHTTP(sw, r)
		status := sw.status
		if status == 0 {
			status = http.StatusOK
		}
		logf("%s %s %d %s", r.Method, r.URL.Path, status, time.Since(start))
	})
}

// withRecovery converts a handler panic into a 500 instead of killing
// the connection (and, under http.Server, only that request): a bad
// request must never take the daemon down.
func withRecovery(logf func(string, ...any), next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if rec := recover(); rec != nil {
				if logf != nil {
					logf("panic serving %s %s: %v\n%s", r.Method, r.URL.Path, rec, debug.Stack())
				}
				// The header may already be out; this is best-effort.
				writeError(w, http.StatusInternalServerError, "internal", "internal error")
			}
		}()
		next.ServeHTTP(w, r)
	})
}
