package server

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"time"
)

// Slow-client bounds of the daemon's HTTP server, fixed rather than
// configurable: a client has readHeaderTimeout to send its request
// header and bodyReadTimeout to send a POST /v1/design body (set per
// route by handleDesign; 64 MiB in two minutes is ~0.5 MB/s), and a
// keep-alive connection idle for idleTimeout is closed, so stalled
// clients cannot pin connections and goroutines forever. SSE streams
// are long by design, so there is no server-wide read or write
// timeout. Variables only so a test can shorten them.
var (
	readHeaderTimeout = 10 * time.Second
	bodyReadTimeout   = 2 * time.Minute
	idleTimeout       = 2 * time.Minute
)

// Run is the daemon lifecycle: listen, serve, and on ctx cancellation
// (SIGTERM/SIGINT via internal/cli, or a test canceling) drain
// gracefully — stop admitting, let in-flight jobs finish within
// Config.DrainTimeout, cancel stragglers, then shut the listener down.
// Serve errors are never discarded: a listener that dies mid-run
// surfaces as Run's return value immediately.
//
// OnListen, when non-nil, receives the bound address once the listener
// is up (tests bind ":0" and need the port; stbusd logs it).
func Run(ctx context.Context, cfg Config, onListen func(net.Addr)) error {
	s := New(ctx, cfg)
	defer s.Close()

	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return fmt.Errorf("server: listen %s: %w", s.cfg.Addr, err)
	}
	if onListen != nil {
		onListen(ln.Addr())
	}
	s.logf("listening on %s (jobs %d, queue %d)", ln.Addr(), s.cfg.Concurrency, s.cfg.QueueDepth)

	hs := &http.Server{Handler: s.Handler(), ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
	serveErr := make(chan error, 1)
	go func() {
		if e := hs.Serve(ln); e != nil && !errors.Is(e, http.ErrServerClosed) {
			serveErr <- fmt.Errorf("server: serve: %w", e)
		}
		close(serveErr)
	}()

	select {
	case err := <-serveErr:
		// The listener died under us — nothing to drain into; cancel
		// whatever is in flight and report.
		s.baseCancel(errors.New("server: listener failed"))
		if err == nil {
			err = errors.New("server: serve loop exited unexpectedly")
		}
		return err
	case <-ctx.Done():
	}

	// Graceful drain: jobs first (admission already stopped), then the
	// HTTP layer — by then handlers are only waiting on finished jobs
	// or streaming terminal frames, so Shutdown returns quickly.
	dctx, cancel := context.WithTimeout(context.Background(), s.cfg.DrainTimeout)
	defer cancel()
	s.Drain(dctx)

	sctx, scancel := context.WithTimeout(context.Background(), s.cfg.DrainTimeout)
	defer scancel()
	var errs []error
	if e := hs.Shutdown(sctx); e != nil {
		errs = append(errs, fmt.Errorf("server: shutdown: %w", e))
		hs.Close() //nolint:errcheck // hard fallback past the drain deadline
	}
	errs = append(errs, <-serveErr)
	s.logf("shutdown complete")
	return errors.Join(errs...)
}

// waitHealthy polls /healthz until the daemon answers or the timeout
// passes — a convenience for smoke tests and scripts.
func waitHealthy(base string, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		resp, err := http.Get(base + "/healthz")
		if err == nil {
			resp.Body.Close()
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("server: not healthy after %s: %w", timeout, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
