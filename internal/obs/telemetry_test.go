package obs

import (
	"bufio"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"
)

// TestServeTelemetryGracefulShutdown pins the shutdown contract: an SSE
// subscriber connected while the server shuts down sees its bye frame
// and a clean end of stream (io.EOF), never a connection reset. The old
// implementation called http.Server.Close, which hard-dropped the TCP
// connection under the still-running handler.
func TestServeTelemetryGracefulShutdown(t *testing.T) {
	bound, serveErr, shutdown, err := ServeTelemetry("127.0.0.1:0", NewFlightRecorder(0))
	if err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get("http://" + bound + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	type streamEnd struct {
		bye bool
		err error
	}
	endCh := make(chan streamEnd, 1)
	go func() {
		br := bufio.NewReader(resp.Body)
		var end streamEnd
		for {
			line, err := br.ReadString('\n')
			if strings.HasPrefix(line, "event: bye") {
				end.bye = true
			}
			if err != nil {
				if err != io.EOF {
					end.err = err
				}
				endCh <- end
				return
			}
		}
	}()

	// The response headers arrived, so the stream is open.
	if err := shutdown(); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	select {
	case end := <-endCh:
		if !end.bye {
			t.Error("stream ended without a bye frame")
		}
		if end.err != nil {
			t.Errorf("stream ended uncleanly: %v (want io.EOF)", end.err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("stream did not end after shutdown")
	}

	// The serve goroutine exited cleanly: the error channel is closed
	// and yields nil (ErrServerClosed is filtered).
	select {
	case err := <-serveErr:
		if err != nil {
			t.Errorf("serve error after clean shutdown: %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("serve-error channel not closed after shutdown")
	}
}

// TestFlightEventsSince pins the incremental read StreamEvents depends
// on: a cursor past the retained window yields
// nothing, a mid-window cursor yields exactly the tail, and ring
// overwrite shifts the effective start forward.
func TestFlightEventsSince(t *testing.T) {
	r := NewFlightRecorder(4)
	for i := 0; i < 6; i++ {
		r.Emit(Event{Kind: EvNodes, Val: int64(i)})
	}
	// Seqs 0..5 emitted; ring of 4 retains 2..5.
	if got := len(r.EventsSince(0)); got != 4 {
		t.Fatalf("EventsSince(0) = %d events, want 4", got)
	}
	tail := r.EventsSince(4)
	if len(tail) != 2 || tail[0].Seq != 4 || tail[1].Seq != 5 {
		t.Fatalf("EventsSince(4) = %+v, want seqs 4,5", tail)
	}
	if got := r.EventsSince(6); got != nil {
		t.Fatalf("EventsSince(6) = %+v, want nil", got)
	}
	var nilRec *FlightRecorder
	if got := nilRec.EventsSince(0); got != nil {
		t.Fatalf("nil recorder EventsSince = %+v, want nil", got)
	}
}

// TestServeTelemetrySlowHeaderClient pins the slow-client bound: a
// client that stalls partway through its request header is
// disconnected once the header timeout passes, and other clients are
// served meanwhile.
func TestServeTelemetrySlowHeaderClient(t *testing.T) {
	saved := telemetryReadHeaderTimeout
	telemetryReadHeaderTimeout = 200 * time.Millisecond
	defer func() { telemetryReadHeaderTimeout = saved }()

	bound, _, shutdown, err := ServeTelemetry("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := shutdown(); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}()

	conn, err := net.Dial("tcp", bound)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	start := time.Now()
	if _, err := io.WriteString(conn, "GET /metrics HTTP/1.1\r\nHost: telemetry\r\n"); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get("http://" + bound + "/metrics")
	if err != nil {
		t.Fatalf("metrics beside a stalled client: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics beside a stalled client: status %d", resp.StatusCode)
	}

	conn.SetReadDeadline(time.Now().Add(10 * time.Second)) //nolint:errcheck // a failed deadline shows as a hang below
	if _, err := io.ReadAll(conn); err != nil {
		t.Fatalf("stalled client was not disconnected: %v", err)
	}
	if d := time.Since(start); d < telemetryReadHeaderTimeout {
		t.Fatalf("stalled client disconnected after %s, before the %s header timeout", d, telemetryReadHeaderTimeout)
	}
}
