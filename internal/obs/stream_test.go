package obs

import (
	"bufio"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// readFrame reads one "event:"/"data:" frame, skipping comments.
func readFrame(t *testing.T, r *bufio.Reader) (name, data string) {
	t.Helper()
	for {
		line, err := r.ReadString('\n')
		if err != nil {
			t.Fatalf("SSE stream read: %v", err)
		}
		line = strings.TrimRight(line, "\n")
		switch {
		case strings.HasPrefix(line, "event: "):
			name = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data = strings.TrimPrefix(line, "data: ")
		case line == "" && name != "":
			return name, data
		}
	}
}

// wantFlight reads one frame and checks it is the flight event seq.
func wantFlight(t *testing.T, r *bufio.Reader, seq int64) {
	t.Helper()
	name, data := readFrame(t, r)
	if name != "flight" || !strings.Contains(data, fmt.Sprintf(`"seq":%d,`, seq)) {
		t.Fatalf("frame = %s %s, want flight seq %d", name, data, seq)
	}
}

// streamServer serves rec through StreamEvents on a test listener.
func streamServer(rec *FlightRecorder, done <-chan struct{}, result func() any) *httptest.Server {
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		StreamEvents(w, r, rec, done, result)
	}))
}

func watchers(rec *FlightRecorder) int {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	return len(rec.watchers)
}

// TestStreamEventsReplayThenLive pins the stream contract: events
// emitted before the client connected are replayed in order, later
// events follow live, and a client that disconnects detaches its
// stream from the recorder.
func TestStreamEventsReplayThenLive(t *testing.T) {
	rec := NewFlightRecorder(0)
	for i := 0; i < 3; i++ {
		rec.Emit(Event{Kind: EvNodes, Val: int64(i), Who: "bb"})
	}
	srv := streamServer(rec, nil, nil)
	defer srv.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, srv.URL, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type = %q, want text/event-stream", ct)
	}
	br := bufio.NewReader(resp.Body)
	for seq := int64(0); seq < 3; seq++ {
		wantFlight(t, br, seq)
	}
	rec.Emit(Event{Kind: EvIncumbent, K: 3, Val: 42, Who: "bb"})
	name, data := readFrame(t, br)
	if name != "flight" {
		t.Fatalf("live frame name = %q, want flight", name)
	}
	for _, want := range []string{`"seq":3`, `"kind":"incumbent"`, `"val":42`, `"who":"bb"`} {
		if !strings.Contains(data, want) {
			t.Errorf("live frame %q missing %s", data, want)
		}
	}

	cancel()
	deadline := time.Now().Add(5 * time.Second)
	for watchers(rec) != 0 {
		if time.Now().After(deadline) {
			t.Fatal("stream stayed attached after the client left")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestStreamEventsDoneSendsBye pins the end of a stream: closing done
// drains the ring, sends the result frame, then bye.
func TestStreamEventsDoneSendsBye(t *testing.T) {
	rec := NewFlightRecorder(0)
	done := make(chan struct{})
	srv := streamServer(rec, done, func() any { return map[string]string{"status": "done"} })
	defer srv.Close()
	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	rec.Emit(Event{Kind: EvDesignDone, K: 3})
	close(done)
	br := bufio.NewReader(resp.Body)
	wantFlight(t, br, 0)
	if name, data := readFrame(t, br); name != "result" || data != `{"status":"done"}` {
		t.Fatalf("frame after the journal = %s %s, want the result", name, data)
	}
	if name, _ := readFrame(t, br); name != "bye" {
		t.Fatalf("last frame = %q, want bye", name)
	}
}

// TestStreamEventsOverrunReportsDropped pins the overrun report
// deterministically: a ring of 4 holding the last 4 of 10 events tells a
// client connecting afterwards that 6 were lost, then sends seqs 6-9.
func TestStreamEventsOverrunReportsDropped(t *testing.T) {
	rec := NewFlightRecorder(4)
	for i := 0; i < 10; i++ {
		rec.Emit(Event{Kind: EvNodes, Val: int64(i)})
	}
	bound, _, shutdown, err := ServeTelemetry("127.0.0.1:0", rec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + bound + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	br := bufio.NewReader(resp.Body)
	if name, data := readFrame(t, br); name != "dropped" || data != `{"dropped":6}` {
		t.Fatalf("first frame = %s %s, want dropped {\"dropped\":6}", name, data)
	}
	for seq := int64(6); seq < 10; seq++ {
		wantFlight(t, br, seq)
	}
	if err := shutdown(); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if name, _ := readFrame(t, br); name != "bye" {
		t.Fatalf("frame after shutdown = %q, want bye", name)
	}
}

// TestStreamEventsConcurrentEmitters streams concurrent emitters to two
// clients: with a ring large enough for every event, both see every
// sequence number exactly once, in order, and no dropped frame.
func TestStreamEventsConcurrentEmitters(t *testing.T) {
	const emitters, perEmitter = 4, 500
	rec := NewFlightRecorder(emitters * perEmitter)
	done := make(chan struct{})
	srv := streamServer(rec, done, nil)
	defer srv.Close()

	var clients [2]*bufio.Reader
	for i := range clients {
		resp, err := http.Get(srv.URL)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		clients[i] = bufio.NewReader(resp.Body)
	}
	var wg sync.WaitGroup
	for e := 0; e < emitters; e++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perEmitter; i++ {
				rec.Emit(Event{Kind: EvNodes, Val: 1})
			}
		}()
	}
	wg.Wait()
	close(done)

	for i, br := range clients {
		for seq := int64(0); seq < emitters*perEmitter; seq++ {
			name, data := readFrame(t, br)
			if name != "flight" || !strings.Contains(data, fmt.Sprintf(`"seq":%d,`, seq)) {
				t.Fatalf("client %d: frame = %s %s, want flight seq %d", i, name, data, seq)
			}
		}
		if name, _ := readFrame(t, br); name != "bye" {
			t.Fatalf("client %d: frame after the journal = %q, want bye", i, name)
		}
	}
}

// stalledStream runs StreamEvents against a writer that blocks on the
// stream's first write (its preamble) until the test reads: the
// deterministic stand-in for a stalled TCP client. It returns once the
// stream is attached to rec and stalled.
func stalledStream(t *testing.T, rec *FlightRecorder, done <-chan struct{}) (*pipeReader, <-chan struct{}) {
	t.Helper()
	pr, pw := newBlockingRecorder()
	req := httptest.NewRequest(http.MethodGet, "/events", nil)
	handlerDone := make(chan struct{})
	go func() {
		defer close(handlerDone)
		StreamEvents(pw, req, rec, done, nil)
	}()
	select {
	case <-pw.blocked:
	case <-time.After(5 * time.Second):
		t.Fatal("stream never wrote its preamble")
	}
	return pr, handlerDone
}

// TestStreamEventsStalledClientNeverBlocksEmit pins the backpressure
// contract: a stalled client never slows Emit. The ring overruns under
// it, and once the client reads again it is told exactly how many
// events it lost before the ones the ring still holds.
func TestStreamEventsStalledClientNeverBlocksEmit(t *testing.T) {
	rec := NewFlightRecorder(8)
	done := make(chan struct{})
	pr, handlerDone := stalledStream(t, rec, done)
	emitted := make(chan struct{})
	go func() {
		defer close(emitted)
		for i := 0; i < 100; i++ {
			rec.Emit(Event{Kind: EvNodes, Val: int64(i)})
		}
	}()
	select {
	case <-emitted:
	case <-time.After(5 * time.Second):
		t.Fatal("Emit blocked on a stalled stream")
	}
	close(done)

	br := bufio.NewReader(pr)
	if name, data := readFrame(t, br); name != "dropped" || data != `{"dropped":92}` {
		t.Fatalf("first frame after the stall = %s %s, want dropped {\"dropped\":92}", name, data)
	}
	for seq := int64(92); seq < 100; seq++ {
		wantFlight(t, br, seq)
	}
	if name, _ := readFrame(t, br); name != "bye" {
		t.Fatalf("last frame = %q, want bye", name)
	}
	pr.CloseRead()
	<-handlerDone
}

// TestFlightEmitAllocationFreeWithStream pins that streaming costs the
// emitter nothing: with a stream attached, Emit still allocates zero
// bytes (the stream renders its frames on its own goroutine).
func TestFlightEmitAllocationFreeWithStream(t *testing.T) {
	rec := NewFlightRecorder(0)
	done := make(chan struct{})
	pr, handlerDone := stalledStream(t, rec, done)
	if n := testing.AllocsPerRun(1000, func() {
		rec.Emit(Event{Kind: EvIncumbent, K: 3, Val: 42, Who: "bb"})
	}); n != 0 {
		t.Errorf("Emit with a stream attached allocates %.1f per op, want 0", n)
	}
	close(done)
	pr.CloseRead()
	<-handlerDone
}

// blockingRecorder is an http.ResponseWriter + Flusher whose Write
// blocks until a reader drains it, so a test controls exactly when the
// handler's writes complete — the deterministic stand-in for a stalled
// TCP client. blocked is closed when the first Write starts waiting.
type blockingRecorder struct {
	w           *pipeWriter
	header      http.Header
	blocked     chan struct{}
	blockedOnce sync.Once
}

type pipeWriter struct {
	mu     sync.Mutex
	buf    []byte
	cond   *sync.Cond
	closed bool
}

func newBlockingRecorder() (*pipeReader, *blockingRecorder) {
	pw := &pipeWriter{}
	pw.cond = sync.NewCond(&pw.mu)
	return &pipeReader{pw: pw}, &blockingRecorder{w: pw, header: http.Header{}, blocked: make(chan struct{})}
}

func (r *blockingRecorder) Header() http.Header { return r.header }
func (r *blockingRecorder) WriteHeader(int)     {}
func (r *blockingRecorder) Flush()              {}
func (r *blockingRecorder) Write(p []byte) (int, error) {
	r.w.mu.Lock()
	defer r.w.mu.Unlock()
	if r.w.closed {
		return 0, fmt.Errorf("recorder closed")
	}
	r.w.buf = append(r.w.buf, p...)
	r.w.cond.Broadcast()
	// The lock is held until Wait, so the reader cannot drain this
	// write before blocked is closed: the writer is stalled from here.
	r.blockedOnce.Do(func() { close(r.blocked) })
	for len(r.w.buf) > 0 && !r.w.closed {
		r.w.cond.Wait()
	}
	if len(r.w.buf) > 0 {
		return 0, fmt.Errorf("recorder closed")
	}
	return len(p), nil
}

type pipeReader struct{ pw *pipeWriter }

func (r *pipeReader) Read(p []byte) (int, error) {
	r.pw.mu.Lock()
	defer r.pw.mu.Unlock()
	for len(r.pw.buf) == 0 && !r.pw.closed {
		r.pw.cond.Wait()
	}
	if len(r.pw.buf) == 0 {
		return 0, fmt.Errorf("recorder closed")
	}
	n := copy(p, r.pw.buf)
	r.pw.buf = r.pw.buf[n:]
	if len(r.pw.buf) == 0 {
		r.pw.cond.Broadcast() // wake writers waiting for the drain
	}
	return n, nil
}

func (r *pipeReader) CloseRead() {
	r.pw.mu.Lock()
	r.pw.closed = true
	r.pw.cond.Broadcast()
	r.pw.mu.Unlock()
}
