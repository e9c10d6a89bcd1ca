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

func TestBusFanOutConcurrentPublishers(t *testing.T) {
	b := NewBus()
	const subs = 3
	const publishers, perPublisher = 4, 500
	var received [subs]int
	var wg sync.WaitGroup
	for i := 0; i < subs; i++ {
		s := b.Subscribe(publishers*perPublisher + 1)
		wg.Add(1)
		go func(i int, s *BusSub) {
			defer wg.Done()
			for {
				select {
				case <-s.ch:
					received[i]++
				case <-s.done:
					// Drain what the close raced past.
					for {
						select {
						case <-s.ch:
							received[i]++
						default:
							return
						}
					}
				}
			}
		}(i, s)
	}
	var pwg sync.WaitGroup
	for p := 0; p < publishers; p++ {
		pwg.Add(1)
		go func() {
			defer pwg.Done()
			for i := 0; i < perPublisher; i++ {
				b.Publish("flight", []byte(`{}`))
			}
		}()
	}
	pwg.Wait()
	b.Close()
	wg.Wait()
	for i, got := range received {
		if got != publishers*perPublisher {
			t.Errorf("subscriber %d received %d frames, want %d (buffer was large enough for all)",
				i, got, publishers*perPublisher)
		}
	}
	if b.Subscribers() != 0 {
		t.Errorf("closed bus reports %d subscribers", b.Subscribers())
	}
}

func TestBusSlowSubscriberDropsNotBlocks(t *testing.T) {
	b := NewBus()
	slow := b.Subscribe(2) // tiny buffer, never drained
	fast := b.Subscribe(64)
	const frames = 32
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < frames; i++ {
			b.Publish("metrics", []byte(`{}`))
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("publisher blocked on a slow subscriber")
	}
	if got := slow.Dropped(); got != frames-2 {
		t.Errorf("slow subscriber dropped %d frames, want %d", got, frames-2)
	}
	if fast.Dropped() != 0 {
		t.Errorf("fast subscriber dropped %d frames, want 0", fast.Dropped())
	}
	if len(fast.ch) != frames {
		t.Errorf("fast subscriber buffered %d frames, want %d", len(fast.ch), frames)
	}
	b.Unsubscribe(slow)
	b.Unsubscribe(fast)
	b.Publish("metrics", []byte(`{}`)) // no subscribers: must not panic
	// Subscribing after Close yields an already-terminated subscription.
	b.Close()
	dead := b.Subscribe(0)
	select {
	case <-dead.done:
	default:
		t.Error("subscription to a closed bus is not terminated")
	}
}

// readSSEEvent reads one "event:"/"data:" frame, skipping comments.
func readSSEEvent(t *testing.T, r *bufio.Reader) (name, data string) {
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

func TestBusSSEStream(t *testing.T) {
	b := NewBus()
	srv := httptest.NewServer(b)
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
	// Wait for the subscription before publishing, or the frame races
	// the handler's Subscribe.
	deadline := time.Now().Add(5 * time.Second)
	for b.Subscribers() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("SSE handler never subscribed")
		}
		time.Sleep(time.Millisecond)
	}

	br := bufio.NewReader(resp.Body)
	b.PublishEvent(Event{Seq: 7, Kind: EvIncumbent, K: 3, Val: 42, Who: "bb"})
	name, data := readSSEEvent(t, br)
	if name != "flight" {
		t.Fatalf("event name = %q, want flight", name)
	}
	for _, want := range []string{`"kind":"incumbent"`, `"val":42`, `"who":"bb"`} {
		if !strings.Contains(data, want) {
			t.Errorf("flight frame %q missing %s", data, want)
		}
	}

	// Cancel the request: the handler must unwind and unsubscribe —
	// the no-goroutine-leak property observable from outside.
	cancel()
	deadline = time.Now().Add(5 * time.Second)
	for b.Subscribers() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("handler leaked its subscription after client cancel")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestBusSSECloseSendsBye(t *testing.T) {
	b := NewBus()
	srv := httptest.NewServer(b)
	defer srv.Close()
	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	deadline := time.Now().Add(5 * time.Second)
	for b.Subscribers() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("SSE handler never subscribed")
		}
		time.Sleep(time.Millisecond)
	}
	b.Close()
	name, _ := readSSEEvent(t, bufio.NewReader(resp.Body))
	if name != "bye" {
		t.Fatalf("closing the bus sent %q, want bye", name)
	}
}

// TestBusSSEDroppedEventReported pins the backpressure surface: when the
// bus discards frames for a subscriber, the next delivered frame is
// preceded by a "dropped" event carrying the cumulative count.
func TestBusSSEDroppedEventReported(t *testing.T) {
	b := NewBus()
	// Drive ServeHTTP directly with a pipe-backed writer so the handler
	// can be stalled deterministically: no reads happen until the
	// publisher has overrun the subscription buffer.
	pr, pw := newBlockingRecorder()
	req := httptest.NewRequest(http.MethodGet, "/events", nil)
	handlerDone := make(chan struct{})
	go func() {
		defer close(handlerDone)
		b.ServeHTTP(pw, req)
	}()
	// The handler subscribes before its first write, and the recorder
	// holds that write until the test reads. Once the recorder reports
	// the handler blocked there, no frame can drain from the
	// subscription while the publisher overruns its buffer.
	select {
	case <-pw.blocked:
	case <-time.After(5 * time.Second):
		t.Fatal("SSE handler never wrote its stream preamble")
	}
	var sub *BusSub
	b.mu.RLock()
	for s := range b.subs {
		sub = s
	}
	b.mu.RUnlock()
	for i := 0; i < 2*DefaultSubBuffer; i++ {
		b.Publish("metrics", []byte(`{"x":1}`))
	}
	if sub.Dropped() == 0 {
		t.Fatal("overrun never dropped a frame")
	}
	// Unblock the handler by reading: the first event frame delivered
	// must be the backpressure report.
	br := bufio.NewReader(pr)
	name, data := readSSEEvent(t, br)
	if name != "dropped" {
		t.Fatalf("first event after an overrun = %q, want dropped", name)
	}
	if !strings.Contains(data, `"dropped":`) {
		t.Errorf("dropped frame payload = %q", data)
	}
	b.Close()
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
