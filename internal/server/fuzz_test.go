package server

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"net/http"
	"net/url"
	"os"
	"testing"

	"repro/internal/benchprobs"
	"repro/internal/trace"
)

// FuzzDesignRequest feeds decodeDesignRequest arbitrary bodies, content
// types and raw query strings. Every input must decode or fail with an
// *httpError carrying a 4xx status, never a panic or a 5xx, and once
// the request is cleaned up no spooled body may be left behind. The
// spool threshold is 256 bytes, so the 982-byte seed trace and
// its 300-byte prefix take the spool path.
func FuzzDesignRequest(f *testing.F) {
	var small bytes.Buffer
	if err := trace.WriteBinary(&small, benchprobs.TraceN(4)); err != nil {
		f.Fatal(err)
	}
	f.Add(small.Bytes(), "application/octet-stream", "window=100")
	f.Add(small.Bytes()[:300], "application/x-stbus-trace", "shards=2")
	empty := append([]byte("STBT"), make([]byte, 28)...)
	binary.LittleEndian.PutUint32(empty[4:], 1)
	binary.LittleEndian.PutUint32(empty[8:], 2)
	binary.LittleEndian.PutUint32(empty[12:], 1)
	binary.LittleEndian.PutUint64(empty[16:], 32)
	f.Add(empty, "application/octet-stream", "window=8&async=true")
	f.Add(small.Bytes(), "", "window=1&threshold=0.5&mode=first-feasible")
	f.Add([]byte(`{"app":"mat1"}`), "application/json", "audit=true&max_nodes=1000")
	f.Add([]byte(`{"app":"synthetic","burst":2000}`), "application/json; charset=utf-8", "")
	f.Add([]byte(`{"num_receivers":2,"num_senders":1,"horizon":32,"events":[]}`), "application/json", "window=8")
	f.Add([]byte("not a trace"), "text/csv", "timeout=-1s")

	cfg := testConfig()
	cfg.SpoolThreshold = 256
	cfg.SpoolDir = f.TempDir()
	s := New(context.Background(), cfg)
	f.Cleanup(s.Close)

	f.Fuzz(func(t *testing.T, body []byte, ct, query string) {
		r := &http.Request{
			Method: http.MethodPost,
			URL:    &url.URL{Path: "/v1/design", RawQuery: query},
			Header: http.Header{"Content-Type": {ct}},
			Body:   io.NopCloser(bytes.NewReader(body)),
		}
		req, err := s.decodeDesignRequest(r)
		if err != nil {
			var he *httpError
			if !errors.As(err, &he) || he.status < 400 || he.status >= 500 {
				t.Fatalf("decode failed with %v (%T), want an *httpError with a 4xx status", err, err)
			}
		} else {
			req.cleanup()
		}
		left, err := os.ReadDir(cfg.SpoolDir)
		if err != nil {
			t.Fatal(err)
		}
		if len(left) != 0 {
			t.Fatalf("%d spooled files left after cleanup, first %s", len(left), left[0].Name())
		}
	})
}
