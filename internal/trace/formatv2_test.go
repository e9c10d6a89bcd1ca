package trace

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// encodeTraceV2 serializes tr in the v2 columnar format.
func encodeTraceV2(t *testing.T, tr *Trace) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteBinaryV2(&buf, tr); err != nil {
		t.Fatalf("WriteBinaryV2: %v", err)
	}
	return buf.Bytes()
}

func TestV2RoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 8; trial++ {
		tr := randomSweepTrace(rng, 1+rng.Intn(32), 1+rng.Intn(300), int64(50+rng.Intn(5000)))
		got, err := ReadBinary(bytes.NewReader(encodeTraceV2(t, tr)))
		if err != nil {
			t.Fatalf("trial %d: ReadBinary(v2): %v", trial, err)
		}
		// v2 stores events start-sorted; the logical trace is identical.
		if want := sortedCopy(tr); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: v2 round trip altered the trace", trial)
		}
	}
}

func TestV2RoundTripEmpty(t *testing.T) {
	tr := &Trace{NumReceivers: 3, NumSenders: 2, Horizon: 100}
	got, err := ReadBinary(bytes.NewReader(encodeTraceV2(t, tr)))
	if err != nil {
		t.Fatalf("ReadBinary(empty v2): %v", err)
	}
	if got.NumReceivers != 3 || got.NumSenders != 2 || got.Horizon != 100 || len(got.Events) != 0 {
		t.Fatalf("empty v2 round trip: got %+v", got)
	}
}

// TestV2MultiBlock forces multiple blocks and checks the block
// boundary is invisible to readers.
func TestV2MultiBlock(t *testing.T) {
	n := v2BlockMaxEvents + 500
	tr := &Trace{NumReceivers: 4, NumSenders: 2, Horizon: int64(4 * n)}
	for k := 0; k < n; k++ {
		tr.Events = append(tr.Events, Event{
			Start: int64(2 * k), Len: 3, Sender: k % 2, Receiver: k % 4, Critical: k%16 == 0,
		})
	}
	data := encodeTraceV2(t, tr)
	got, err := ReadBinary(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("ReadBinary: %v", err)
	}
	if !reflect.DeepEqual(got, tr) {
		t.Fatal("multi-block round trip altered the trace")
	}
}

// TestV2BytesPerEvent pins the format's size target on the benchmark
// workload shape: ≤8 bytes/event including all headers.
func TestV2BytesPerEvent(t *testing.T) {
	tr := benchTrace(32, 50000)
	data := encodeTraceV2(t, tr)
	perEvent := float64(len(data)) / float64(len(tr.Events))
	if perEvent > 8 {
		t.Fatalf("v2 encodes %d events in %d bytes (%.2f B/event), want ≤8", len(tr.Events), len(data), perEvent)
	}
	v1 := encodeTrace(t, tr)
	t.Logf("v2: %.2f B/event (v1: %.2f)", perEvent, float64(len(v1))/float64(len(tr.Events)))
}

func TestV2WriterErrors(t *testing.T) {
	w, err := NewV2Writer(&bytes.Buffer{}, 2, 1, 100, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Add(Event{Start: 50, Len: 5}); err != nil {
		t.Fatal(err)
	}
	if err := w.Add(Event{Start: 40, Len: 5}); err == nil {
		t.Fatal("out-of-order Add succeeded")
	}

	w, _ = NewV2Writer(&bytes.Buffer{}, 2, 1, 100, 2)
	w.Add(Event{Start: 1, Len: 1}) //nolint:errcheck
	if err := w.Close(); err == nil || !strings.Contains(err.Error(), "never added") {
		t.Fatalf("short Close: got %v", err)
	}

	w, _ = NewV2Writer(&bytes.Buffer{}, 2, 1, 100, 1)
	w.Add(Event{Start: 1, Len: 1}) //nolint:errcheck
	if err := w.Add(Event{Start: 2, Len: 1}); err == nil {
		t.Fatal("Add past the declared count succeeded")
	}
}

// TestV2Corrupt checks that structural corruption surfaces as an error
// on every decode path rather than silently skewing the analysis.
func TestV2Corrupt(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tr := randomSweepTrace(rng, 5, 200, 3000)
	data := encodeTraceV2(t, tr)

	check := func(name string, mutate func([]byte) []byte) {
		bad := mutate(append([]byte(nil), data...))
		if _, err := ReadBinary(bytes.NewReader(bad)); err == nil {
			t.Errorf("%s: ReadBinary accepted corrupt input", name)
		}
		if _, err := AnalyzeBytesSharded(context.Background(), bad, 100, 4, nil); err == nil {
			t.Errorf("%s: AnalyzeBytesSharded accepted corrupt input", name)
		}
	}
	check("truncated-payload", func(b []byte) []byte { return b[:len(b)-3] })
	check("truncated-block-header", func(b []byte) []byte { return b[:HeaderSize+10] })
	check("corrupt-maxEnd", func(b []byte) []byte {
		off := HeaderSize + 16 // first block's maxEnd
		binary.LittleEndian.PutUint64(b[off:], binary.LittleEndian.Uint64(b[off:])+7)
		return b
	})
	check("corrupt-count", func(b []byte) []byte {
		binary.LittleEndian.PutUint32(b[HeaderSize:], 0)
		return b
	})

	// Trailing garbage is rejected by the indexed (sharded) reader.
	bad := append(append([]byte(nil), data...), 1, 2, 3)
	if _, err := AnalyzeBytesSharded(context.Background(), bad, 100, 4, nil); err == nil {
		t.Error("trailing bytes: AnalyzeBytesSharded accepted corrupt input")
	}
}

// TestV2ImageMatchesAnalyze runs the image driver over v2 images of
// random traces at one and two shards.
func TestV2ImageMatchesAnalyze(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 6; trial++ {
		tr := randomSweepTrace(rng, 2+rng.Intn(16), 1+rng.Intn(400), int64(100+rng.Intn(3000)))
		for _, ws := range []int64{1, 37, tr.Horizon} {
			want, err := AnalyzeCtx(context.Background(), tr, ws)
			if err != nil {
				t.Fatal(err)
			}
			for _, shards := range []int{1, 2} {
				got, err := AnalyzeBytesSharded(context.Background(), encodeTraceV2(t, tr), ws, shards, nil)
				if err != nil {
					t.Fatalf("v2 image, %d shards: %v", shards, err)
				}
				mustEqualAnalyses(t, "v2-image/sh"+itoa(shards), got, want)
			}
		}
	}
}

// TestAnalyzeBytesShardedMatches cross-checks the byte-backed sharded
// driver against the in-memory sweep for both container formats.
func TestAnalyzeBytesShardedMatches(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 5; trial++ {
		tr := randomSweepTrace(rng, 2+rng.Intn(24), 1+rng.Intn(500), int64(200+rng.Intn(5000)))
		v1 := encodeTrace(t, sortedCopy(tr))
		v2 := encodeTraceV2(t, tr)
		for _, ws := range []int64{13, 211, tr.Horizon / 2} {
			if ws <= 0 {
				continue
			}
			want, err := AnalyzeCtx(context.Background(), tr, ws)
			if err != nil {
				t.Fatal(err)
			}
			for _, shards := range []int{1, 2, 5, 9, 0} {
				got, err := AnalyzeBytesSharded(context.Background(), v1, ws, shards, nil)
				if err != nil {
					t.Fatalf("v1 sharded (%d): %v", shards, err)
				}
				mustEqualAnalyses(t, "v1-bytes/sh"+itoa(shards), got, want)
				got, err = AnalyzeBytesSharded(context.Background(), v2, ws, shards, nil)
				if err != nil {
					t.Fatalf("v2 sharded (%d): %v", shards, err)
				}
				mustEqualAnalyses(t, "v2-bytes/sh"+itoa(shards), got, want)
			}
		}
	}
}

// TestAnalyzeBytesShardedUnsortedV1 checks that an unordered v1 image,
// which the image driver cannot sweep, is decoded and analyzed in
// memory: over the bytes and the file path, at every shard count, the
// result equals AnalyzeCtx on the decoded trace.
func TestAnalyzeBytesShardedUnsortedV1(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	tr := randomSweepTrace(rng, 5, 300, 2000)
	tr.Events = append(tr.Events, Event{Start: 0, Len: 5, Receiver: 1}) // out of order for certain
	data := encodeTrace(t, tr)
	hdr, err := readImageHeader(data)
	if err != nil {
		t.Fatal(err)
	}
	boundaries, err := windowBoundaries(hdr.horizon, 100)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := analyzeImage(context.Background(), data[HeaderSize:], hdr, boundaries, 1, nil); !errors.Is(err, errUnsorted) {
		t.Fatalf("driver on an unordered v1 image: got %v, want errUnsorted", err)
	}
	decoded, err := ReadBinary(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	want, err := AnalyzeCtx(context.Background(), decoded, 100)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "unsorted.trc")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	for shards := 1; shards <= 8; shards++ {
		got, err := AnalyzeBytesSharded(context.Background(), data, 100, shards, nil)
		if err != nil {
			t.Fatalf("bytes, %d shards: %v", shards, err)
		}
		mustEqualAnalyses(t, "unsorted-v1-bytes/sh"+itoa(shards), got, want)
		got, err = AnalyzeFileSharded(context.Background(), path, 100, shards, nil)
		if err != nil {
			t.Fatalf("file, %d shards: %v", shards, err)
		}
		mustEqualAnalyses(t, "unsorted-v1-file/sh"+itoa(shards), got, want)
	}
}

func TestAnalyzeFileSharded(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	tr := randomSweepTrace(rng, 12, 800, 6000)
	want, err := AnalyzeCtx(context.Background(), tr, 250)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for name, data := range map[string][]byte{
		"trace.v1.trc": encodeTrace(t, sortedCopy(tr)),
		"trace.v2.trc": encodeTraceV2(t, tr),
	} {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		for _, shards := range []int{1, 4} {
			var stats ShardStats
			got, err := AnalyzeFileSharded(context.Background(), path, 250, shards, &stats)
			if err != nil {
				t.Fatalf("%s shards=%d: %v", name, shards, err)
			}
			mustEqualAnalyses(t, name, got, want)
			if len(stats.Shards) == 0 {
				t.Fatalf("%s shards=%d: no shard stats", name, shards)
			}
		}
	}
	if _, err := AnalyzeFileSharded(context.Background(), filepath.Join(dir, "missing.trc"), 250, 2, nil); err == nil {
		t.Fatal("missing file: want error")
	}
}

// TestFingerprintAcrossFormats pins satellite: the analysis
// fingerprint — the design-cache key — is a property of the logical
// trace, identical whether the trace arrived as an in-memory slice
// (any event order), a v1 image, or a v2 re-encode.
func TestFingerprintAcrossFormats(t *testing.T) {
	tr := &Trace{NumReceivers: 4, NumSenders: 2, Horizon: 1000, Events: []Event{
		{Start: 700, Len: 40, Receiver: 3, Sender: 1, Critical: true},
		{Start: 20, Len: 300, Receiver: 0},
		{Start: 150, Len: 60, Receiver: 1, Sender: 1},
		{Start: 150, Len: 60, Receiver: 2, Critical: true},
	}}
	const ws = 100
	base, err := AnalyzeCtx(context.Background(), tr, ws)
	if err != nil {
		t.Fatal(err)
	}
	want := base.Fingerprint()

	for name, data := range map[string][]byte{"v1": encodeTrace(t, tr), "v2": encodeTraceV2(t, tr)} {
		decoded, err := ReadBinary(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		a, err := AnalyzeCtx(context.Background(), decoded, ws)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if a.Fingerprint() != want {
			t.Fatalf("%s: fingerprint diverges from the in-memory analysis", name)
		}
	}
	var stats ShardStats
	sharded, err := AnalyzeBytesSharded(context.Background(), encodeTraceV2(t, tr), ws, 3, &stats)
	if err != nil {
		t.Fatal(err)
	}
	if sharded.Fingerprint() != want {
		t.Fatal("sharded v2 analysis fingerprint diverges")
	}
}
