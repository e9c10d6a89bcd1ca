package trace

import (
	"bytes"
	"context"
	"encoding/binary"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// TestValidateRejectsOverflowingEvent is the regression test for the
// Start+Len int64 overflow: an event whose end wraps negative used to
// pass validation (End() > Horizon is false for a wrapped End) and
// corrupt the interval sets downstream.
func TestValidateRejectsOverflowingEvent(t *testing.T) {
	tr := &Trace{
		NumReceivers: 1, NumSenders: 1, Horizon: 64,
		Events: []Event{{Start: 5, Len: math.MaxInt64 - 2, Sender: 0, Receiver: 0}},
	}
	if err := tr.Validate(); err == nil {
		t.Fatal("overflowing event passed validation")
	}
	// The boundary case stays valid: an event ending exactly at the
	// horizon.
	tr.Events[0].Len = 59
	if err := tr.Validate(); err != nil {
		t.Fatalf("event ending at the horizon rejected: %v", err)
	}
	// Start at the horizon is invalid even with Len 1.
	tr.Events[0] = Event{Start: 64, Len: 1, Sender: 0, Receiver: 0}
	if err := tr.Validate(); err == nil {
		t.Fatal("event starting at the horizon passed validation")
	}
}

// TestAnalyzeWindowLargerThanHorizon pins the single-window degenerate
// case, including the int64-overflow regression: a window size near
// MaxInt64 used to overflow the ceiling division into a negative
// window count and panic in make.
func TestAnalyzeWindowLargerThanHorizon(t *testing.T) {
	tr := &Trace{NumReceivers: 2, NumSenders: 1, Horizon: 50, Events: []Event{
		{Start: 10, Len: 5, Sender: 0, Receiver: 0},
		{Start: 12, Len: 5, Sender: 0, Receiver: 1},
	}}
	for _, ws := range []int64{51, 1000, math.MaxInt64 - 1, math.MaxInt64} {
		a, err := AnalyzeCtx(context.Background(), tr, ws)
		if err != nil {
			t.Fatalf("ws=%d: %v", ws, err)
		}
		if a.NumWindows() != 1 {
			t.Fatalf("ws=%d: %d windows, want 1", ws, a.NumWindows())
		}
		if a.WindowLen(0) != 50 {
			t.Fatalf("ws=%d: window length %d, want the 50-cycle horizon", ws, a.WindowLen(0))
		}
		want := []PairSummary{{I: 0, J: 1, Frontier: []WindowOverlap{{Len: 50, Cycles: 3}}}}
		if !reflect.DeepEqual(a.Pairs, want) {
			t.Fatalf("ws=%d: Pairs %+v, want %+v", ws, a.Pairs, want)
		}
	}
}

// TestAnalyzeHorizonNearMaxInt64 pins the other window overflow: with a
// horizon near MaxInt64, the last window's nominal edge numWindows·ws
// overflows, and the edge used to come out negative, leaving the
// boundaries unordered. The one-shard image analysis, which clips
// events to its last edge, then credited nothing.
func TestAnalyzeHorizonNearMaxInt64(t *testing.T) {
	const horizon = math.MaxInt64 - 1
	tr := &Trace{NumReceivers: 2, NumSenders: 1, Horizon: horizon, Events: []Event{
		{Start: 0, Len: horizon / 2, Sender: 0, Receiver: 0},
		{Start: horizon / 2, Len: horizon / 2, Sender: 0, Receiver: 1, Critical: true},
	}}
	ws := int64(horizon/4 + 1)
	want, err := AnalyzeCtx(context.Background(), tr, ws)
	if err != nil {
		t.Fatal(err)
	}
	if n := want.NumWindows(); n != 4 {
		t.Fatalf("%d windows, want 4", n)
	}
	for m := 0; m < want.NumWindows(); m++ {
		if want.WindowLen(m) <= 0 {
			t.Fatalf("window %d has length %d; boundaries %v", m, want.WindowLen(m), want.Boundaries)
		}
	}
	if got := want.Comm.RowSum(0) + want.Comm.RowSum(1); got != horizon/2*2 {
		t.Fatalf("Comm sums to %d, want %d", got, int64(horizon/2*2))
	}
	for _, shards := range []int{1, 2} {
		got, err := AnalyzeBytesSharded(context.Background(), encodeTrace(t, tr), ws, shards, nil)
		if err != nil {
			t.Fatalf("%d shards: %v", shards, err)
		}
		mustEqualAnalyses(t, "near-max-horizon/sh"+itoa(shards), got, want)
	}
}

// TestAnalyzeShortLastWindow covers a horizon that is not a multiple
// of the window size: the last window must be exactly the remainder
// and account the tail cycles.
func TestAnalyzeShortLastWindow(t *testing.T) {
	tr := &Trace{NumReceivers: 1, NumSenders: 1, Horizon: 25, Events: []Event{
		{Start: 22, Len: 3, Sender: 0, Receiver: 0}, // entirely in the tail
	}}
	a, err := AnalyzeCtx(context.Background(), tr, 10)
	if err != nil {
		t.Fatal(err)
	}
	if a.NumWindows() != 3 {
		t.Fatalf("%d windows, want 3", a.NumWindows())
	}
	if a.WindowLen(2) != 5 {
		t.Fatalf("last window length %d, want 5", a.WindowLen(2))
	}
	if got := CellAt(a.Comm, 0, 2); got != 3 {
		t.Fatalf("tail comm %d, want 3", got)
	}
}

// TestAnalyzeSingleReceiver covers the zero-pair case: one receiver
// means no pair summaries and an empty OM, on every path.
func TestAnalyzeSingleReceiver(t *testing.T) {
	tr := &Trace{NumReceivers: 1, NumSenders: 1, Horizon: 40, Events: []Event{
		{Start: 0, Len: 10, Sender: 0, Receiver: 0},
	}}
	a, err := AnalyzeCtx(context.Background(), tr, 20)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Pairs) != 0 {
		t.Fatalf("%d pair summaries, want 0", len(a.Pairs))
	}
	if a.OM == nil || a.OM.N != 1 || a.OM.Total() != 0 {
		t.Fatalf("OM %+v, want an empty 1×1 matrix", a.OM)
	}
	for _, shards := range []int{1, 2} {
		got, err := AnalyzeBytesSharded(context.Background(), encodeTrace(t, tr), 20, shards, nil)
		if err != nil {
			t.Fatalf("%d shards: %v", shards, err)
		}
		mustEqualAnalyses(t, "single-receiver/sh"+itoa(shards), got, a)
	}
}

// mkHeader returns a 32-byte v1 header and nothing else.
func mkHeader(receivers, senders uint32, horizon, events uint64) []byte {
	hdr := append([]byte("STBT"), make([]byte, 28)...)
	binary.LittleEndian.PutUint32(hdr[4:], 1)
	binary.LittleEndian.PutUint32(hdr[8:], receivers)
	binary.LittleEndian.PutUint32(hdr[12:], senders)
	binary.LittleEndian.PutUint64(hdr[16:], horizon)
	binary.LittleEndian.PutUint64(hdr[24:], events)
	return hdr
}

// TestReceiverCap pins one receiver cap, maxReceivers, on every ingest
// path: Validate (which every in-memory analysis and ReadJSON run),
// ReadBinary and ReadHeader after the header parse, and the image
// analysis, which keeps its own message. It never analyzes a trace
// over the cap.
func TestReceiverCap(t *testing.T) {
	over := &Trace{NumReceivers: maxReceivers + 1, NumSenders: 1, Horizon: 32}
	if err := over.Validate(); err == nil || !strings.Contains(err.Error(), "exceeds the limit 4096") {
		t.Errorf("Validate on %d receivers: %v, want the limit", over.NumReceivers, err)
	}
	atCap := &Trace{NumReceivers: maxReceivers, NumSenders: 1, Horizon: 32}
	if err := atCap.Validate(); err != nil {
		t.Errorf("Validate on %d receivers: %v", atCap.NumReceivers, err)
	}

	hdr := mkHeader(maxReceivers+1, 1, 32, 0)
	if _, err := ReadBinary(bytes.NewReader(hdr)); err == nil || !strings.Contains(err.Error(), "exceeds the limit 4096") {
		t.Errorf("ReadBinary on a %d-receiver header: %v, want the limit", maxReceivers+1, err)
	}
	if _, err := ReadHeader(bytes.NewReader(hdr)); err == nil || !strings.Contains(err.Error(), "exceeds the limit 4096") {
		t.Errorf("ReadHeader on a %d-receiver header: %v, want the limit", maxReceivers+1, err)
	}
	if _, err := AnalyzeBytesSharded(context.Background(), hdr, 8, 1, nil); err == nil || !strings.Contains(err.Error(), "streaming-analysis limit 4096") {
		t.Errorf("image analysis of a %d-receiver header: %v, want the limit", maxReceivers+1, err)
	}
	tr, err := ReadBinary(bytes.NewReader(mkHeader(maxReceivers, 1, 32, 0)))
	if err != nil || tr.NumReceivers != maxReceivers {
		t.Errorf("ReadBinary on a %d-receiver header: %v", maxReceivers, err)
	}
}

// TestReadBinaryHeaderBombs is the regression test for the decoder
// preallocation: a 32-byte header declaring 2^27 events used to
// commit multiple gigabytes before the first read. It must now fail
// fast on the truncated payload with bounded allocation, and reject
// implausible core counts outright.
func TestReadBinaryHeaderBombs(t *testing.T) {

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if _, err := ReadBinary(bytes.NewReader(mkHeader(2, 1, 32, 1<<27))); err == nil {
		t.Fatal("event-count bomb decoded successfully")
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<20 {
		t.Errorf("header bomb allocated %d MiB before failing", grew>>20)
	}

	if _, err := ReadBinary(bytes.NewReader(mkHeader(1<<24, 1, 32, 0))); err == nil {
		t.Fatal("implausible receiver count accepted")
	}
	if _, err := ReadBinary(bytes.NewReader(mkHeader(1, 1<<24, 32, 0))); err == nil {
		t.Fatal("implausible sender count accepted")
	}
}
