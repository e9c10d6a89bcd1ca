package trace

import (
	"bytes"
	"context"
	"encoding/binary"
	"math"
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
		if got := a.PairOverlap(0, 1, 0); got != 3 {
			t.Fatalf("ws=%d: overlap %d, want 3", ws, got)
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
	if got := a.Comm.At(0, 2); got != 3 {
		t.Fatalf("tail comm %d, want 3", got)
	}
}

// TestAnalyzeSingleReceiver covers the zero-pair case: one receiver
// means no overlap rows at all, and every pair accessor must stay
// coherent about that.
func TestAnalyzeSingleReceiver(t *testing.T) {
	tr := &Trace{NumReceivers: 1, NumSenders: 1, Horizon: 40, Events: []Event{
		{Start: 0, Len: 10, Sender: 0, Receiver: 0},
	}}
	a, err := AnalyzeCtx(context.Background(), tr, 20)
	if err != nil {
		t.Fatal(err)
	}
	if a.Overlap.Rows != 0 {
		t.Fatalf("%d overlap rows, want 0", a.Overlap.Rows)
	}
	if got := a.PairOverlap(0, 0, 0); got != 0 {
		t.Fatalf("diagonal overlap %d, want 0", got)
	}
	if _, err := a.PairOverlapChecked(0, 1, 0); err == nil {
		t.Fatal("pair (0,1) of a 1-receiver analysis passed the check")
	}
}

// TestPairAccessOutOfRange is the regression test for the opaque
// index panic: out-of-range receivers must yield a descriptive error
// from the checked accessors and a descriptive panic (naming the pair
// and the range) from PairIndex — not a bare slice-bounds fault.
func TestPairAccessOutOfRange(t *testing.T) {
	tr := &Trace{NumReceivers: 3, NumSenders: 1, Horizon: 30, Events: []Event{
		{Start: 0, Len: 5, Sender: 0, Receiver: 0},
		{Start: 2, Len: 5, Sender: 0, Receiver: 1},
	}}
	a, err := AnalyzeCtx(context.Background(), tr, 30)
	if err != nil {
		t.Fatal(err)
	}
	for _, pair := range [][2]int{{-1, 0}, {0, 3}, {7, 9}, {2, 2}} {
		if err := a.CheckPair(pair[0], pair[1]); err == nil {
			t.Errorf("CheckPair(%d,%d) accepted", pair[0], pair[1])
		}
		if _, err := a.PairOverlapChecked(pair[0], pair[1], 0); err == nil {
			t.Errorf("PairOverlapChecked(%d,%d,0) accepted", pair[0], pair[1])
		}
		if _, err := a.PairCritOverlapChecked(pair[0], pair[1], 0); err == nil {
			t.Errorf("PairCritOverlapChecked(%d,%d,0) accepted", pair[0], pair[1])
		}
	}
	if _, err := a.PairOverlapChecked(0, 1, 5); err == nil || !strings.Contains(err.Error(), "window") {
		t.Errorf("out-of-range window not rejected clearly: %v", err)
	}
	func() {
		defer func() {
			r := recover()
			if r == nil {
				t.Fatal("PairIndex(0,9) did not panic")
			}
			if msg, ok := r.(string); !ok || !strings.Contains(msg, "pair") {
				t.Fatalf("PairIndex panic is not descriptive: %v", r)
			}
		}()
		a.PairIndex(0, 9)
	}()
}

// TestReadBinaryHeaderBombs is the regression test for the decoder
// preallocation: a 32-byte header declaring 2^27 events used to
// commit multiple gigabytes before the first read. It must now fail
// fast on the truncated payload with bounded allocation, and reject
// implausible core counts outright.
func TestReadBinaryHeaderBombs(t *testing.T) {
	mkHeader := func(receivers, senders uint32, horizon, events uint64) []byte {
		hdr := append([]byte("STBT"), make([]byte, 28)...)
		binary.LittleEndian.PutUint32(hdr[4:], 1)
		binary.LittleEndian.PutUint32(hdr[8:], receivers)
		binary.LittleEndian.PutUint32(hdr[12:], senders)
		binary.LittleEndian.PutUint64(hdr[16:], horizon)
		binary.LittleEndian.PutUint64(hdr[24:], events)
		return hdr
	}

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
