package trace

import (
	"bytes"
	"context"
	"math/rand"
	"testing"
)

// v1Image encodes a start-sorted copy of tr as a v1 binary image, so
// the shard suites drive the production image driver on hand-built
// traces (an unsorted image would take the in-memory fallback).
func v1Image(tr *Trace) ([]byte, error) {
	var buf bytes.Buffer
	if err := WriteBinary(&buf, sortedCopy(tr)); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// analyzeSharded runs the image driver over tr's v1 image at fixed
// windows of ws cycles. shards ≤ 0 means one per CPU core. stats may
// be nil.
func analyzeSharded(ctx context.Context, tr *Trace, ws int64, shards int, stats *ShardStats) (*Analysis, error) {
	data, err := v1Image(tr)
	if err != nil {
		return nil, err
	}
	return AnalyzeBytesSharded(ctx, data, ws, shards, stats)
}

// analyzeShardedBoundaries is analyzeSharded over explicit (valid)
// window edges, through the driver's boundaries entry; cuts still snap
// to the given boundaries.
func analyzeShardedBoundaries(ctx context.Context, tr *Trace, boundaries []int64, shards int, stats *ShardStats) (*Analysis, error) {
	data, err := v1Image(tr)
	if err != nil {
		return nil, err
	}
	hdr, err := readImageHeader(data)
	if err != nil {
		return nil, err
	}
	return analyzeBytes(ctx, data, hdr, boundaries, shards, stats)
}

// mustShardEqual runs the image driver at the given shard count over
// tr's v1 and v2 images and asserts bit-identity against the
// single-pass sweep. It returns the v1 run's stats.
func mustShardEqual(t *testing.T, tag string, tr *Trace, ws int64, shards int) *ShardStats {
	t.Helper()
	want, err := AnalyzeCtx(context.Background(), tr, ws)
	if err != nil {
		t.Fatalf("%s: Analyze: %v", tag, err)
	}
	var stats ShardStats
	got, err := analyzeSharded(context.Background(), tr, ws, shards, &stats)
	if err != nil {
		t.Fatalf("%s: analyzeSharded(%d): %v", tag, shards, err)
	}
	mustEqualAnalyses(t, tag+"/v1", got, want)
	got, err = AnalyzeBytesSharded(context.Background(), encodeTraceV2(t, tr), ws, shards, nil)
	if err != nil {
		t.Fatalf("%s: v2 image (%d shards): %v", tag, shards, err)
	}
	mustEqualAnalyses(t, tag+"/v2", got, want)
	return &stats
}

func TestShardedMatchesSweepRandom(t *testing.T) {
	for _, receivers := range []int{1, 2, 3, 8, 17, 33} {
		rng := rand.New(rand.NewSource(int64(1000 + receivers)))
		events := 50 + receivers*10
		for trial := 0; trial < 4; trial++ {
			horizon := int64(64 + rng.Intn(4000))
			tr := randomSweepTrace(rng, receivers, events, horizon)
			for _, ws := range []int64{1, 7, horizon / 3, horizon} {
				if ws <= 0 {
					continue
				}
				for _, shards := range []int{1, 2, 3, 5, 8, 64, 0} {
					mustShardEqual(t, "rx"+itoa(receivers)+"/ws"+itoa(int(ws))+"/sh"+itoa(shards), tr, ws, shards)
				}
			}
		}
	}
}

// TestShardedStraddles pins the boundary-split merge on hand-built
// traces where grants cross exactly one cut, two cuts, and every cut —
// including overlapping pairs whose intersection itself straddles a
// cut, the case where frontier state at the boundary matters.
func TestShardedStraddles(t *testing.T) {
	// horizon 400, ws 100 → 4 windows; cuts for 4 shards land at
	// 100/200/300 (one window per shard).
	cases := []struct {
		name   string
		events []Event
	}{
		{"one-cut", []Event{
			{Start: 90, Len: 20, Receiver: 0},
			{Start: 95, Len: 10, Receiver: 1, Critical: true},
		}},
		{"two-cuts", []Event{
			{Start: 50, Len: 200, Receiver: 0},
			{Start: 120, Len: 100, Receiver: 1},
		}},
		{"all-cuts", []Event{
			{Start: 0, Len: 400, Receiver: 0, Critical: true},
			{Start: 10, Len: 380, Receiver: 1},
			{Start: 200, Len: 50, Receiver: 2},
		}},
		{"pair-intersection-straddles", []Event{
			// The pair's overlap interval [180, 220) crosses the cut at
			// 200; its credit must land half in window 1, half in 2.
			{Start: 150, Len: 70, Receiver: 0},
			{Start: 180, Len: 60, Receiver: 1},
		}},
		{"ends-exactly-on-cut", []Event{
			{Start: 50, Len: 50, Receiver: 0},
			{Start: 100, Len: 100, Receiver: 1},
			{Start: 150, Len: 50, Receiver: 0, Critical: true},
		}},
		{"starts-on-every-boundary", []Event{
			{Start: 0, Len: 1, Receiver: 0},
			{Start: 100, Len: 1, Receiver: 1},
			{Start: 200, Len: 1, Receiver: 2},
			{Start: 300, Len: 1, Receiver: 0},
			{Start: 399, Len: 1, Receiver: 1},
		}},
	}
	for _, tc := range cases {
		tr := &Trace{NumReceivers: 3, NumSenders: 1, Horizon: 400, Events: tc.events}
		for _, shards := range []int{2, 3, 4} {
			mustShardEqual(t, tc.name+"/sh"+itoa(shards), tr, 100, shards)
		}
	}
}

// TestShardedDegenerate covers empty traces, single-window traces,
// more shards than windows (zero-length shard requests collapse), and
// shards that receive no events at all.
func TestShardedDegenerate(t *testing.T) {
	empty := &Trace{NumReceivers: 4, NumSenders: 1, Horizon: 1000}
	mustShardEqual(t, "empty-trace", empty, 100, 8)

	oneWindow := &Trace{NumReceivers: 2, NumSenders: 1, Horizon: 50,
		Events: []Event{{Start: 5, Len: 10, Receiver: 0}, {Start: 8, Len: 4, Receiver: 1}}}
	mustShardEqual(t, "one-window", oneWindow, 50, 8)

	// All events clustered in the first window: most shards are empty,
	// and event-balanced cuts collide into zero-length shards.
	clustered := &Trace{NumReceivers: 3, NumSenders: 1, Horizon: 10000}
	for k := 0; k < 40; k++ {
		clustered.Events = append(clustered.Events,
			Event{Start: int64(k % 7), Len: int64(1 + k%5), Receiver: k % 3, Critical: k%4 == 0})
	}
	stats := mustShardEqual(t, "clustered", clustered, 100, 8)
	if len(stats.Shards) != 8 {
		t.Fatalf("clustered: got %d shard stats, want 8", len(stats.Shards))
	}

	// Events only in the last window.
	tail := &Trace{NumReceivers: 2, NumSenders: 1, Horizon: 1000,
		Events: []Event{{Start: 990, Len: 10, Receiver: 0}, {Start: 995, Len: 5, Receiver: 1}}}
	mustShardEqual(t, "tail-only", tail, 100, 4)

	// More shards than windows: resolves down to the window count.
	var stats2 ShardStats
	got, err := analyzeSharded(context.Background(), oneWindow, 50, 100, &stats2)
	if err != nil {
		t.Fatalf("over-sharded: %v", err)
	}
	want, _ := AnalyzeCtx(context.Background(), oneWindow, 50)
	mustEqualAnalyses(t, "over-sharded", got, want)
	if len(stats2.Shards) != 1 {
		t.Fatalf("over-sharded: got %d shards, want 1", len(stats2.Shards))
	}
}

// TestShardedUnsortedInput checks that an image of unordered events is
// accepted, like an unordered slice is by AnalyzeCtx: the driver
// rejects the v1 image (no shard stats are written) and the in-memory
// fallback analyzes it.
func TestShardedUnsortedInput(t *testing.T) {
	tr := &Trace{NumReceivers: 3, NumSenders: 1, Horizon: 600, Events: []Event{
		{Start: 500, Len: 90, Receiver: 2},
		{Start: 10, Len: 300, Receiver: 0, Critical: true},
		{Start: 250, Len: 100, Receiver: 1},
		{Start: 10, Len: 40, Receiver: 1},
	}}
	want, err := AnalyzeCtx(context.Background(), tr, 100)
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{1, 3} {
		var stats ShardStats
		got, err := AnalyzeBytesSharded(context.Background(), encodeTrace(t, tr), 100, shards, &stats)
		if err != nil {
			t.Fatalf("%d shards: %v", shards, err)
		}
		mustEqualAnalyses(t, "unsorted/sh"+itoa(shards), got, want)
		if stats.Shards != nil {
			t.Fatalf("%d shards: the driver swept an unordered v1 image", shards)
		}
	}
	mustShardEqual(t, "unsorted-sorted", tr, 100, 3)
}

// TestShardedAdaptiveBoundaries runs the driver's explicit-boundary
// entry with variable-size windows.
func TestShardedAdaptiveBoundaries(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	tr := randomSweepTrace(rng, 6, 120, 900)
	boundaries := []int64{0, 13, 14, 200, 450, 451, 700, 900}
	want, err := AnalyzeWithBoundariesCtx(context.Background(), tr, boundaries)
	if err != nil {
		t.Fatalf("AnalyzeWithBoundariesCtx: %v", err)
	}
	for _, shards := range []int{1, 2, 3, 7, 50} {
		got, err := analyzeShardedBoundaries(context.Background(), tr, boundaries, shards, nil)
		if err != nil {
			t.Fatalf("sharded adaptive (%d): %v", shards, err)
		}
		mustEqualAnalyses(t, "adaptive/sh"+itoa(shards), got, want)
	}
}

// TestShardedCancel checks the driver honors context cancellation.
func TestShardedCancel(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	tr := randomSweepTrace(rng, 8, 5000, 100000)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := analyzeSharded(ctx, tr, 10, 4, nil); err == nil {
		t.Fatal("canceled sharded analysis returned nil error")
	}
}

// TestShardedStats sanity-checks the instrumentation output: window
// counts partition the window range, and every straddling grant is
// counted once per shard it touches.
func TestShardedStats(t *testing.T) {
	tr := &Trace{NumReceivers: 2, NumSenders: 1, Horizon: 400, Events: []Event{
		{Start: 0, Len: 400, Receiver: 0}, // touches all 4 shards
		{Start: 250, Len: 10, Receiver: 1},
	}}
	var stats ShardStats
	if _, err := analyzeSharded(context.Background(), tr, 100, 4, &stats); err != nil {
		t.Fatal(err)
	}
	if len(stats.Shards) != 4 {
		t.Fatalf("got %d shard stats, want 4", len(stats.Shards))
	}
	wins, fed := 0, int64(0)
	for _, s := range stats.Shards {
		wins += s.Windows
		fed += s.Events
	}
	if wins != 4 {
		t.Fatalf("shard windows sum to %d, want 4", wins)
	}
	// Cut placement is event-balanced, so the exact piece count depends
	// on the plan; but every event is fed at least once, and the
	// horizon-long grant necessarily straddles at least one cut.
	if fed <= int64(len(tr.Events)) {
		t.Fatalf("shard events sum to %d, want > %d (the straddling grant must be split)", fed, len(tr.Events))
	}
}
