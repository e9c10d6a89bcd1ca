package trace

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"strings"
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

// TestShardCutsBalanced: a cut lands on the window holding its target
// event's own start, so at 2 and 3 shards each shard sweeps within one
// window's events of n/shards — on the multi-block benchmark image and
// on a one-block image, where a cut at the block's first start would
// leave all but the last shard empty — and the merged analysis equals
// the one-shard one.
func TestShardCutsBalanced(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(11))
	oneBlock := &Trace{NumReceivers: 6, NumSenders: 3, Horizon: 40000}
	start := int64(0)
	for k := 0; k < 5000; k++ {
		start += rng.Int63n(8)
		oneBlock.Events = append(oneBlock.Events, Event{Start: start, Len: 1 + rng.Int63n(20),
			Sender: rng.Intn(3), Receiver: rng.Intn(6), Critical: rng.Intn(4) == 0})
	}
	for _, img := range []struct {
		name string
		data []byte
		ws   int64
	}{
		{"bench-image", benchImageV2(), benchImageWindow},
		{"one-block", encodeTraceV2(t, oneBlock), 100},
	} {
		tr, err := ReadBinary(bytes.NewReader(img.data))
		if err != nil {
			t.Fatal(err)
		}
		// A cut moves at most the events of the window it snaps in: those
		// starting there before the target, plus those straddling the
		// window's lower edge, which both shards are fed.
		meet := make([]int64, (tr.Horizon+img.ws-1)/img.ws)
		for _, e := range tr.Events {
			for w := e.Start / img.ws; w <= (e.End()-1)/img.ws; w++ {
				meet[w]++
			}
		}
		tol := slices.Max(meet) + 1 // +1 for n/shards rounding
		want, err := AnalyzeBytesSharded(ctx, img.data, img.ws, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, shards := range []int{2, 3} {
			var stats ShardStats
			got, err := AnalyzeBytesSharded(ctx, img.data, img.ws, shards, &stats)
			if err != nil {
				t.Fatalf("%s: %d shards: %v", img.name, shards, err)
			}
			if diffs := DiffAnalyses(got, want); len(diffs) > 0 {
				t.Fatalf("%s: %d shards vs one:\n%s", img.name, shards, strings.Join(diffs, "\n"))
			}
			target := int64(len(tr.Events) / shards)
			for s, st := range stats.Shards {
				if d := st.Events - target; d > tol || d < -tol {
					t.Errorf("%s: %d shards: shard %d swept %d events, want %d ± %d", img.name, shards, s, st.Events, target, tol)
				}
			}
		}
	}
}

// rawV2Image encodes events as a v2 image of 4 receivers, 2 senders
// and the given horizon, in blocks of blockEvents events, with no
// checks: every field is written as given (a start below the previous
// one becomes an overflowing start delta), and each block header's
// maxEnd is the max of start+len over its events.
func rawV2Image(horizon int64, events []Event, blockEvents int) []byte {
	b := append([]byte(nil), binaryMagic[:]...)
	b = binary.LittleEndian.AppendUint32(b, binaryVersionV2)
	b = binary.LittleEndian.AppendUint32(b, 4)
	b = binary.LittleEndian.AppendUint32(b, 2)
	b = binary.LittleEndian.AppendUint64(b, uint64(horizon))
	b = binary.LittleEndian.AppendUint64(b, uint64(len(events)))
	for k0 := 0; k0 < len(events); k0 += blockEvents {
		blk := events[k0:min(k0+blockEvents, len(events))]
		var p []byte
		for k := 1; k < len(blk); k++ {
			p = binary.AppendUvarint(p, uint64(blk[k].Start-blk[k-1].Start))
		}
		maxEnd := int64(0)
		for _, e := range blk {
			p = binary.AppendUvarint(p, uint64(e.Len))
			maxEnd = max(maxEnd, e.End())
		}
		for _, e := range blk {
			p = binary.AppendUvarint(p, uint64(e.Sender))
		}
		for _, e := range blk {
			p = binary.AppendUvarint(p, uint64(e.Receiver))
		}
		bits := make([]byte, (len(blk)+7)/8)
		for k, e := range blk {
			if e.Critical {
				bits[k/8] |= 1 << (k % 8)
			}
		}
		p = append(p, bits...)
		b = binary.LittleEndian.AppendUint32(b, uint32(len(blk)))
		b = binary.LittleEndian.AppendUint32(b, uint32(len(p)))
		b = binary.LittleEndian.AppendUint64(b, uint64(blk[0].Start))
		b = binary.LittleEndian.AppendUint64(b, uint64(maxEnd))
		b = append(b, p...)
	}
	return b
}

// TestMidBlockErrorsAgree puts one bad event inside a block that a
// 2- or 3-shard cut falls in, a few events before and after the cut's
// target event, and expects the image analysis at 1, 2 and 3 shards and
// ReadBinary to fail with the same error. The corrupt start delta
// before a target also sends the planner to its first-start fallback.
func TestMidBlockErrorsAgree(t *testing.T) {
	const n, blockEvents = 5000, 1000
	rng := rand.New(rand.NewSource(13))
	base := make([]Event, n)
	start := int64(0)
	for k := range base {
		start += rng.Int63n(20)
		base[k] = Event{Start: start, Len: 1 + rng.Int63n(30), Sender: rng.Intn(2), Receiver: rng.Intn(4), Critical: rng.Intn(5) == 0}
	}
	horizon := start + 100

	// The premise: at 2 shards the cut falls inside block 2.
	var stats ShardStats
	if _, err := AnalyzeBytesSharded(context.Background(), rawV2Image(horizon, base, blockEvents), 100, 2, &stats); err != nil {
		t.Fatalf("valid image: %v", err)
	}
	if ev := stats.Shards[0].Events; ev <= 2*blockEvents || ev >= 3*blockEvents {
		t.Fatalf("2-shard cut after %d events, want inside block 2 (events 2000..2999)", ev)
	}

	for _, p := range []int{n/3 - 3, n/3 + 3, n/2 - 3, n/2 + 3, 2*n/3 - 3, 2*n/3 + 3} {
		for _, tc := range []struct {
			name    string
			corrupt func(e *Event)
			wantErr string
		}{
			{"receiver", func(e *Event) { e.Receiver = 4 }, fmt.Sprintf("trace: event %d receiver 4 out of range [0,4)", p)},
			{"sender", func(e *Event) { e.Sender = 2 }, fmt.Sprintf("trace: event %d sender 2 out of range [0,2)", p)},
			{"zero-length", func(e *Event) { e.Len = 0 }, fmt.Sprintf("trace: event %d has non-positive length 0", p)},
			{"past-horizon", func(e *Event) { e.Len = horizon }, fmt.Sprintf("trace: event %d [%d,+%d) outside horizon %d", p, base[p].Start, horizon, horizon)},
			{"start-delta", func(e *Event) { e.Start = base[p-1].Start - 1 }, fmt.Sprintf("trace: v2 block: start delta overflows at event %d", p%blockEvents)},
		} {
			events := slices.Clone(base)
			tc.corrupt(&events[p])
			image := rawV2Image(horizon, events, blockEvents)
			for _, shards := range []int{1, 2, 3} {
				if _, err := AnalyzeBytesSharded(context.Background(), image, 100, shards, nil); err == nil || err.Error() != tc.wantErr {
					t.Errorf("%s at event %d: %d shards: err = %v, want %q", tc.name, p, shards, err, tc.wantErr)
				}
			}
			if _, err := ReadBinary(bytes.NewReader(image)); err == nil || err.Error() != tc.wantErr {
				t.Errorf("%s at event %d: ReadBinary: err = %v, want %q", tc.name, p, err, tc.wantErr)
			}
		}
	}
}

// TestFirstErrorWinsAtEveryShardCount: an image with a bad event near
// the end of the first shard's range and another in the second
// shard's first block fails with the first one, as at one shard, at
// every shard count and however the shards are scheduled. The second
// shard reaches its error first, so a first shard that gave up on its
// sibling's failure would report the second.
func TestFirstErrorWinsAtEveryShardCount(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	events := make([]Event, 20000)
	start := int64(0)
	for k := range events {
		start += rng.Int63n(20)
		events[k] = Event{Start: start, Len: 1 + rng.Int63n(30), Sender: rng.Intn(2), Receiver: rng.Intn(4)}
	}
	events[8950].Receiver = 4
	events[10050].Sender = 2
	image := rawV2Image(start+100, events, 1000)
	const wantErr = "trace: event 8950 receiver 4 out of range [0,4)"
	for _, shards := range []int{1, 2, 3} {
		for run := 0; run < 20; run++ {
			if _, err := AnalyzeBytesSharded(context.Background(), image, 100, shards, nil); err == nil || err.Error() != wantErr {
				t.Fatalf("%d shards, run %d: err = %v, want %q", shards, run, err, wantErr)
			}
		}
	}
}
