package trace

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
)

// TestFastPathMatchesDenseReference pins the sweep's one-window credit
// path and its multi-window loops to the dense per-window reference
// (the legacy kernel) on traces built to take each: segments inside one
// window, segments starting or ending exactly on a boundary, segments
// spanning two or more windows, window size 1, a two-word active bitset
// (R = 65, receivers 63 and 64 overlapping) and critical overlaps. Each
// trace runs through the in-memory sweep and through the image driver
// at one, two and three shards, in both containers.
func TestFastPathMatchesDenseReference(t *testing.T) {
	cases := []struct {
		name string
		tr   *Trace
		ws   int64
	}{
		{
			name: "inside one window",
			tr: &Trace{NumReceivers: 3, NumSenders: 1, Horizon: 120, Events: []Event{
				{Start: 2, Len: 5, Receiver: 0},
				{Start: 3, Len: 3, Receiver: 1},
				{Start: 4, Len: 2, Receiver: 2, Critical: true},
				{Start: 9, Len: 4, Receiver: 0}, // same receiver, same window, second segment
				{Start: 10, Len: 5, Receiver: 1},
				{Start: 45, Len: 10, Receiver: 2},
				{Start: 47, Len: 3, Receiver: 0},
			}},
			ws: 40,
		},
		{
			name: "boundary starts and ends",
			tr: &Trace{NumReceivers: 3, NumSenders: 1, Horizon: 100, Events: []Event{
				{Start: 0, Len: 20, Receiver: 0},  // starts on 0, ends on 20
				{Start: 5, Len: 15, Receiver: 1},  // ends on 20
				{Start: 20, Len: 20, Receiver: 2}, // starts on 20, ends on 40
				{Start: 20, Len: 5, Receiver: 0, Critical: true},
				{Start: 21, Len: 19, Receiver: 1, Critical: true}, // ends on 40
				{Start: 60, Len: 40, Receiver: 0},                 // ends on the horizon
				{Start: 79, Len: 21, Receiver: 1},
			}},
			ws: 20,
		},
		{
			name: "spanning two and more windows",
			tr: &Trace{NumReceivers: 4, NumSenders: 1, Horizon: 200, Events: []Event{
				{Start: 15, Len: 10, Receiver: 0}, // two windows
				{Start: 18, Len: 4, Receiver: 1},  // inside the first, overlapping the above
				{Start: 19, Len: 50, Receiver: 2}, // four windows
				{Start: 22, Len: 1, Receiver: 3, Critical: true},
				{Start: 30, Len: 95, Receiver: 3, Critical: true}, // many windows
				{Start: 41, Len: 3, Receiver: 0},                  // inside one, under two spanning partners
				{Start: 55, Len: 40, Receiver: 1, Critical: true},
			}},
			ws: 20,
		},
		{
			name: "window size 1",
			tr: &Trace{NumReceivers: 3, NumSenders: 1, Horizon: 30, Events: []Event{
				{Start: 0, Len: 1, Receiver: 0},
				{Start: 0, Len: 3, Receiver: 1, Critical: true},
				{Start: 1, Len: 1, Receiver: 2, Critical: true},
				{Start: 2, Len: 7, Receiver: 0, Critical: true},
				{Start: 5, Len: 1, Receiver: 2},
				{Start: 29, Len: 1, Receiver: 1},
			}},
			ws: 1,
		},
		{
			name: "two-word bitset",
			tr: &Trace{NumReceivers: 65, NumSenders: 1, Horizon: 90, Events: []Event{
				{Start: 1, Len: 8, Receiver: 63},
				{Start: 2, Len: 5, Receiver: 64, Critical: true},
				{Start: 3, Len: 2, Receiver: 0},
				{Start: 4, Len: 30, Receiver: 63, Critical: true},
				{Start: 6, Len: 25, Receiver: 64, Critical: true},
				{Start: 50, Len: 9, Receiver: 64},
				{Start: 51, Len: 2, Receiver: 63},
			}},
			ws: 10,
		},
		{
			name: "critical class",
			tr: &Trace{NumReceivers: 3, NumSenders: 1, Horizon: 64, Events: []Event{
				{Start: 1, Len: 6, Receiver: 0, Critical: true},
				{Start: 2, Len: 2, Receiver: 1, Critical: true}, // critical overlap inside one window
				{Start: 3, Len: 2, Receiver: 2},                 // busy overlap only
				{Start: 14, Len: 6, Receiver: 1, Critical: true},
				{Start: 15, Len: 20, Receiver: 2, Critical: true}, // critical overlap across windows
			}},
			ws: 16,
		},
	}
	rng := rand.New(rand.NewSource(36))
	for trial := 0; trial < 12; trial++ {
		// Short grants at long windows take the one-window path almost
		// always; long grants at short windows almost never.
		tr := randomSweepTrace(rng, []int{2, 7, 65}[trial%3], 300, int64(500+rng.Intn(2000)))
		cases = append(cases, struct {
			name string
			tr   *Trace
			ws   int64
		}{fmt.Sprintf("random %d", trial), tr, []int64{1, 5, 64, 400}[trial%4]})
	}
	ctx := context.Background()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want, err := AnalyzeLegacy(tc.tr, tc.ws)
			if err != nil {
				t.Fatal(err)
			}
			got, err := AnalyzeCtx(ctx, tc.tr, tc.ws)
			if err != nil {
				t.Fatal(err)
			}
			mustEqualAnalyses(t, "sweep", got, want)
			v1, err := v1Image(tc.tr)
			if err != nil {
				t.Fatal(err)
			}
			for _, shards := range []int{1, 2, 3} {
				for _, img := range []struct {
					name string
					data []byte
				}{{"v1", v1}, {"v2", encodeTraceV2(t, tc.tr)}} {
					got, err := AnalyzeBytesSharded(ctx, img.data, tc.ws, shards, nil)
					if err != nil {
						t.Fatalf("%s/sh%d: %v", img.name, shards, err)
					}
					mustEqualAnalyses(t, fmt.Sprintf("%s/sh%d", img.name, shards), got, want)
				}
			}
		})
	}
}

// TestOnePairAllocBytes: the sweep finds pair state through slot rows
// allocated per overlapping receiver, and shards hand their pair totals
// to the merge instead of an OM of their own, so an analysis with one
// overlapping pair at R = 4,096 allocates at most the OM triangle plus
// 1 MiB on every path — the in-memory sweep and the image driver at one,
// two and three shards. The pair overlaps for the whole horizon, so
// every shard credits it.
func TestOnePairAllocBytes(t *testing.T) {
	if testing.Short() {
		t.Skip("allocates the 64 MiB OM triangle a dozen times")
	}
	const nT = 4096
	ctx := context.Background()
	tr := &Trace{NumReceivers: nT, NumSenders: 1, Horizon: 1000, Events: []Event{
		{Start: 0, Len: 1000, Receiver: 0},
		{Start: 0, Len: 1000, Receiver: nT - 1, Critical: true},
	}}
	image := encodeTrace(t, tr)
	limit := uint64(8*nT*(nT-1)/2 + 1<<20)
	paths := []struct {
		name string
		run  func() (*Analysis, error)
	}{
		{"sweep", func() (*Analysis, error) { return AnalyzeCtx(ctx, tr, 10) }},
		{"image/sh1", func() (*Analysis, error) { return AnalyzeBytesSharded(ctx, image, 10, 1, nil) }},
		{"image/sh2", func() (*Analysis, error) { return AnalyzeBytesSharded(ctx, image, 10, 2, nil) }},
		{"image/sh3", func() (*Analysis, error) { return AnalyzeBytesSharded(ctx, image, 10, 3, nil) }},
	}
	for _, p := range paths {
		var a *Analysis
		var err error
		perCall := allocBytesPerCall(2, func() { a, err = p.run() })
		if err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		if got := a.OM.At(0, nT-1); got != 1000 || len(a.Pairs) != 1 {
			t.Fatalf("%s: OM(0,%d) = %d with %d pairs, want 1000 with 1", p.name, nT-1, got, len(a.Pairs))
		}
		t.Logf("%s: %d bytes per call (limit %d)", p.name, perCall, limit)
		if perCall > limit {
			t.Errorf("%s: %d bytes per call, want at most %d", p.name, perCall, limit)
		}
	}
}
