package core

import (
	"cmp"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// windowFixture is one analysis the window-reduction pin and benchmark
// run on.
type windowFixture struct {
	name string
	a    *trace.Analysis
}

var (
	paperWindowOnce     sync.Once
	paperWindowFixtures []windowFixture
	paperWindowErr      error
)

// paperWindowAnalyses simulates the five paper applications at seed 1
// on the full crossbar and analyzes both directions at the trace's
// WindowSizeHint, in Table 2 order: mat1.req, mat1.resp, mat2.req, ...
// An eleventh entry, mat2.req.tiled60, is the spool-large shape: the
// Mat2 request trace tiled 60× back to back on window-800 boundaries,
// analyzed at window 800. The fixtures are built once per test binary.
func paperWindowAnalyses(tb testing.TB) []windowFixture {
	tb.Helper()
	paperWindowOnce.Do(func() {
		ctx := context.Background()
		var mat2Req *trace.Trace
		for _, app := range workloads.All(1) {
			req, resp := app.FullConfig()
			res, err := sim.RunCtx(ctx, app.SimConfig(req, resp))
			if err != nil {
				paperWindowErr = err
				return
			}
			for _, d := range []struct {
				dir string
				tr  *trace.Trace
			}{{"req", res.ReqTrace}, {"resp", res.RespTrace}} {
				a, err := trace.AnalyzeCtx(ctx, d.tr, d.tr.WindowSizeHint())
				if err != nil {
					paperWindowErr = err
					return
				}
				paperWindowFixtures = append(paperWindowFixtures, windowFixture{strings.ToLower(app.Name) + "." + d.dir, a})
			}
			if app.Name == "Mat2" {
				mat2Req = res.ReqTrace
			}
		}
		const tiles, ws = 60, 800
		a, err := trace.AnalyzeCtx(ctx, tileTrace(mat2Req, tiles, ws), ws)
		if err != nil {
			paperWindowErr = err
			return
		}
		paperWindowFixtures = append(paperWindowFixtures, windowFixture{"mat2.req.tiled60", a})
	})
	if paperWindowErr != nil {
		tb.Fatal(paperWindowErr)
	}
	return paperWindowFixtures
}

// tileTrace is tiles back-to-back copies of tr, each starting on a
// window-ws boundary past the previous copy's horizon.
func tileTrace(tr *trace.Trace, tiles int, ws int64) *trace.Trace {
	period := (tr.Horizon + ws - 1) / ws * ws
	out := &trace.Trace{
		NumReceivers: tr.NumReceivers,
		NumSenders:   tr.NumSenders,
		Horizon:      period * int64(tiles),
		Events:       make([]trace.Event, 0, len(tr.Events)*tiles),
	}
	for t := 0; t < tiles; t++ {
		for _, e := range tr.Events {
			e.Start += int64(t) * period
			out.Events = append(out.Events, e)
		}
	}
	return out
}

// reductionDigest hashes the kept window indices and every kept load
// (receiver-major) as little-endian int64s.
func reductionDigest(keep []int, comm [][]int64) string {
	h := sha256.New()
	var buf [8]byte
	put := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	put(int64(len(keep)))
	for _, m := range keep {
		put(int64(m))
	}
	for _, row := range comm {
		for _, v := range row {
			put(v)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestReduceWindowsPaperTraces pins the window reduction on the ten
// paper traces (seed 1, each at its WindowSizeHint): how many windows
// are kept, and a SHA-256 of the kept indices and loads. The reduction
// feeds the branch and bound, so a moved pin means the constraint set
// the solver sees changed.
func TestReduceWindowsPaperTraces(t *testing.T) {
	want := map[string]struct {
		kept   int
		digest string
	}{
		"mat1.req":   {8, "dd33cd2afd89e7820c3f822c964c389c7a4c46650d8a0f8a0ad8e62c9690fdee"},
		"mat1.resp":  {20, "cf32a7150bfe81120347566009131417aa03e519af1d157b503febcfc8edaac8"},
		"mat2.req":   {17, "b323a25589f02c861c6c73da02bc6cd6915593f923eb9375f3ba0d7f5908df89"},
		"mat2.resp":  {14, "1e8e7d6c86c647d4f3a4f4005deee901db52f450efdbb3e69c7f5537cc06406d"},
		"fft.req":    {1501, "3bb16285b67c8e47d6a94bde2cda6058b01ab50e5ad6d85785d3761b964cb269"},
		"fft.resp":   {1453, "17db3a21df209762725a37e1307f5e461e964721f9a2774058965dad7d8a4307"},
		"qsort.req":  {5, "60d742eed3d122bdcc81b4a8c5d03980b753f06c48e726bd59c6c5d59c77b69e"},
		"qsort.resp": {14, "e63aad7f9e58642b011716609c09c8e49168b4ae995a952d3eac38e21b7edfb8"},
		"des.req":    {67, "84cf4510d33dc388a2010e388dcb4712e01b1034dfd0b18e98a386b9a175d034"},
		"des.resp":   {10, "f34ea4c7bdbc1550e0b65795f4f2e4e510af99d62bd1c1c1a1f42987b032f735"},
	}
	seen := 0
	for _, f := range paperWindowAnalyses(t) {
		w, ok := want[f.name]
		if !ok {
			continue
		}
		seen++
		keep, comm := reduceWindows(f.a)
		if !slices.IsSorted(keep) {
			t.Errorf("%s: kept windows not ascending", f.name)
		}
		got := reductionDigest(keep, comm)
		if len(keep) != w.kept || got != w.digest {
			t.Errorf("%s: kept %d of %d windows, digest %s; pinned %d, %s", f.name, len(keep), f.a.NumWindows(), got, w.kept, w.digest)
		}
	}
	if seen != len(want) {
		t.Fatalf("checked %d paper traces, want %d", seen, len(want))
	}
}

// BenchmarkReduceWindows times the window reduction alone on each paper
// trace at its WindowSizeHint and on the spool-large shape (the Mat2
// request trace tiled 60× at window 800). The analyses are built once,
// outside the timer.
func BenchmarkReduceWindows(b *testing.B) {
	for _, f := range paperWindowAnalyses(b) {
		b.Run(f.name, func(b *testing.B) {
			var keep []int
			for i := 0; i < b.N; i++ {
				keep, _ = reduceWindows(f.a)
			}
			b.ReportMetric(float64(len(keep)), "kept")
		})
	}
}

// BenchmarkDesignHint designs each paper trace at its WindowSizeHint
// with DefaultOptions, the cold solve a request of the trace-cold
// workload makes after analysis, so the solver layer can be sized
// without the service. The spool-large shape is skipped.
func BenchmarkDesignHint(b *testing.B) {
	ctx := context.Background()
	opts := DefaultOptions()
	for _, f := range paperWindowAnalyses(b) {
		if f.name == "mat2.req.tiled60" {
			continue
		}
		b.Run(f.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := DesignCrossbarCtx(ctx, f.a, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestRadixSortStable checks the visit-order sort against a stable
// comparison sort, with key ranges from a single digit up to full
// 64-bit keys (several passes) and many ties.
func TestRadixSortStable(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(3000)
		keyBits := rng.Intn(65)
		key := make([]uint64, n)
		for i := range key {
			if keyBits > 0 {
				key[i] = rng.Uint64() >> (64 - keyBits)
			}
			if rng.Intn(4) == 0 && i > 0 {
				key[i] = key[rng.Intn(i)] // a tie
			}
		}
		order := make([]int32, n)
		for i := range order {
			order[i] = int32(i)
		}
		want := slices.Clone(order)
		slices.SortStableFunc(want, func(x, y int32) int { return cmp.Compare(key[x], key[y]) })
		if got := radixSortStable(order, key); !slices.Equal(got, want) {
			t.Fatalf("trial %d (%d keys of %d bits): radix order differs from the stable sort", trial, n, keyBits)
		}
	}
}
