// Command tracestat summarizes a functional traffic trace: per-receiver
// duty cycles (average and peak-window), burst statistics, and the
// pairwise overlap structure that drives the crossbar design. Use it to
// pick analysis parameters (window size relative to bursts, overlap
// threshold) before running xbargen.
//
// With -stream, the binary trace is instead analyzed directly from the
// memory-mapped file without materializing the events
// (trace.AnalyzeFileSharded), so arbitrarily long traces fit in memory
// bounded by the output tables. -shards N (0 = one per CPU core) sets
// the shard count; every count, 1 included, runs the same driver and
// gives the same analysis. The report then covers the window analysis,
// per-shard throughput and the measured allocation footprint.
//
// Usage:
//
//	tracestat -trace mat2.req.trc
//	tracestat -trace mat2.req.trc -window 800
//	tracestat -trace huge.trc -window 800 -stream
//	tracestat -trace huge.trc -window 800 -stream -shards 8
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"

	"repro/internal/cli"
	"repro/internal/trace"
)

var (
	tracePath = flag.String("trace", "", "trace file (binary or JSON)")
	window    = flag.Int64("window", 0, "window size for peak-duty analysis (0 = mean burst × 2)")
	jsonTrace = flag.Bool("json", false, "trace file is JSON")
	stream    = flag.Bool("stream", false, "analyze the binary trace by streaming (requires -window > 0; events are never loaded into memory)")
)

func main() { cli.Main("tracestat", run) }

func run(ctx context.Context) (err error) {

	if *tracePath == "" {
		return errors.New("missing -trace")
	}
	if *stream {
		return runStream(ctx, *tracePath)
	}
	f, err := os.Open(*tracePath)
	if err != nil {
		return err
	}
	defer f.Close()
	var tr *trace.Trace
	if *jsonTrace {
		tr, err = trace.ReadJSON(f)
	} else {
		tr, err = trace.ReadBinary(f)
	}
	if err != nil {
		return err
	}

	bursts := tr.Bursts()
	fmt.Printf("trace: %d senders → %d receivers, %d events, horizon %d cycles\n",
		tr.NumSenders, tr.NumReceivers, len(tr.Events), tr.Horizon)
	fmt.Printf("bursts: %d, mean %.0f cycles, max %d\n", bursts.Count, bursts.MeanLen, bursts.MaxLen)

	ws := *window
	if ws <= 0 {
		ws = int64(bursts.MeanLen * 2)
		if ws < 1 {
			ws = tr.Horizon / 100
		}
		if ws < 1 {
			ws = 1
		}
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	peak, err := tr.PeakWindowDuty(ws)
	if err != nil {
		return err
	}
	duty := tr.DutyCycles()
	fmt.Printf("\nper-receiver duty (window %d cycles):\n", ws)
	fmt.Printf("  %8s  %8s  %8s  %s\n", "receiver", "avg duty", "peak", "burstiness")
	for r := 0; r < tr.NumReceivers; r++ {
		ratio := 0.0
		if duty[r] > 0 {
			ratio = peak[r] / duty[r]
		}
		fmt.Printf("  %8d  %7.1f%%  %7.1f%%  %.1fx\n", r, duty[r]*100, peak[r]*100, ratio)
	}

	fmt.Println("\nburst length histogram (powers of two):")
	bounds, counts := tr.BurstHistogram(1, 12)
	for i := range bounds {
		if counts[i] == 0 {
			continue
		}
		fmt.Printf("  >=%7d cycles: %d\n", bounds[i], counts[i])
	}

	if err := ctx.Err(); err != nil {
		return err
	}
	ov := tr.OverlapFractions()
	fmt.Println("\nheaviest pairwise overlaps (fraction of the lighter stream):")
	type pair struct {
		i, j int
		f    float64
	}
	var pairs []pair
	for i := 0; i < tr.NumReceivers; i++ {
		for j := i + 1; j < tr.NumReceivers; j++ {
			if f := ov.At(i, j); f > 0 {
				pairs = append(pairs, pair{i, j, f})
			}
		}
	}
	// Selection of the top 10 without sorting the whole list is not
	// worth the code; sort simply.
	for a := 0; a < len(pairs); a++ {
		for b := a + 1; b < len(pairs); b++ {
			if pairs[b].f > pairs[a].f {
				pairs[a], pairs[b] = pairs[b], pairs[a]
			}
		}
	}
	if len(pairs) > 10 {
		pairs = pairs[:10]
	}
	for _, p := range pairs {
		fmt.Printf("  r%-3d r%-3d %.0f%%\n", p.i, p.j, p.f*100)
	}
	if len(pairs) == 0 {
		fmt.Println("  (none)")
	}
	return nil
}

// runStream analyzes the binary trace without materializing the events
// — through the mmap-backed image driver at -shards shards — and
// reports the window analysis alongside per-shard throughput and the
// measured allocation footprint.
func runStream(ctx context.Context, path string) error {
	if *jsonTrace {
		return errors.New("-stream reads the binary format only (JSON traces must be loaded; drop -stream)")
	}
	if *window <= 0 {
		return errors.New("-stream needs an explicit -window > 0 (the default window heuristic requires burst statistics, which a single streaming pass does not collect)")
	}

	var before runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)

	var stats trace.ShardStats
	a, err := trace.AnalyzeFileSharded(ctx, path, *window, cli.Shards(), &stats)
	if err != nil {
		return err
	}

	var after runtime.MemStats
	runtime.ReadMemStats(&after)

	nW := a.NumWindows()
	fmt.Printf("streamed analysis: %d receivers, %d windows of %d cycles\n",
		a.NumReceivers, nW, *window)
	fmt.Printf("shards: %d (plan %.2fms, merge %.2fms), %.1fM events/s aggregate\n",
		len(stats.Shards), float64(stats.PlanNS)/1e6, float64(stats.MergeNS)/1e6, stats.EventsPerSec()/1e6)
	for s, st := range stats.Shards {
		rate := 0.0
		if st.NS > 0 {
			rate = float64(st.Events) / (float64(st.NS) / 1e9)
		}
		fmt.Printf("  shard %2d: %7d windows  %10d events  %8.2fms  %7.1fM ev/s\n",
			s, st.Windows, st.Events, float64(st.NS)/1e6, rate/1e6)
	}
	fmt.Printf("max window load: %d fully-loaded buses\n", a.MaxWindowLoad())
	fmt.Printf("pair summaries: %d of %d receiver pairs overlap\n", len(a.Pairs), a.NumReceivers*(a.NumReceivers-1)/2)

	var busiest int
	var busiestCycles int64
	for i := 0; i < a.NumReceivers; i++ {
		if total := a.Comm.RowSum(i); total > busiestCycles {
			busiest, busiestCycles = i, total
		}
	}
	fmt.Printf("busiest receiver: r%d with %d busy cycles\n", busiest, busiestCycles)

	allocDelta := after.TotalAlloc - before.TotalAlloc
	fmt.Printf("\nmemory: %.1f MiB allocated during analysis, %.1f MiB heap in use after\n",
		float64(allocDelta)/(1<<20), float64(after.HeapInuse)/(1<<20))
	fmt.Println("(the mapped trace is decoded block by block; peak memory is the output tables plus per-shard O(receivers) sweep state, independent of trace length)")
	return nil
}
