package sim_test

import (
	"runtime"
	"testing"

	"repro/internal/experiments"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// TestSimAllocsMat2FullCrossbar bounds the allocations of one Mat2
// full-crossbar run with trace collection. The event queue, the
// transaction records and the collection buffers are sized by the
// platform and the programs, or reused from earlier runs, so a run
// allocates in proportion to its cores and buses, not to its ~10k
// transactions; a per-event or per-transfer allocation coming back
// shows up as tens of thousands.
func TestSimAllocsMat2FullCrossbar(t *testing.T) {
	app := workloads.Mat2(experiments.Seed)
	req, resp := app.FullConfig()
	cfg := app.SimConfig(req, resp)
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := sim.Run(cfg); err != nil {
			t.Fatal(err)
		}
	})
	if allocs >= 1000 {
		t.Errorf("Mat2 full-crossbar run: %.0f allocations, want < 1000", allocs)
	}
	t.Logf("%.0f allocations per run", allocs)
}

// TestSimBytesFFTFullCrossbar bounds the bytes of one FFT full-crossbar
// run with trace collection, the largest paper app, and checks that
// its Result holds no spare capacity. The Result's samples and two
// traces own about 2.5 MB. Collection buffers zeroed at the programs'
// bus-op count, regrown past it by lock retries and then copied took a
// run to 8.19 MB; reused buffers leave little more than the Result.
func TestSimBytesFFTFullCrossbar(t *testing.T) {
	// One P, set before the pool is warmed: sync.Pool hands a buffer
	// back to the P that put it, and a goroutine moved to another P
	// between runs would miss it.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	app := workloads.FFT(experiments.Seed)
	req, resp := app.FullConfig()
	cfg := app.SimConfig(req, resp)
	res, err := sim.Run(cfg) // also warms the collection buffers
	if err != nil {
		t.Fatal(err)
	}
	for name, n := range map[string][2]int{
		"samples":     {len(res.Latency.Samples()), cap(res.Latency.Samples())},
		"req events":  {len(res.ReqTrace.Events), cap(res.ReqTrace.Events)},
		"resp events": {len(res.RespTrace.Events), cap(res.RespTrace.Events)},
	} {
		if n[0] != n[1] {
			t.Errorf("%s: len %d, cap %d; want no spare capacity", name, n[0], n[1])
		}
	}
	if raceEnabled {
		t.Skip("byte bound not checked: the race detector makes sync.Pool drop buffers at random")
	}
	const runs = 3
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		if _, err := sim.Run(cfg); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	bytes := (after.TotalAlloc - before.TotalAlloc) / runs
	if bytes > 4_000_000 {
		t.Errorf("FFT full-crossbar run: %d bytes, want at most 4,000,000", bytes)
	}
	t.Logf("%d bytes per run", bytes)
}
