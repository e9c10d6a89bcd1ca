package sim_test

import (
	"testing"

	"repro/internal/experiments"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// TestSimAllocsMat2FullCrossbar bounds the allocations of one Mat2
// full-crossbar run with trace collection. The event queue, the
// transaction records and the output buffers are sized by the
// platform and the programs, so a run allocates in proportion to its
// cores and buses, not to its ~10k transactions; a per-event or
// per-transfer allocation coming back shows up as tens of thousands.
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
