package workloads

import (
	"testing"

	"repro/internal/sim"
)

func TestPlatformLayouts(t *testing.T) {
	cases := []struct {
		app       *App
		wantCores int
		wantInit  int
	}{
		{Mat1(1), 25, 11},
		{Mat2(1), 21, 9},
		{FFT(1), 29, 13},
		{QSort(1), 15, 6},
		{DES(1), 19, 8},
	}
	for _, c := range cases {
		t.Run(c.app.Name, func(t *testing.T) {
			if got := c.app.NumCores(); got != c.wantCores {
				t.Errorf("NumCores = %d, want %d (paper core count)", got, c.wantCores)
			}
			if c.app.NumInitiators != c.wantInit {
				t.Errorf("NumInitiators = %d, want %d", c.app.NumInitiators, c.wantInit)
			}
			if c.app.NumTargets != c.wantInit+3 {
				t.Errorf("NumTargets = %d, want %d (privates + shared + sem + interrupt)",
					c.app.NumTargets, c.wantInit+3)
			}
			if len(c.app.Programs) != c.app.NumInitiators {
				t.Errorf("Programs = %d, want %d", len(c.app.Programs), c.app.NumInitiators)
			}
			if c.app.Horizon <= 0 || c.app.WindowSize <= 0 {
				t.Error("Horizon and WindowSize must be positive")
			}
		})
	}
}

func TestProgramsValidate(t *testing.T) {
	apps := All(1)
	apps = append(apps, Synthetic(1, 1000), Mat2Critical(1, 0, 3))
	for _, app := range apps {
		t.Run(app.Name, func(t *testing.T) {
			req, resp := app.FullConfig()
			cfg := app.SimConfig(req, resp)
			if err := cfg.Validate(); err != nil {
				t.Fatalf("generated config invalid: %v", err)
			}
		})
	}
}

// TestProgramsPresized checks that every program is allocated once at
// its final length: a miscount would either regrow the slice or leave
// spare capacity behind.
func TestProgramsPresized(t *testing.T) {
	apps := All(1)
	apps = append(apps, Synthetic(1, 1000), Mat2Critical(1, 0, 3))
	for _, app := range apps {
		for i, prog := range app.Programs {
			if len(prog) != cap(prog) {
				t.Errorf("%s core %d: %d ops in a slice of capacity %d", app.Name, i, len(prog), cap(prog))
			}
		}
	}
}

func TestDeterministicGeneration(t *testing.T) {
	a, b := Mat2(7), Mat2(7)
	if len(a.Programs) != len(b.Programs) {
		t.Fatal("program counts differ")
	}
	for i := range a.Programs {
		if len(a.Programs[i]) != len(b.Programs[i]) {
			t.Fatalf("core %d program lengths differ", i)
		}
		for pc := range a.Programs[i] {
			if a.Programs[i][pc] != b.Programs[i][pc] {
				t.Fatalf("core %d op %d differs", i, pc)
			}
		}
	}
	c := Mat2(8)
	same := true
	for i := range a.Programs {
		if len(a.Programs[i]) != len(c.Programs[i]) {
			same = false
			break
		}
		for pc := range a.Programs[i] {
			if a.Programs[i][pc] != c.Programs[i][pc] {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("different seeds produced identical programs")
	}
}

func TestPipelineGroupsShareSchedule(t *testing.T) {
	// Mat2 uses 3 pipeline stages: cores 0 and 3 are the same stage and
	// must have identical access schedules apart from the skew/shared
	// accesses; cores 0 and 1 are different stages and must differ.
	app := Mat2(1)
	count := func(core int, kind sim.OpKind) int {
		n := 0
		for _, op := range app.Programs[core] {
			if op.Kind == kind {
				n++
			}
		}
		return n
	}
	if count(0, sim.OpRead) != count(3, sim.OpRead) {
		t.Error("same-stage cores have different read counts")
	}
	// Different stages: core 1 delays its phase (stage offset compute op
	// right after each barrier).
	foundOffset := false
	for pc, op := range app.Programs[1] {
		if op.Kind == sim.OpBarrier && pc+1 < len(app.Programs[1]) {
			next := app.Programs[1][pc+1]
			if next.Kind == sim.OpCompute && next.Cycles >= 300 {
				foundOffset = true
			}
			break
		}
	}
	if !foundOffset {
		t.Error("stage-1 core does not delay its phase after the barrier")
	}
}

func TestCriticalMarking(t *testing.T) {
	app := Mat2Critical(1, 0, 4)
	for _, core := range []int{0, 4} {
		hasCritical := false
		for _, op := range app.Programs[core] {
			if (op.Kind == sim.OpRead || op.Kind == sim.OpWrite) && op.Target == app.PrivateOf[core] && op.Critical {
				hasCritical = true
			}
		}
		if !hasCritical {
			t.Errorf("core %d private accesses not marked critical", core)
		}
	}
	// Unmarked core stays non-critical.
	for _, op := range app.Programs[1] {
		if op.Critical {
			t.Error("core 1 has critical ops but was not marked")
			break
		}
	}
}

func TestSyntheticShape(t *testing.T) {
	app := Synthetic(1, 1000)
	if app.NumCores() != 20 {
		t.Errorf("NumCores = %d, want 20", app.NumCores())
	}
	if app.SemTarget != -1 || len(app.SemTargets()) != 0 {
		t.Error("synthetic app should have no semaphore")
	}
	// Each core only writes to its own target.
	for i, prog := range app.Programs {
		for _, op := range prog {
			if op.Kind == sim.OpWrite && op.Target != i {
				t.Errorf("core %d writes target %d, want %d", i, op.Target, i)
			}
		}
	}
}

func TestSyntheticPanicsOnBadBurst(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for non-positive burst")
		}
	}()
	Synthetic(1, 0)
}

func TestSyntheticBurstLengthsScale(t *testing.T) {
	// The nominal burst parameter controls the generated burst scale.
	small := Synthetic(1, 500)
	large := Synthetic(1, 4000)
	maxBurst := func(app *App) int64 {
		var m int64
		for _, prog := range app.Programs {
			for _, op := range prog {
				if op.Kind == sim.OpWrite && op.Burst > m {
					m = op.Burst
				}
			}
		}
		return m
	}
	if maxBurst(large) < 4*maxBurst(small) {
		t.Errorf("burst scaling broken: max %d (500) vs %d (4000)", maxBurst(small), maxBurst(large))
	}
}

func TestAppsCompleteOnFullCrossbar(t *testing.T) {
	if testing.Short() {
		t.Skip("full simulations in -short mode")
	}
	for _, app := range All(1) {
		t.Run(app.Name, func(t *testing.T) {
			req, resp := app.FullConfig()
			res, err := sim.Run(app.SimConfig(req, resp))
			if err != nil {
				t.Fatal(err)
			}
			if res.Completed != app.NumInitiators {
				t.Errorf("only %d/%d cores completed within the horizon",
					res.Completed, app.NumInitiators)
			}
		})
	}
}
