package core

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/trace"
)

// stubCache is a scriptable core.Cache for exercising the warm design
// path without importing the real implementation (internal/cache sits
// above this package).
type stubCache struct {
	hit     *Design
	warm    *Incumbent
	stored  []*Design
	lookups int
	warms   int
}

func (s *stubCache) Lookup(_ context.Context, a *trace.Analysis, opts Options) (*Design, bool) {
	s.lookups++
	if s.hit == nil {
		return nil, false
	}
	return s.hit, true
}

func (s *stubCache) Warm(_ context.Context, a *trace.Analysis, opts Options) *Incumbent {
	s.warms++
	return s.warm
}

func (s *stubCache) Store(_ context.Context, a *trace.Analysis, opts Options, d *Design) {
	s.stored = append(s.stored, d)
}

// sameCrossbar compares the designed artifact — everything except
// SearchNodes, which accounts solver effort, not the answer.
func sameCrossbar(a, b *Design) bool {
	return a.NumBuses == b.NumBuses &&
		reflect.DeepEqual(a.BusOf, b.BusOf) &&
		a.MaxBusOverlap == b.MaxBusOverlap &&
		a.Conflicts == b.Conflicts &&
		a.Engine == b.Engine &&
		a.Capped == b.Capped
}

// TestCacheExactHitSkipsSolve: a Lookup hit is returned as-is with no
// solver work and no re-store.
func TestCacheExactHitSkipsSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a := randomAnalysis(t, rng, 5)
	canned := &Design{NumBuses: 3, BusOf: []int{0, 1, 2, 0, 1}, MaxBusOverlap: 7}
	cache := &stubCache{hit: canned}
	opts := DefaultOptions()
	opts.Cache = cache
	d, err := DesignCrossbar(a, opts)
	if err != nil {
		t.Fatal(err)
	}
	if d != canned {
		t.Errorf("hit not returned verbatim: %+v", d)
	}
	if cache.lookups != 1 || cache.warms != 0 || len(cache.stored) != 0 {
		t.Errorf("lookups=%d warms=%d stores=%d, want 1/0/0", cache.lookups, cache.warms, len(cache.stored))
	}
}

// TestCacheStoresSolvedDesigns: a miss solves cold and offers the
// finished design; an infeasible run offers nothing.
func TestCacheStoresSolvedDesigns(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	a := randomAnalysis(t, rng, 5)
	cache := &stubCache{}
	opts := DefaultOptions()
	opts.Cache = cache
	d, err := DesignCrossbar(a, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(cache.stored) != 1 || !sameCrossbar(cache.stored[0], d) {
		t.Fatalf("stored %d designs, want the returned one", len(cache.stored))
	}

	// Force infeasibility: everything conflicts, one bus allowed.
	cache = &stubCache{}
	opts = Options{OverlapThreshold: 0, MaxBuses: 1, Cache: cache}
	if _, err := DesignCrossbar(a, opts); err == nil {
		t.Skip("case unexpectedly feasible")
	}
	if len(cache.stored) != 0 {
		t.Errorf("infeasible run stored %d designs", len(cache.stored))
	}
}

// TestCacheWarmEquivalence is the bit-identity property of the warm
// path: across random problems, engines and binding modes, a design
// produced with any warm incumbent — the problem's own cold binding, a
// nearby problem's binding, or outright garbage — must equal the cold
// design exactly. The incumbent may only change how fast the answer
// arrives.
func TestCacheWarmEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	engines := []Engine{EngineBranchBound, EngineMILP}
	for iter := 0; iter < 60; iter++ {
		nRecv := 3 + rng.Intn(4)
		a := randomAnalysis(t, rng, nRecv)
		opts := Options{
			OverlapThreshold: []float64{-1, 0.3, 0.5}[rng.Intn(3)],
			SeparateCritical: rng.Intn(2) == 0,
			MaxPerBus:        rng.Intn(4),
			OptimizeBinding:  rng.Intn(3) != 0,
			Engine:           engines[iter%len(engines)],
			Workers:          1 + rng.Intn(3),
		}
		cold, coldErr := DesignCrossbar(a, opts)

		incumbents := []*Incumbent{
			nil,
			{NumBuses: nRecv, BusOf: make([]int, nRecv)}, // all on bus 0 of nRecv — usually invalid
			{NumBuses: 2, BusOf: []int{0}},               // wrong length
		}
		if coldErr == nil {
			incumbents = append(incumbents,
				&Incumbent{NumBuses: cold.NumBuses, BusOf: append([]int(nil), cold.BusOf...)},
				&Incumbent{NumBuses: cold.NumBuses + 1, BusOf: append([]int(nil), cold.BusOf...)},
			)
		}
		// A garbage random incumbent too.
		gb := make([]int, nRecv)
		for i := range gb {
			gb[i] = rng.Intn(nRecv) - 1
		}
		incumbents = append(incumbents, &Incumbent{NumBuses: nRecv - 1, BusOf: gb})

		for wi, warm := range incumbents {
			wopts := opts
			wopts.Cache = &stubCache{warm: warm}
			got, err := DesignCrossbar(a, wopts)
			if (err == nil) != (coldErr == nil) {
				t.Fatalf("iter %d warm %d: err=%v, cold err=%v", iter, wi, err, coldErr)
			}
			if coldErr != nil {
				continue
			}
			if !sameCrossbar(got, cold) {
				t.Fatalf("iter %d warm %d (engine %v, optimize %v): warm design %+v, cold %+v",
					iter, wi, opts.Engine, opts.OptimizeBinding, got, cold)
			}
		}
	}
}

// TestCacheWarmFromPerturbedProblem is the delta-solve scenario: the
// incumbent comes from a design of a nearby (perturbed) problem, and
// the warm result must still be exactly the cold design of the new
// problem.
func TestCacheWarmFromPerturbedProblem(t *testing.T) {
	rng := rand.New(rand.NewSource(177))
	for iter := 0; iter < 40; iter++ {
		nRecv := 4 + rng.Intn(3)
		horizon := int64(400)
		var events []trace.Event
		for r := 0; r < nRecv; r++ {
			n := 1 + rng.Intn(5)
			for e := 0; e < n; e++ {
				events = append(events, trace.Event{
					Start:    int64(rng.Intn(350)),
					Len:      1 + int64(rng.Intn(49)),
					Receiver: r,
					Critical: rng.Intn(8) == 0,
				})
			}
		}
		base := mkAnalysis(t, nRecv, horizon, 100, events)
		// Perturb a few event lengths and re-analyze.
		perturbed := append([]trace.Event(nil), events...)
		for k := 0; k < 1+len(events)/10; k++ {
			i := rng.Intn(len(perturbed))
			perturbed[i].Len = 1 + (perturbed[i].Len+int64(rng.Intn(5)))%49
		}
		next := mkAnalysis(t, nRecv, horizon, 100, perturbed)

		opts := DefaultOptions()
		opts.Engine = []Engine{EngineBranchBound, EngineMILP}[iter%2]
		opts.Workers = 1

		prior, err := DesignCrossbar(base, opts)
		if err != nil {
			continue // conflicted base problem; nothing to warm from
		}
		cold, coldErr := DesignCrossbar(next, opts)

		wopts := opts
		wopts.Cache = &stubCache{warm: &Incumbent{NumBuses: prior.NumBuses, BusOf: prior.BusOf}}
		got, err := DesignCrossbar(next, wopts)
		if (err == nil) != (coldErr == nil) {
			t.Fatalf("iter %d: warm err=%v, cold err=%v", iter, err, coldErr)
		}
		if coldErr != nil {
			continue
		}
		if !sameCrossbar(got, cold) {
			t.Fatalf("iter %d (engine %v): delta design %+v, cold %+v", iter, opts.Engine, got, cold)
		}
	}
}
