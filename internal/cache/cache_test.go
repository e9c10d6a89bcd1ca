package cache

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/trace"
)

// testCtx is the no-op context every cache call in these tests uses.
var testCtx = context.Background()

// mkAnalysis builds a small deterministic analysis; variant selects
// distinct content so tests can populate the cache with many keys.
func mkAnalysis(t *testing.T, variant int) *trace.Analysis {
	t.Helper()
	nRecv := 4
	tr := &trace.Trace{NumReceivers: nRecv, NumSenders: 1, Horizon: 400}
	for r := 0; r < nRecv; r++ {
		tr.Events = append(tr.Events, trace.Event{
			Start:    int64(r * 37 % 350),
			Len:      int64(20 + (r*13+variant)%30),
			Receiver: r,
		})
	}
	a, err := trace.AnalyzeCtx(context.Background(), tr, 100)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func testOpts() core.Options { return core.DefaultOptions() }

// sameCrossbar compares the designed artifact, ignoring the solver
// effort counter.
func sameCrossbar(a, b *core.Design) bool {
	return a.NumBuses == b.NumBuses &&
		reflect.DeepEqual(a.BusOf, b.BusOf) &&
		a.MaxBusOverlap == b.MaxBusOverlap &&
		a.Conflicts == b.Conflicts &&
		a.Capped == b.Capped
}

// TestExactHitRoundTrip: the second design of identical content is an
// exact hit returning the same crossbar, and the handed-out design is
// a private copy (mutating it cannot poison the cache).
func TestExactHitRoundTrip(t *testing.T) {
	a := mkAnalysis(t, 0)
	s := New(Config{})
	opts := testOpts()
	opts.Cache = s

	d1, err := core.DesignCrossbar(a, opts)
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 1 {
		t.Fatalf("cache has %d entries after one design", s.Len())
	}
	// A structurally fresh analysis with equal content must hit too:
	// identity is the fingerprint, not the pointer.
	d2, err := core.DesignCrossbar(mkAnalysis(t, 0), opts)
	if err != nil {
		t.Fatal(err)
	}
	if !sameCrossbar(d1, d2) {
		t.Fatalf("hit %+v differs from cold %+v", d2, d1)
	}
	d2.BusOf[0] = 99
	d3, _ := core.DesignCrossbar(a, opts)
	if d3.BusOf[0] == 99 {
		t.Fatal("caller mutation reached the cached design")
	}
}

// TestEvictionOrder pins LRU semantics: capacity overflow evicts the
// least recently used key, and both lookups and re-stores refresh
// recency.
func TestEvictionOrder(t *testing.T) {
	s := New(Config{MaxEntries: 2})
	opts := testOpts()
	a := []*trace.Analysis{mkAnalysis(t, 0), mkAnalysis(t, 1), mkAnalysis(t, 2), mkAnalysis(t, 3)}
	d := &core.Design{NumBuses: 1, BusOf: []int{0, 0, 0, 0}}

	s.Store(testCtx, a[0], opts, d)
	s.Store(testCtx, a[1], opts, d)
	s.Store(testCtx, a[2], opts, d) // evicts a[0]
	if _, ok := s.Lookup(testCtx, a[0], opts); ok {
		t.Fatal("oldest entry survived eviction")
	}
	if _, ok := s.Lookup(testCtx, a[1], opts); !ok {
		t.Fatal("a[1] evicted out of order")
	}
	// a[1] was just touched, so adding a fourth key must evict a[2].
	s.Store(testCtx, a[3], opts, d)
	if _, ok := s.Lookup(testCtx, a[2], opts); ok {
		t.Fatal("touched entry evicted instead of LRU victim")
	}
	if _, ok := s.Lookup(testCtx, a[1], opts); !ok {
		t.Fatal("recently used entry evicted")
	}
	if _, ok := s.Lookup(testCtx, a[3], opts); !ok {
		t.Fatal("newest entry missing")
	}
	if s.Len() != 2 {
		t.Fatalf("capacity 2 holds %d entries", s.Len())
	}
}

// TestOptionsPartitionKeys: same analysis, different answer-affecting
// options — distinct keys, no cross-talk.
func TestOptionsPartitionKeys(t *testing.T) {
	a := mkAnalysis(t, 0)
	s := New(Config{})
	opts := testOpts()
	opts.Cache = s
	d1, err := core.DesignCrossbar(a, opts)
	if err != nil {
		t.Fatal(err)
	}
	other := opts
	other.OptimizeBinding = false
	if _, ok := s.Lookup(testCtx, a, other); ok {
		t.Fatal("options change did not change the key")
	}
	// A non-answer knob (audit) shares the key.
	alias := opts
	alias.Audit = true
	got, ok := s.Lookup(testCtx, a, alias)
	if !ok || !sameCrossbar(got, d1) {
		t.Fatal("audit knob perturbed the content key")
	}
}

// diskCorruptions are the damaged entry files the disk tier must reject:
// TestDiskTierRoundTrip applies them to a real entry, and FuzzCacheEntry
// seeds its corpus with them.
var diskCorruptions = []struct {
	name   string
	mutate func([]byte) []byte
}{
	{"bit-flipped", func(b []byte) []byte { b[len(b)-1] ^= 0x40; return b }},
	{"truncated", func(b []byte) []byte { return b[:len(b)/2] }},
	{"stale-version", func(b []byte) []byte { b[8] ^= 0xFF; return b }},
	{"foreign-magic", func(b []byte) []byte { b[0] = 'X'; return b }},
}

// TestDiskTierRoundTrip: a second Store instance over the same
// directory serves the entry; corruption, truncation, a stale version
// and a foreign magic are each rejected as misses.
func TestDiskTierRoundTrip(t *testing.T) {
	dir := t.TempDir()
	a := mkAnalysis(t, 0)
	opts := testOpts()
	opts.Cache = New(Config{Dir: dir})
	d1, err := core.DesignCrossbar(a, opts)
	if err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob(filepath.Join(dir, "*.stbusc"))
	if err != nil || len(files) != 1 {
		t.Fatalf("want one cache file, got %v (%v)", files, err)
	}
	path := files[0]

	fresh := func() *Store { return New(Config{Dir: dir}) }
	if d2, ok := fresh().Lookup(testCtx, a, opts); !ok || !sameCrossbar(d2, d1) {
		t.Fatalf("disk round-trip failed: ok=%v", ok)
	}

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range diskCorruptions {
		if err := os.WriteFile(path, c.mutate(append([]byte(nil), raw...)), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, ok := fresh().Lookup(testCtx, a, opts); ok {
			t.Fatalf("%s entry was trusted", c.name)
		}
	}
	// Restore the pristine bytes: the entry must be trusted again
	// (proves the rejections above were each due to the mutation).
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := fresh().Lookup(testCtx, a, opts); !ok {
		t.Fatal("pristine entry rejected")
	}
}

// TestWarmLookup: near-identical content lends its binding, unrelated
// content and disabled warm lookups do not.
func TestWarmLookup(t *testing.T) {
	base := mkAnalysis(t, 0)
	opts := testOpts()
	s := New(Config{})
	d := &core.Design{NumBuses: 2, BusOf: []int{0, 1, 0, 1}, MaxBusOverlap: 3}
	s.Store(testCtx, base, opts, d)

	if inc := s.Warm(testCtx, base, opts); inc == nil || !reflect.DeepEqual(inc.BusOf, d.BusOf) {
		t.Fatalf("identical content not warm-served: %+v", inc)
	}
	// Mutating the handed-out incumbent must not poison the cache.
	s.Warm(testCtx, base, opts).BusOf[0] = 9
	if inc := s.Warm(testCtx, base, opts); inc.BusOf[0] == 9 {
		t.Fatal("caller mutation reached the cached binding")
	}
	// A different option fingerprint never warms.
	other := opts
	other.MaxPerBus++
	if inc := s.Warm(testCtx, base, other); inc != nil {
		t.Fatal("warm hit across option fingerprints")
	}
	// Warm lookups disabled.
	off := New(Config{MaxDeltaFrac: Delta(-1)})
	off.Store(testCtx, base, opts, d)
	if inc := off.Warm(testCtx, base, opts); inc != nil {
		t.Fatal("disabled warm tier served an incumbent")
	}
	// A wholesale different problem is past any delta budget.
	tight := New(Config{MaxDeltaFrac: Delta(0.01)})
	tight.Store(testCtx, base, opts, d)
	far := mkAnalysis(t, 7)
	if inc := tight.Warm(testCtx, far, opts); inc != nil {
		t.Fatal("far content warm-served under a tight budget")
	}
}

// TestConcurrentSameFingerprint hammers one Store from many goroutines
// designing the same problem (run under -race in CI): every result
// must be the same crossbar, and the cache must end up with exactly
// one entry.
func TestConcurrentSameFingerprint(t *testing.T) {
	s := New(Config{Dir: t.TempDir()})
	opts := testOpts()
	opts.Cache = s
	ref, err := core.DesignCrossbar(mkAnalysis(t, 0), testOpts())
	if err != nil {
		t.Fatal(err)
	}
	const workers = 8
	var wg sync.WaitGroup
	designs := make([]*core.Design, workers*4)
	errs := make([]error, workers*4)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Private analysis per goroutine: equal content, distinct
			// memory — the contended path is the fingerprint map.
			a := mkAnalysis(t, 0)
			for i := 0; i < 4; i++ {
				designs[w*4+i], errs[w*4+i] = core.DesignCrossbar(a, opts)
			}
		}(w)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("design %d: %v", i, err)
		}
		if !sameCrossbar(designs[i], ref) {
			t.Fatalf("design %d diverged: %+v vs %+v", i, designs[i], ref)
		}
	}
	if s.Len() != 1 {
		t.Fatalf("cache holds %d entries for one fingerprint", s.Len())
	}
}

// TestZeroDeltaExactOnly pins the Config.MaxDeltaFrac zero-value
// semantics: Delta(0) means exact-match-only — a single perturbed
// constraint cell must miss the warm tier — while leaving the field
// nil keeps the default tolerance that admits the same perturbation.
// (A float64 field once treated 0 as "unset" and promoted it to the
// 0.15 default, making exact-only caching unreachable.)
func TestZeroDeltaExactOnly(t *testing.T) {
	base := mkAnalysis(t, 0)
	opts := testOpts()
	d := &core.Design{NumBuses: 2, BusOf: []int{0, 1, 0, 1}, MaxBusOverlap: 3}

	// One perturbed cell: same shape and windows, one Comm value off by
	// one cycle.
	// Receiver 0 is busy in window 0, and the clone owns its cells.
	perturbed := base.Clone()
	perturbed.Comm.RowCells(0)[0].Val++
	if diffs, ok := trace.CountDiffs(perturbed, base, 0); !ok || diffs != 1 {
		t.Fatalf("perturbation diffs = %d (ok=%v), want exactly 1", diffs, ok)
	}

	exact := New(Config{MaxDeltaFrac: Delta(0)})
	exact.Store(testCtx, base, opts, d)
	if _, ok := exact.Lookup(testCtx, base, opts); !ok {
		t.Fatal("identical content must still hit exactly at Delta(0)")
	}
	if inc := exact.Warm(testCtx, perturbed, opts); inc != nil {
		t.Fatalf("1-cell perturbation warm-served at Delta(0): %+v", inc)
	}

	dflt := New(Config{})
	dflt.Store(testCtx, base, opts, d)
	if inc := dflt.Warm(testCtx, perturbed, opts); inc == nil {
		t.Fatal("1-cell perturbation must warm-serve under the default tolerance")
	}
}
