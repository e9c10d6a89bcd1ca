// Package cache implements the content-addressed design cache that
// front-ends core.DesignCrossbarCtx (it is the canonical implementation
// of the core.Cache interface, wired in via core.Options.Cache).
//
// Identity is the pair of content fingerprints (Analysis.Fingerprint,
// Options.Fingerprint): two problems with equal fingerprints are the
// same problem no matter how their matrices were constructed, so a hit
// returns the stored design with zero solver work. Near misses are
// served as warm incumbents: among cached entries with the same option
// fingerprint and receiver count, the most recently used one whose
// constraint diff against the new analysis is small enough (see
// Config.MaxDeltaFrac) lends its binding as a starting point. Core
// re-validates the binding before using it, so a warm answer is a pure
// accelerator — the designed crossbar is bit-identical to a cold solve.
//
// The in-memory tier is a bounded LRU. An optional on-disk tier
// (Config.Dir) persists exact-hit entries across processes in
// versioned, checksummed files; entries that fail any integrity check
// are ignored, never trusted. Disk entries carry only the design (no
// analysis), so they serve exact hits but not warm starts.
package cache

import (
	"container/list"
	"context"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/trace"
)

// Cache traffic instruments (see internal/obs): exact hits and misses,
// warm (near-hit) lookups served, LRU evictions, and disk-tier entries
// rejected by an integrity check.
var (
	metHits        = obs.NewCounter("cache.hits")
	metMisses      = obs.NewCounter("cache.misses")
	metWarmHits    = obs.NewCounter("cache.warm_hits")
	metEvicts      = obs.NewCounter("cache.evictions")
	metDiskHits    = obs.NewCounter("cache.disk_hits")
	metDiskRejects = obs.NewCounter("cache.disk_rejects")
	metLookupNS    = obs.NewHistogram("cache.lookup_ns")
)

// Config tunes a Store. The zero value is valid: a memory-only cache
// with the default capacity and delta tolerance.
type Config struct {
	// MaxEntries bounds the in-memory tier (LRU eviction beyond it).
	// 0 means DefaultMaxEntries.
	MaxEntries int
	// Dir, when non-empty, enables the on-disk tier in that directory
	// (created on first write). Disk I/O is best-effort: an unreadable
	// or corrupt entry is a miss, a failed write is dropped silently —
	// the cache never turns a solvable design into an error.
	Dir string
	// MaxDeltaFrac bounds how different a cached problem may be and
	// still lend its binding as a warm incumbent: the number of
	// differing constraint cells (trace.CountDiffs) must not exceed
	// this fraction of the problem's dense cell count. nil means
	// DefaultMaxDeltaFrac; use Delta to set an explicit value. Delta(0)
	// means exact-match-only — any perturbed problem misses — and a
	// negative value skips the warm scan entirely (same admissions as
	// zero, without walking the LRU). The field is a pointer precisely
	// so the zero fraction is expressible: an earlier float64 field
	// treated 0 as "unset" and silently promoted it to the default,
	// making exact-only caching unreachable.
	MaxDeltaFrac *float64
}

// Delta returns a pointer to f for Config.MaxDeltaFrac — the explicit
// counterpart of leaving the field nil (default tolerance).
func Delta(f float64) *float64 { return &f }

const (
	// DefaultMaxEntries is sized for the repository's workloads: the
	// full experiment sweep designs a few hundred distinct problems.
	DefaultMaxEntries = 256
	// DefaultMaxDeltaFrac admits small perturbations (a few percent of
	// cells) and rejects wholesale rewrites, where re-validating and
	// re-solving from the stale binding would waste more than it saves.
	DefaultMaxDeltaFrac = 0.15
)

// key is the content identity of one cached problem.
type key struct {
	analysis trace.Fingerprint
	options  trace.Fingerprint
}

// entry is one cached design. The analysis clone is retained for warm
// (near-hit) diffing; disk-loaded entries have none.
type entry struct {
	key      key
	design   *core.Design
	analysis *trace.Analysis
	elem     *list.Element
}

// Store is a bounded, concurrency-safe design cache implementing
// core.Cache. The zero value is not usable; construct with New.
type Store struct {
	mu    sync.Mutex
	cfg   Config
	delta float64    // resolved Config.MaxDeltaFrac (nil → default)
	lru   *list.List // of *entry; front = most recently used
	byKey map[key]*entry
}

var _ core.Cache = (*Store)(nil)

// New builds a Store with the given configuration.
func New(cfg Config) *Store {
	if cfg.MaxEntries <= 0 {
		cfg.MaxEntries = DefaultMaxEntries
	}
	delta := DefaultMaxDeltaFrac
	if cfg.MaxDeltaFrac != nil {
		delta = *cfg.MaxDeltaFrac
	}
	return &Store{
		cfg:   cfg,
		delta: delta,
		lru:   list.New(),
		byKey: make(map[key]*entry),
	}
}

// Len reports the number of in-memory entries.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lru.Len()
}

// Lookup implements core.Cache: an exact content hit, memory first,
// then the disk tier. The context carries telemetry instruments (flight
// recorder), never cancellation — a lookup always runs to completion.
func (s *Store) Lookup(ctx context.Context, a *trace.Analysis, opts core.Options) (*core.Design, bool) {
	rec := obs.FlightRecorderFrom(ctx)
	start := time.Now()
	defer func() { metLookupNS.Observe(time.Since(start).Nanoseconds()) }()
	k := key{analysis: a.Fingerprint(), options: opts.Fingerprint()}
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.byKey[k]; ok {
		s.lru.MoveToFront(e.elem)
		metHits.Inc()
		rec.Emit(obs.Event{Kind: obs.EvCacheHit, K: e.design.NumBuses, Who: "memory"})
		return copyDesign(e.design), true
	}
	if s.cfg.Dir != "" {
		if d, ok := s.loadDisk(k); ok {
			// Promote into memory (sans analysis: the disk tier does
			// not keep one, so the entry serves exact hits only).
			s.insert(&entry{key: k, design: d})
			metHits.Inc()
			metDiskHits.Inc()
			rec.Emit(obs.Event{Kind: obs.EvCacheHit, K: d.NumBuses, Who: "disk"})
			return copyDesign(d), true
		}
	}
	metMisses.Inc()
	return nil, false
}

// Warm implements core.Cache: the most recently used entry with the
// same option fingerprint and receiver count whose constraint diff is
// within the delta budget lends its binding as an incumbent.
func (s *Store) Warm(ctx context.Context, a *trace.Analysis, opts core.Options) *core.Incumbent {
	if s.delta < 0 {
		return nil
	}
	// The budget scales with the dense cell count of Comm and CritComm
	// plus the OM upper triangle, though all of them are stored sparsely
	// and the overlaps are diffed too: a dense-size budget is stable
	// across sparsity levels.
	nT := a.NumReceivers
	total := 2*nT*a.NumWindows() + nT*(nT-1)/2
	limit := int(s.delta * float64(total))
	ofp := opts.Fingerprint()
	s.mu.Lock()
	defer s.mu.Unlock()
	for el := s.lru.Front(); el != nil; el = el.Next() {
		e := el.Value.(*entry)
		if e.analysis == nil || e.key.options != ofp || e.analysis.NumReceivers != nT {
			continue
		}
		if diffs, ok := trace.CountDiffs(a, e.analysis, limit); ok && diffs <= limit {
			metWarmHits.Inc()
			obs.FlightRecorderFrom(ctx).Emit(obs.Event{
				Kind: obs.EvCacheWarm, K: e.design.NumBuses, Val: int64(diffs)})
			return &core.Incumbent{
				NumBuses: e.design.NumBuses,
				BusOf:    append([]int(nil), e.design.BusOf...),
			}
		}
	}
	return nil
}

// Store implements core.Cache: it retains private copies of the design
// and the analysis (core may hand the same design to its caller, and
// the analysis may be mutated and re-designed later — exactly the
// delta-solve pattern the warm tier exists for).
func (s *Store) Store(ctx context.Context, a *trace.Analysis, opts core.Options, d *core.Design) {
	if d == nil || d.Capped {
		// Capped designs are budget-dependent; the fingerprint
		// deliberately excludes the budget, so caching one would let a
		// truncated answer impersonate the real one.
		return
	}
	obs.FlightRecorderFrom(ctx).Emit(obs.Event{Kind: obs.EvCacheStore, K: d.NumBuses})
	k := key{analysis: a.Fingerprint(), options: opts.Fingerprint()}
	e := &entry{key: k, design: copyDesign(d), analysis: a.Clone()}
	s.mu.Lock()
	if old, ok := s.byKey[k]; ok {
		// Same content hashes to the same design; refresh recency, and
		// upgrade a disk-promoted entry (no analysis) to warm-capable.
		if old.analysis == nil {
			old.analysis = e.analysis
		}
		s.lru.MoveToFront(old.elem)
		s.mu.Unlock()
		return
	}
	s.insert(e)
	s.mu.Unlock()
	if s.cfg.Dir != "" {
		// Outside the lock: disk latency must not stall lookups.
		s.writeDisk(k, d)
	}
}

// insert adds a fresh entry at the LRU front and evicts beyond
// capacity. Caller holds s.mu.
func (s *Store) insert(e *entry) {
	e.elem = s.lru.PushFront(e)
	s.byKey[e.key] = e
	for s.lru.Len() > s.cfg.MaxEntries {
		back := s.lru.Back()
		victim := back.Value.(*entry)
		s.lru.Remove(back)
		delete(s.byKey, victim.key)
		metEvicts.Inc()
	}
}

// copyDesign deep-copies a design so cached state is never aliased by
// callers (or vice versa).
func copyDesign(d *core.Design) *core.Design {
	cp := *d
	cp.BusOf = append([]int(nil), d.BusOf...)
	return &cp
}
