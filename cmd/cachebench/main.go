// Command cachebench times the design-cache primitives of
// internal/cache — exact lookup hit and miss, warm (near-fingerprint)
// lookup, store, and the on-disk tier round trip — and writes the
// results as JSON, by convention to BENCH_cache.json at the repository
// root, which CI uploads as a non-gating build artifact. The subject
// is the same 32-receiver instance the solverbench delta cases use, so
// the µs-scale numbers here can be read against the ms-scale solver
// numbers there: a cache hit must be noise next to any solve.
//
// Usage:
//
//	cachebench                  # writes BENCH_cache.json
//	cachebench -out /tmp/c.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"log"
	"os"
	"testing"
	"time"

	"repro/internal/benchprobs"
	"repro/internal/cache"
	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/trace"
)

type caseResult struct {
	Name        string `json:"name"`
	NsPerOp     int64  `json:"ns_per_op"`
	AllocsPerOp int64  `json:"allocs_per_op"`
	BytesPerOp  int64  `json:"bytes_per_op"`
}

type report struct {
	GeneratedBy string       `json:"generated_by"`
	Timestamp   string       `json:"timestamp"`
	Cases       []caseResult `json:"cases"`
}

var out = flag.String("out", "BENCH_cache.json", "output JSON path")

func main() { cli.Main("cachebench", run) }

func bench(name string, fn func(b *testing.B)) caseResult {
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		fn(b)
	})
	return caseResult{
		Name:        name,
		NsPerOp:     r.NsPerOp(),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
	}
}

func run(ctx context.Context) (err error) {
	tr := benchprobs.DeltaTrace32()
	baseA, err := trace.AnalyzeCtx(ctx, tr, benchprobs.AnalysisWindow)
	if err != nil {
		return err
	}
	// A perturbed sibling: different fingerprint, within the default
	// warm delta budget.
	nearA, err := trace.AnalyzeCtx(ctx, benchprobs.PerturbTrace(tr, 0.01, 7), benchprobs.AnalysisWindow)
	if err != nil {
		return err
	}
	opts := core.DefaultOptions()
	opts.MaxPerBus = 8
	opts.OptimizeBinding = false
	opts.Engine = core.EngineMILP
	// Pinned to one worker so runs compare across hosts; -workers
	// overrides for experiments (the designs are identical either way).
	opts.Workers = 1
	if w := cli.Workers(); w > 0 {
		opts.Workers = w
	}
	design, err := core.DesignCrossbarCtx(ctx, baseA, opts)
	if err != nil {
		return err
	}

	dir, err := os.MkdirTemp("", "cachebench-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	var rep report
	rep.GeneratedBy = "cmd/cachebench"
	rep.Timestamp = time.Now().UTC().Format(time.RFC3339)
	add := func(c caseResult) {
		rep.Cases = append(rep.Cases, c)
		log.Printf("%-24s %10d ns/op %8d B/op %6d allocs/op", c.Name, c.NsPerOp, c.BytesPerOp, c.AllocsPerOp)
	}

	primed := cache.New(cache.Config{})
	primed.Store(ctx, baseA, opts, design)

	add(bench("lookup-hit", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, ok := primed.Lookup(ctx, baseA, opts); !ok {
				b.Fatal("expected a hit")
			}
		}
	}))
	add(bench("lookup-miss", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, ok := primed.Lookup(ctx, nearA, opts); ok {
				b.Fatal("expected a miss")
			}
		}
	}))
	add(bench("warm-lookup", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if inc := primed.Warm(ctx, nearA, opts); inc == nil {
				b.Fatal("expected a warm hit")
			}
		}
	}))
	add(bench("store-memory", func(b *testing.B) {
		s := cache.New(cache.Config{})
		for i := 0; i < b.N; i++ {
			s.Store(ctx, baseA, opts, design)
		}
	}))
	add(bench("store-disk", func(b *testing.B) {
		s := cache.New(cache.Config{Dir: dir})
		for i := 0; i < b.N; i++ {
			s.Store(ctx, baseA, opts, design)
		}
	}))
	// Disk tier round trip: a fresh Store instance over a populated
	// directory, forced to deserialize and verify the entry each time.
	seed := cache.New(cache.Config{Dir: dir})
	seed.Store(ctx, baseA, opts, design)
	add(bench("lookup-disk", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			s := cache.New(cache.Config{Dir: dir})
			b.StartTimer()
			if _, ok := s.Lookup(ctx, baseA, opts); !ok {
				b.Fatal("expected a disk hit")
			}
		}
	}))

	data, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		return err
	}
	log.Printf("wrote %s", *out)
	return nil
}
