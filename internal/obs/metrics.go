package obs

import (
	"math"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric. Updates are single
// atomic adds; the zero value is ready to use (but prefer NewCounter
// so the value is exported at /metrics).
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a point-in-time level (queue depth, active workers, current
// simulation cycle).
type Gauge struct {
	v atomic.Int64
}

// Set stores the gauge's value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add moves the gauge by n (negative to decrease).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current level.
func (g *Gauge) Value() int64 { return g.v.Load() }

// histBuckets is the number of power-of-two histogram buckets: bucket i
// counts observations v with bits.Len64(v) == i, i.e. v in [2^(i-1),
// 2^i). Bucket 0 holds v <= 0.
const histBuckets = 64

// Histogram accumulates an int64 distribution in power-of-two buckets.
// Observe is wait-free (three atomic adds). Snapshot reads the bucket
// array once into a self-consistent view (its count is the sum of the
// buckets it read), which is what the Prometheus exposition serves;
// the Count and Sum accessors each read live and may straddle a
// concurrent Observe.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64
	buckets [histBuckets]atomic.Int64
}

// Observe records one sample.
func (h *Histogram) Observe(v int64) {
	idx := 0
	if v > 0 {
		idx = bits.Len64(uint64(v))
		if idx >= histBuckets {
			idx = histBuckets - 1
		}
	}
	h.buckets[idx].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// Count returns the number of samples observed.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all samples.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// bucketEdge is the inclusive integer upper edge of bucket i: bucket 0
// holds v <= 0, bucket i >= 1 holds v in [2^(i-1), 2^i), whose largest
// integer is 2^i - 1. The last bucket's edge saturates at MaxInt64.
func bucketEdge(i int) int64 {
	if i <= 0 {
		return 0
	}
	if i >= 63 {
		return math.MaxInt64
	}
	return int64(1)<<i - 1
}

// HistogramBucket is one occupied power-of-two bucket of a snapshot.
type HistogramBucket struct {
	// Le is the inclusive integer upper edge of the bucket (0, 1, 3, 7,
	// ..., MaxInt64).
	Le int64
	// N counts the samples in this bucket alone (not cumulative).
	N int64
}

// HistogramSnapshot is a self-consistent point-in-time view of a
// histogram: Count equals the sum of the bucket counts, so the
// Prometheus bucket series built from one snapshot is internally
// monotone even while Observe runs concurrently. Sum is read separately
// and may trail the buckets by in-flight observations.
type HistogramSnapshot struct {
	Count   int64
	Sum     int64
	Buckets []HistogramBucket
}

// Snapshot reads the histogram once into a consistent view; only
// occupied buckets are materialized.
func (h *Histogram) Snapshot() HistogramSnapshot {
	var counts [histBuckets]int64
	var total int64
	occupied := 0
	for i := range counts {
		counts[i] = h.buckets[i].Load()
		total += counts[i]
		if counts[i] > 0 {
			occupied++
		}
	}
	snap := HistogramSnapshot{Count: total, Sum: h.sum.Load()}
	if occupied > 0 {
		snap.Buckets = make([]HistogramBucket, 0, occupied)
		for i, n := range counts {
			if n > 0 {
				snap.Buckets = append(snap.Buckets, HistogramBucket{Le: bucketEdge(i), N: n})
			}
		}
	}
	return snap
}

// registry is the process-global metric namespace. Registration is
// rare (package init of the instrumented layers) and guarded by a
// mutex; reads and updates of the metrics themselves never touch it.
var (
	regMu   sync.Mutex
	regKeys []string
	regVals = map[string]any{} // *Counter | *Gauge | *Histogram
)

func register(name string, m any) {
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := regVals[name]; dup {
		panic("obs: duplicate metric " + name)
	}
	regVals[name] = m
	regKeys = append(regKeys, name)
	sort.Strings(regKeys)
}

// NewCounter registers and returns a named counter. Metric names are
// dotted lowercase paths ("milp.nodes"); registering a name twice
// panics, so instruments are declared once as package variables.
func NewCounter(name string) *Counter {
	c := &Counter{}
	register(name, c)
	return c
}

// NewGauge registers and returns a named gauge.
func NewGauge(name string) *Gauge {
	g := &Gauge{}
	register(name, g)
	return g
}

// NewHistogram registers and returns a named histogram.
func NewHistogram(name string) *Histogram {
	h := &Histogram{}
	register(name, h)
	return h
}
