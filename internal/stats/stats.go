// Package stats collects per-packet latency measurements from
// simulation runs and summarizes them (average, maximum, percentiles),
// overall and per traffic class — the metrics reported in the paper's
// Table 1 and Figures 4(a)/4(b).
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Sample is one completed transaction's latency record.
type Sample struct {
	// Latency is the cycles from issue to full transaction completion
	// (last beat of the response received).
	Latency int64
	// Packet is the cycles from issue to the first beat of the
	// response — the per-packet latency the paper's tables report
	// (a burst transfer is a stream of packets; queueing delay is
	// fully visible in the first one).
	Packet    int64
	Initiator int
	Target    int
	Critical  bool
}

// Recorder accumulates latency samples during a simulation run.
type Recorder struct {
	samples []Sample
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// RecorderOf returns a recorder holding samples; it takes ownership of
// the slice.
func RecorderOf(samples []Sample) *Recorder { return &Recorder{samples: samples} }

// Add records one sample.
func (r *Recorder) Add(s Sample) { r.samples = append(r.samples, s) }

// Len returns the number of recorded samples.
func (r *Recorder) Len() int { return len(r.samples) }

// Samples returns the raw samples (not a copy).
func (r *Recorder) Samples() []Sample { return r.samples }

// Summary is the aggregate view of a set of latency samples.
type Summary struct {
	Count int
	Avg   float64
	Max   int64
	Min   int64
	P50   int64
	P95   int64
	P99   int64
}

// Summarize computes the summary of transaction latencies over all
// samples.
func (r *Recorder) Summarize() Summary { return summarize(r.samples, nil) }

// SummarizePacket computes the summary of per-packet latencies
// (issue to first response beat) over all samples.
func (r *Recorder) SummarizePacket() Summary {
	return summarizeBy(r.samples, nil, func(s Sample) int64 { return s.Packet })
}

// SummarizePacketWhere computes the packet-latency summary over
// samples matching the filter.
func (r *Recorder) SummarizePacketWhere(keep func(Sample) bool) Summary {
	return summarizeBy(r.samples, keep, func(s Sample) int64 { return s.Packet })
}

// SummarizeCritical computes the summary over critical samples only.
func (r *Recorder) SummarizeCritical() Summary {
	return summarize(r.samples, func(s Sample) bool { return s.Critical })
}

// SummarizeTarget computes the summary over samples to one target.
func (r *Recorder) SummarizeTarget(target int) Summary {
	return summarize(r.samples, func(s Sample) bool { return s.Target == target })
}

// SummarizeWhere computes the summary over samples matching the filter.
func (r *Recorder) SummarizeWhere(keep func(Sample) bool) Summary {
	return summarize(r.samples, keep)
}

func summarize(samples []Sample, keep func(Sample) bool) Summary {
	return summarizeBy(samples, keep, func(s Sample) int64 { return s.Latency })
}

func summarizeBy(samples []Sample, keep func(Sample) bool, metric func(Sample) int64) Summary {
	lat := make([]int64, 0, len(samples))
	for _, s := range samples {
		if keep == nil || keep(s) {
			lat = append(lat, metric(s))
		}
	}
	if len(lat) == 0 {
		return Summary{}
	}
	sort.Slice(lat, func(a, b int) bool { return lat[a] < lat[b] })
	var sum float64
	for _, l := range lat {
		sum += float64(l)
	}
	return Summary{
		Count: len(lat),
		Avg:   sum / float64(len(lat)),
		Max:   lat[len(lat)-1],
		Min:   lat[0],
		P50:   percentile(lat, 0.50),
		P95:   percentile(lat, 0.95),
		P99:   percentile(lat, 0.99),
	}
}

// percentile returns the nearest-rank percentile of sorted data.
func percentile(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

func (s Summary) String() string {
	if s.Count == 0 {
		return "no samples"
	}
	return fmt.Sprintf("n=%d avg=%.1f max=%d p95=%d", s.Count, s.Avg, s.Max, s.P95)
}
