package main

import (
	"fmt"
	"io"
	"math"
	"sort"
)

// metric is one measured value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricDef describes one metric. End-to-end metrics carry the bound by
// which their median may worsen, as a share of the baseline median,
// before a change counts as a regression.
type metricDef struct {
	name   string
	unit   string
	higher bool // higher is better
	bound  float64
}

// endToEnd are the metrics a user of the daemon sees, measured by the
// untraced load run. The timing bounds are the widest BENCHMARK.json
// allows: on a shared 2-CPU machine other tenants slow every timing by
// 15–30% for minutes at a time, which spreads a set of ten runs past
// 15% when three of them fall in such a phase. The heap does not follow
// the machine's speed; its spread stayed under 5%.
var endToEnd = []metricDef{
	{name: "throughput_rps", unit: "1/s", higher: true, bound: 0.25},
	{name: "latency_p50_ms", unit: "ms", bound: 0.25},
	{name: "latency_tail_ms", unit: "ms", bound: 0.25},
	{name: "cpu_ms_per_op", unit: "ms", bound: 0.25},
	// fail_ratio is 0 on every correct run, so any increase regresses.
	{name: "fail_ratio", unit: "ratio", bound: 0},
	{name: "setup_s", unit: "s", bound: 0.25},
	{name: "live_heap_peak_mb", unit: "MB", bound: 0.10},
}

// perLayer are the metrics of single layers: the first five from the
// load run's response fields, the rest from the traced replica.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{name: "server.queue_ms", unit: "ms"},
		{name: "server.job_ms", unit: "ms"},
		{name: "server.ingest_ms", unit: "ms"},
		{name: "cache.hit_ratio", unit: "ratio", higher: true},
		{name: "cache.warm_ratio", unit: "ratio", higher: true},
	}
	for _, l := range replicaLayers {
		defs = append(defs, metricDef{name: l + "_ms", unit: "ms"})
	}
	defs = append(defs, metricDef{name: "core.preprocess_ms", unit: "ms"}, metricDef{name: "core.search_bind_ms", unit: "ms"})
	for _, c := range replicaCounts {
		defs = append(defs, metricDef{name: c, unit: "count"})
	}
	return append(defs, metricDef{name: "replica.wall_ms", unit: "ms"}, metricDef{name: "replica.coverage", unit: "ratio", higher: true})
}()

// quantile is the nearest-rank q-quantile of sorted: the smallest value
// with at least a share q of the samples at or below it.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	k := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(k, 0), len(sorted)-1)]
}

// minSamples is the sample count at which the q-quantile has at least
// ten samples beyond it, and never less than 100.
func minSamples(q float64) int {
	return max(100, int(math.Ceil(10/(1-q)-1e-9)))
}

// tailLabel names a tail quantile, as in p99.
func tailLabel(q float64) string {
	return fmt.Sprintf("p%g", math.Round(q*1000)/10)
}

// quartiles returns the first and third quartiles of values by the
// exclusive method of Python's statistics.quantiles(values, n=4).
func quartiles(values []float64) (q1, q3 float64) {
	d := append([]float64(nil), values...)
	sort.Float64s(d)
	n := len(d)
	switch n {
	case 0:
		return 0, 0
	case 1:
		return d[0], d[0]
	}
	cut := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return cut(1), cut(3)
}

// median of values.
func median(values []float64) float64 {
	d := append([]float64(nil), values...)
	sort.Float64s(d)
	n := len(d)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return d[n/2]
	}
	return (d[n/2-1] + d[n/2]) / 2
}

// summary is one metric over the runs of a workload.
type summary struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Values []float64 `json:"values"`
}

func summarize(unit string, values []float64) summary {
	q1, q3 := quartiles(values)
	return summary{Unit: unit, Median: median(values), Q1: q1, Q3: q3, Values: values}
}

// spread is the quartile distance as a share of the median.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / math.Abs(s.Median)
}

// Verdicts of a comparison.
const (
	verdictBetter     = "better"
	verdictWithin     = "within bound"
	verdictRegression = "regression"
	verdictUnresolved = "unresolved"
)

// verdict compares cur against base for one end-to-end metric. A metric
// with bound 0 regresses on any change for the worse. Otherwise a
// metric whose run-to-run spread exceeds its bound is unresolved,
// unless every run of cur reads better than every run of base.
func verdict(def metricDef, base, cur summary) string {
	worse := func(a, b float64) bool { // a is worse than b
		if def.higher {
			return a < b
		}
		return a > b
	}
	if def.bound == 0 || base.Median == 0 {
		// Any change for the worse regresses.
		switch {
		case worse(cur.Median, base.Median):
			return verdictRegression
		case worse(base.Median, cur.Median):
			return verdictBetter
		}
		return verdictWithin
	}
	if math.Max(base.spread(), cur.spread()) > def.bound {
		if len(base.Values) >= 3 && len(cur.Values) >= 3 {
			all := true
			for _, c := range cur.Values {
				for _, b := range base.Values {
					all = all && worse(b, c)
				}
			}
			if all {
				return verdictBetter
			}
		}
		return verdictUnresolved
	}
	change := (cur.Median - base.Median) / math.Abs(base.Median)
	if def.higher {
		change = -change
	}
	switch {
	case change > def.bound:
		return verdictRegression
	case -change > def.bound:
		return verdictBetter
	}
	return verdictWithin
}

// compare prints one row per workload and end-to-end metric present in
// both result sets, and returns how many rows are regressions or
// unresolved.
func compare(w io.Writer, base, cur *resultsFile) int {
	baseBy := make(map[string]workloadResults)
	for _, wr := range base.Workloads {
		baseBy[wr.Name] = wr
	}
	bad := 0
	fmt.Fprintf(w, "%-13s %-18s %12s %12s %9s %8s %7s  %s\n", "workload", "metric", "base", "new", "delta", "spread", "bound", "verdict")
	for _, cw := range cur.Workloads {
		bw, ok := baseBy[cw.Name]
		if !ok {
			continue
		}
		for _, def := range endToEnd {
			bs, ok1 := bw.Summary[def.name]
			cs, ok2 := cw.Summary[def.name]
			if !ok1 || !ok2 {
				continue
			}
			v := verdict(def, bs, cs)
			if v == verdictRegression || v == verdictUnresolved {
				bad++
			}
			delta := "n/a"
			if bs.Median != 0 {
				delta = fmt.Sprintf("%+.1f%%", 100*(cs.Median-bs.Median)/math.Abs(bs.Median))
			}
			fmt.Fprintf(w, "%-13s %-18s %12.4g %12.4g %9s %7.1f%% %6.0f%%  %s\n", cw.Name, def.name, bs.Median, cs.Median,
				delta, 100*math.Max(bs.spread(), cs.spread()), 100*def.bound, v)
		}
	}
	return bad
}
