// Command bench is the end-to-end benchmark of the stbusd design
// service. For each workload it runs two phases:
//
//  1. Load run. A stock daemon (server.Run with the stbusd defaults but
//     for three memory and spool settings, logging off) listens on a
//     loopback port in this process. One closed-loop client on a
//     keep-alive connection drives the workload's request mix through
//     it. Every answer is checked against a reference design.
//     The end-to-end metrics come from this untraced run.
//  2. Traced replica (-trace 1). For 10 s one goroutine replays a prefix
//     of the same request sequence through the public calls the daemon
//     makes, timing each call with spans kept in memory. The per-layer
//     metrics come from this run and from the load run's response
//     fields.
//
// The program is its own Go module so that the repository's build and
// tests do not include it. From the repository root:
//
//	bash cmd/bench/run.sh                                # all four workloads, ~3 min
//	bash cmd/bench/run.sh -workload app-spec -seed 7 -trace 0
//	bash cmd/bench/run.sh -repeat 3 -out b.json -compare a.json
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics: the end-to-end metrics with
// -trace 0, the per-layer metrics with -trace 1. The command exits 1
// when any answer is wrong or a workload's validity check fails. See
// README.md for the workloads, the metrics and their bounds.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// config is one benchmark invocation's settings.
type config struct {
	seed           int64
	fill           time.Duration // untimed load before the load run
	seconds        time.Duration // load run
	replicaSeconds time.Duration // traced replica
	traced         bool
	tiles          int   // spool-large tile count
	spoolThreshold int64 // daemon spool threshold
	setups         int   // daemon set-ups per run; setup_s is their median
	sample         int   // answers re-designed after the run
	checkSamples   bool  // enforce the minimum sample counts
}

const (
	// fillTime is the untimed load before each load run. Job times fall
	// by about a third over a run's first seconds while the cache fills
	// and the heap grows to its steady size; spool-large fills its 32
	// cache entries in about 5 s.
	fillTime = 5 * time.Second
	// replicaTime is the length of each traced replica run.
	replicaTime = 10 * time.Second
	// spoolTiles copies of the Mat2 request trace make a 2.39 MB v2 body,
	// above spoolThreshold. They are sized so that spool-large completes
	// twice the 100 requests its p90 needs in a 20 s run on 2 CPUs.
	spoolTiles = 60
)

// result is one run of one workload.
type result struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Invalid   int               `json:"invalid"`
	Samples   int               `json:"samples"`
	Tail      string            `json:"tail"`
	Verified  int               `json:"verified"`
	SetupsS   []float64         `json:"setups_s"`
	Replayed  int               `json:"replayed,omitempty"`
	Problems  []string          `json:"problems,omitempty"`
	Metrics   map[string]metric `json:"metrics"`
}

// maxProblems bounds the failure messages kept per run.
const maxProblems = 8

func (r *result) problem(format string, args ...any) {
	if len(r.Problems) < maxProblems {
		r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
	}
}

func (r *result) correct() bool { return r.Failed == 0 && r.Invalid == 0 }

// addLoad derives the end-to-end and response-field metrics of a load
// run's timed requests and applies the workload's validity checks to
// all of them.
func (r *result) addLoad(cfg config, w *workload, run *loadRun) {
	var lat []float64
	var queue, job, ingest time.Duration
	hits, warms := 0, 0
	for _, rec := range run.recs {
		r.Attempted++
		if rec.err != nil {
			r.Failed++
			r.problem("request %d (%s): %v", rec.idx, rec.kind, rec.err)
			continue
		}
		if err := w.valid(rec.kind, rec.cached, rec.warm); err != nil {
			r.Invalid++
			r.problem("request %d: %v", rec.idx, err)
		}
		if !rec.timed {
			continue
		}
		lat = append(lat, ms(rec.latency))
		queue += rec.queue
		job += rec.job
		ingest += rec.latency - rec.queue - rec.job
		if rec.cached != "" {
			hits++
		}
		if rec.warm {
			warms++
		}
	}
	sort.Float64s(lat)
	ok := len(lat)
	r.Samples, r.Tail, r.Verified = ok, tailLabel(w.tailQ), run.verified
	if need := minSamples(w.tailQ); cfg.checkSamples && ok < need {
		r.Invalid++
		r.problem("%d samples, %s needs at least %d", ok, r.Tail, need)
	}
	n := float64(max(ok, 1))
	r.SetupsS = make([]float64, len(run.setups))
	for i, s := range run.setups {
		r.SetupsS[i] = s.Seconds()
	}
	r.Metrics = map[string]metric{
		"throughput_rps":    {float64(ok) / run.elapsed.Seconds(), "1/s"},
		"latency_p50_ms":    {quantile(lat, 0.5), "ms"},
		"latency_tail_ms":   {quantile(lat, w.tailQ), "ms"},
		"cpu_ms_per_op":     {ms(run.cpu) / n, "ms"},
		"fail_ratio":        {float64(r.Failed) / float64(max(r.Attempted, 1)), "ratio"},
		"setup_s":           {median(r.SetupsS), "s"},
		"live_heap_peak_mb": {float64(run.heapPeak) / 1e6, "MB"},
		"server.queue_ms":   {ms(queue) / n, "ms"},
		"server.job_ms":     {ms(job) / n, "ms"},
		"server.ingest_ms":  {ms(ingest) / n, "ms"},
		"cache.hit_ratio":   {float64(hits) / n, "ratio"},
		"cache.warm_ratio":  {float64(warms) / n, "ratio"},
	}
}

// minCoverage is the share of the replica's request wall time its layer
// spans must account for.
const minCoverage = 0.90

// addReplica adds the replica's per-layer metrics.
func (r *result) addReplica(rr *replicaRun) {
	r.Replayed = rr.requests
	r.Attempted += rr.requests
	r.Failed += len(rr.failures)
	for _, f := range rr.failures {
		r.problem("%s", f)
	}
	for k, v := range replicaMetrics(rr) {
		r.Metrics[k] = v
	}
	if c := r.Metrics["replica.coverage"].Value; c < minCoverage {
		r.Invalid++
		r.problem("replica.coverage %.3f below %.2f", c, minCoverage)
	}
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// runOne builds a workload, load-runs it, checks the post-run sample
// and, when traced, runs the replica.
func runOne(ctx context.Context, cfg config, name string, logw io.Writer) (*result, []span, error) {
	t0 := time.Now()
	w, err := newWorkload(ctx, cfg, name)
	if err != nil {
		return nil, nil, err
	}
	fmt.Fprintf(logw, "bench: %s seed %d: references ready in %.1fs\n", name, cfg.seed, time.Since(t0).Seconds())
	run, err := driveLoad(ctx, cfg, w)
	if err != nil {
		return nil, nil, err
	}
	if w.reference != nil {
		if err := verifySample(ctx, w, run, cfg.sample); err != nil {
			return nil, nil, err
		}
	}
	res := &result{Workload: name, Seed: cfg.seed}
	res.addLoad(cfg, w, run)
	fmt.Fprintf(logw, "bench: %s seed %d: %d requests in %.1fs, %d failed, %d invalid, %d checked after the run\n",
		name, cfg.seed, res.Attempted, run.elapsed.Seconds(), res.Failed, res.Invalid, run.verified)
	if !cfg.traced {
		return res, nil, nil
	}
	rr, err := runReplica(ctx, cfg, w)
	if err != nil {
		return nil, nil, err
	}
	res.addReplica(rr)
	fmt.Fprintf(logw, "bench: %s seed %d: replica replayed %d requests\n", name, cfg.seed, rr.requests)
	return res, rr.spans, nil
}

// meta records the machine and settings next to the numbers.
type meta struct {
	GOMAXPROCS     int     `json:"gomaxprocs"`
	NumCPU         int     `json:"nproc"`
	CPUModel       string  `json:"cpu_model"`
	GoVersion      string  `json:"go_version"`
	Commit         string  `json:"commit"`
	Seed           int64   `json:"seed"`
	Repeat         int     `json:"repeat"`
	Seconds        float64 `json:"seconds"`
	ReplicaSeconds float64 `json:"replica_seconds"`
	Trace          int     `json:"trace"`
	Started        string  `json:"started"`
	DurationS      float64 `json:"duration_s"`
}

// workloadResults are the runs of one workload and their summary.
type workloadResults struct {
	Name    string             `json:"name"`
	Runs    []*result          `json:"runs"`
	Summary map[string]summary `json:"summary"`
}

// resultsFile is the -out document, which -compare reads back.
type resultsFile struct {
	Meta      meta              `json:"meta"`
	Workloads []workloadResults `json:"workloads"`
}

// spanFile is the -trace-out document.
type spanFile struct {
	Runs []spanRun `json:"runs"`
}

type spanRun struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Spans    []span `json:"spans"`
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// commit is the VCS revision stamped into the binary, else the one git
// reports for the working directory, else "unknown".
func commit(ctx context.Context) string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if rev != "" {
			if dirty {
				rev += "-dirty"
			}
			return rev
		}
	}
	cmd := exec.CommandContext(ctx, "git", "rev-parse", "HEAD")
	if wd, err := os.Getwd(); err == nil {
		// Look for a repository in the working directory only.
		cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(wd))
	}
	if out, err := cmd.Output(); err == nil {
		return strings.TrimSpace(string(out))
	}
	return "unknown"
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// printRun prints every metric of a run by name and unit.
func printRun(w io.Writer, r *result) {
	fmt.Fprintf(w, "== %s seed %d: %d attempted, %d failed, %d invalid, %d samples, %d checked after the run",
		r.Workload, r.Seed, r.Attempted, r.Failed, r.Invalid, r.Samples, r.Verified)
	if r.Replayed > 0 {
		fmt.Fprintf(w, ", %d replayed", r.Replayed)
	}
	fmt.Fprintln(w)
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			m, ok := r.Metrics[d.name]
			if !ok {
				continue
			}
			note := ""
			if d.name == "latency_tail_ms" {
				note = fmt.Sprintf("  (%s of %d samples)", r.Tail, r.Samples)
			}
			fmt.Fprintf(w, "  %-22s %14.4f %-6s%s\n", d.name, m.Value, m.Unit, note)
		}
	}
	for _, p := range r.Problems {
		fmt.Fprintf(w, "  ! %s\n", p)
	}
}

// summarizeRuns summarizes every metric over a workload's runs.
func summarizeRuns(runs []*result) map[string]summary {
	out := make(map[string]summary)
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			var vals []float64
			for _, r := range runs {
				if m, ok := r.Metrics[d.name]; ok {
					vals = append(vals, m.Value)
				}
			}
			if len(vals) == len(runs) {
				out[d.name] = summarize(d.unit, vals)
			}
		}
	}
	return out
}

// finalLine is the last line of standard output.
type finalLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// run is the command: it returns 0 when every answer was right and every
// validity check held, 1 when not, 2 when the benchmark could not run.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workloadFlag := fs.String("workload", "all", "workload to run: "+strings.Join(workloadNames, ", ")+" or all")
	seed := fs.Int64("seed", 1, "workload seed (at least 1): perturbation seeds, app seeds and idle-tail order")
	seconds := fs.Float64("seconds", 20, "length of each load run in seconds")
	traceMode := fs.Int("trace", 1, "0: load run only, the last line holds the end-to-end metrics; 1: load run and traced replica, the last line holds the per-layer metrics")
	repeat := fs.Int("repeat", 1, "runs per workload, with seeds seed, seed+1, ...; metrics are summarized by median and quartiles")
	out := fs.String("out", "", "write the results, with machine metadata, as JSON to this file")
	traceOut := fs.String("trace-out", "", "write the replica's spans as JSON to this file")
	comparePath := fs.String("compare", "", "compare the results against a -out file of an earlier run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	names := workloadNames
	if *workloadFlag != "all" {
		names = []string{*workloadFlag}
	}
	if *seed < 1 || *seconds <= 0 || *repeat < 1 || (*traceMode != 0 && *traceMode != 1) || fs.NArg() > 0 {
		fmt.Fprintln(stderr, "bench: need -seed ≥ 1, positive -seconds, -repeat ≥ 1, -trace 0 or 1, and no arguments")
		return 2
	}
	var base *resultsFile
	if *comparePath != "" {
		data, err := os.ReadFile(*comparePath)
		if err == nil {
			base = new(resultsFile)
			err = json.Unmarshal(data, base)
		}
		if err != nil {
			fmt.Fprintf(stderr, "bench: reading -compare file: %v\n", err)
			return 2
		}
	}
	cfg := config{
		fill:           fillTime,
		seconds:        time.Duration(*seconds * float64(time.Second)),
		replicaSeconds: replicaTime,
		traced:         *traceMode == 1,
		tiles:          spoolTiles,
		spoolThreshold: spoolThreshold,
		setups:         5,
		sample:         32,
		checkSamples:   true,
	}
	started := time.Now()
	results := &resultsFile{Meta: meta{
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(), CPUModel: cpuModel(),
		GoVersion: runtime.Version(), Commit: commit(ctx), Seed: *seed, Repeat: *repeat,
		Seconds: *seconds, ReplicaSeconds: replicaTime.Seconds(), Trace: *traceMode,
		Started: started.UTC().Format(time.RFC3339),
	}}
	var spans spanFile
	for _, name := range names {
		wr := workloadResults{Name: name}
		for rep := 0; rep < *repeat; rep++ {
			c := cfg
			c.seed = *seed + int64(rep)
			res, sp, err := runOne(ctx, c, name, stderr)
			if err != nil {
				fmt.Fprintf(stderr, "bench: %s: %v\n", name, err)
				return 2
			}
			printRun(stdout, res)
			wr.Runs = append(wr.Runs, res)
			if sp != nil {
				spans.Runs = append(spans.Runs, spanRun{Workload: name, Seed: c.seed, Spans: sp})
			}
		}
		wr.Summary = summarizeRuns(wr.Runs)
		results.Workloads = append(results.Workloads, wr)
	}
	results.Meta.DurationS = time.Since(started).Seconds()

	if *out != "" {
		if err := writeJSON(*out, results); err != nil {
			fmt.Fprintf(stderr, "bench: writing -out: %v\n", err)
			return 2
		}
	}
	if *traceOut != "" {
		if err := writeJSON(*traceOut, &spans); err != nil {
			fmt.Fprintf(stderr, "bench: writing -trace-out: %v\n", err)
			return 2
		}
	}
	if base != nil {
		if bad := compare(stdout, base, results); bad > 0 {
			fmt.Fprintf(stdout, "%d metric(s) regressed or unresolved\n", bad)
		}
	}

	line := finalLine{Correct: true, Metrics: map[string]metric{}}
	defs := endToEnd
	if cfg.traced {
		defs = perLayer
	}
	for _, wr := range results.Workloads {
		for _, r := range wr.Runs {
			line.Correct = line.Correct && r.correct()
			line.Attempted += r.Attempted
			line.Failed += r.Failed
		}
		for _, d := range defs {
			// fail_ratio is 0 on a correct run; failed/attempted carry it.
			if d.name == "fail_ratio" {
				continue
			}
			key := d.name
			if len(names) > 1 {
				key = wr.Name + "." + d.name
			}
			line.Metrics[key] = metric{wr.Summary[d.name].Median, d.unit}
		}
	}
	data, err := json.Marshal(&line)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	fmt.Fprintln(stdout, string(data))
	if !line.Correct {
		return 1
	}
	return 0
}
