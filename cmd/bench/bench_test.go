package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"
	"time"

	"repro/internal/benchprobs"
	"repro/internal/core"
	"repro/internal/trace"
)

func TestTailQuantile(t *testing.T) {
	lat := make([]float64, 1000)
	for i := range lat {
		lat[i] = float64(i + 1)
	}
	for _, c := range []struct {
		q    float64
		want float64
	}{{0.5, 500}, {0.9, 900}, {0.95, 950}, {0.99, 990}} {
		if got := quantile(lat, c.q); got != c.want {
			t.Errorf("quantile(1..1000, %v) = %v, want %v", c.q, got, c.want)
		}
		// The reported tail leaves at least ten samples beyond it.
		if beyond := len(lat) - int(quantile(lat, c.q)); beyond < 10 {
			t.Errorf("q=%v leaves %d samples beyond", c.q, beyond)
		}
	}
	if got := quantile(lat[:7], 0.99); got != 7 {
		t.Errorf("quantile of 7 samples at p99 = %v, want the maximum", got)
	}
	for _, c := range []struct {
		q     float64
		n     int
		label string
	}{{0.99, 1000, "p99"}, {0.95, 200, "p95"}, {0.9, 100, "p90"}, {0.5, 100, "p50"}} {
		if got := minSamples(c.q); got != c.n {
			t.Errorf("minSamples(%v) = %d, want %d", c.q, got, c.n)
		}
		if got := tailLabel(c.q); got != c.label {
			t.Errorf("tailLabel(%v) = %q, want %q", c.q, got, c.label)
		}
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	if q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v, want 2.75, 8.25", q1, q3)
	}
}

func TestCompareVerdicts(t *testing.T) {
	lower := metricDef{name: "latency_p50_ms", bound: 0.10}
	higher := metricDef{name: "throughput_rps", higher: true, bound: 0.10}
	failRatio := metricDef{name: "fail_ratio", bound: 0}
	s := func(v ...float64) summary { return summarize("x", v) }
	for _, c := range []struct {
		name      string
		def       metricDef
		base, cur summary
		want      string
	}{
		{"same", lower, s(100, 101, 99), s(100, 102, 98), verdictWithin},
		{"slower within bound", lower, s(100, 101, 99), s(105, 106, 104), verdictWithin},
		{"slower past bound", lower, s(100, 101, 99), s(115, 116, 114), verdictRegression},
		{"faster past bound", lower, s(100, 101, 99), s(80, 81, 79), verdictBetter},
		{"noisy", lower, s(60, 100, 140), s(100, 101, 99), verdictUnresolved},
		{"noisy but every run better", lower, s(100, 140, 180), s(40, 70, 95), verdictBetter},
		{"every run slightly better", lower, s(100, 101, 99), s(97, 98, 96), verdictWithin},
		{"throughput drop", higher, s(50, 51, 49), s(40, 41, 39), verdictRegression},
		{"throughput gain", higher, s(50, 51, 49), s(60, 61, 59), verdictBetter},
		{"single runs", lower, s(100), s(109), verdictWithin},
		{"failures appear", failRatio, s(0, 0, 0), s(0.01, 0.02, 0.01), verdictRegression},
		{"no failures", failRatio, s(0, 0, 0), s(0, 0, 0), verdictWithin},
	} {
		if got := verdict(c.def, c.base, c.cur); got != c.want {
			t.Errorf("%s: verdict = %q, want %q", c.name, got, c.want)
		}
	}

	res := func(v float64) *resultsFile {
		return &resultsFile{Workloads: []workloadResults{{Name: "trace-cold", Summary: map[string]summary{
			"latency_p50_ms": s(v, v, v), "throughput_rps": s(50, 50, 50)}}}}
	}
	var out bytes.Buffer
	if bad := compare(&out, res(100), res(130)); bad != 1 {
		t.Errorf("compare counted %d bad rows, want 1:\n%s", bad, out.String())
	}
	if !bytes.Contains(out.Bytes(), []byte("regression")) || !bytes.Contains(out.Bytes(), []byte("within bound")) {
		t.Errorf("compare output lacks the verdicts:\n%s", out.String())
	}
}

func TestTamperedResponseCountsAsFailed(t *testing.T) {
	ref := &core.Design{NumBuses: 3, BusOf: []int{0, 1, 2, 0}, MaxBusOverlap: 42, Conflicts: 2}
	reply := func(busOf []int) []byte {
		data, err := json.Marshal(&jobWire{Status: "done", Design: &designWire{
			NumBuses: 3, BusOf: busOf, MaxBusOverlap: 42, Conflicts: 2, SearchNodes: 7}})
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	bodies := [][]byte{reply([]int{0, 1, 2, 0}), reply([]int{0, 1, 2, 1})}
	n := 0
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body) //nolint:errcheck // test server
		w.Write(bodies[n])          //nolint:errcheck // test server
		n++
	}))
	defer srv.Close()

	w := &workload{tailQ: 0.5, valid: func(string, string, bool) error { return nil }}
	run := &loadRun{elapsed: time.Second, setups: []time.Duration{time.Second}}
	for i := range bodies {
		rq := request{idx: i, kind: "cold", window: 10, body: []byte("x"), want: &expect{design: ref}}
		run.recs = append(run.recs, send(context.Background(), srv.Client(), srv.URL, rq))
	}
	if err := run.recs[0].err; err != nil {
		t.Fatalf("faithful response rejected: %v", err)
	}
	if run.recs[1].err == nil {
		t.Fatal("response with a flipped bus_of entry accepted")
	}
	var res result
	res.addLoad(config{}, w, run)
	if res.Attempted != 2 || res.Failed != 1 || res.correct() {
		t.Fatalf("attempted %d failed %d correct %v, want 2, 1, false", res.Attempted, res.Failed, res.correct())
	}
}

func TestIdleTailHeaderPatch(t *testing.T) {
	tr := benchprobs.TraceN(6)
	ws := int64(300)
	if got := idleHorizon(tr.Horizon, ws, 0); got%ws != 0 || got < tr.Horizon || got-tr.Horizon >= ws {
		t.Fatalf("idleHorizon(%d, %d, 0) = %d, want the next multiple of the window", tr.Horizon, ws, got)
	}
	var v1, v2 bytes.Buffer
	if err := trace.WriteBinary(&v1, tr); err != nil {
		t.Fatal(err)
	}
	if err := trace.WriteBinaryV2(&v2, tr); err != nil {
		t.Fatal(err)
	}
	for name, body := range map[string][]byte{"v1": v1.Bytes(), "v2": v2.Bytes()} {
		for _, k := range []int{0, 1, 100} {
			h := idleHorizon(tr.Horizon, ws, k)
			setHorizon(body, h)
			hdr, err := trace.ReadHeader(bytes.NewReader(body))
			if err != nil {
				t.Fatalf("%s k=%d: %v", name, k, err)
			}
			if hdr.Horizon != h || hdr.NumEvents != uint64(len(tr.Events)) || hdr.NumReceivers != tr.NumReceivers {
				t.Fatalf("%s k=%d: header %+v, want horizon %d and the original shape", name, k, hdr, h)
			}
			back, err := trace.ReadBinary(bytes.NewReader(body))
			if err != nil {
				t.Fatalf("%s k=%d: patched body does not decode: %v", name, k, err)
			}
			if back.Horizon != h || len(back.Events) != len(tr.Events) {
				t.Fatalf("%s k=%d: decoded horizon %d with %d events", name, k, back.Horizon, len(back.Events))
			}
		}
	}
}

// TestSmoke runs every workload briefly, traced, with a small tiled
// trace spooled under a lowered threshold.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("drives the daemon for several seconds")
	}
	spool := t.TempDir()
	t.Setenv("TMPDIR", spool)
	cfg := config{
		seed:           3,
		fill:           200 * time.Millisecond,
		seconds:        time.Second,
		replicaSeconds: 300 * time.Millisecond,
		traced:         true,
		tiles:          20,
		spoolThreshold: 256 << 10,
		setups:         1,
		sample:         4,
	}
	start := time.Now()
	for _, name := range workloadNames {
		res, spans, err := runOne(context.Background(), cfg, name, io.Discard)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !res.correct() || res.Samples == 0 || res.Replayed == 0 || len(spans) == 0 {
			t.Fatalf("%s: correct %v, %d samples, %d replayed, %d spans: %v",
				name, res.correct(), res.Samples, res.Replayed, len(spans), res.Problems)
		}
		for _, defs := range [][]metricDef{endToEnd, perLayer} {
			for _, d := range defs {
				m, ok := res.Metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("%s: metric %s = %+v, want unit %s", name, d.name, m, d.unit)
				}
			}
		}
		if res.Metrics["throughput_rps"].Value <= 0 || res.Metrics["replica.wall_ms"].Value <= 0 {
			t.Errorf("%s: empty timings %+v", name, res.Metrics)
		}
		if name == "spool-large" && res.Metrics["server.spool_ms"].Value <= 0 {
			t.Errorf("spool-large did not spool")
		}
		if name == "app-spec" && res.Verified == 0 {
			t.Errorf("app-spec checked no answer after the run")
		}
	}
	if left, err := os.ReadDir(spool); err != nil || len(left) != 0 {
		t.Errorf("spool directory holds %d entries after the runs (%v)", len(left), err)
	}
	if took := time.Since(start); took > 20*time.Second && !raceEnabled {
		t.Errorf("smoke run took %s, want under 20s", took)
	}
}
