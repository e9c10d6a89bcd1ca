package obs

import (
	"bufio"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
)

// Metrics for the exposition tests, registered once (global registry).
var (
	promTestCounter = NewCounter("promtest.counter")
	promTestGauge   = NewGauge("promtest.gauge")
	promTestHist    = NewHistogram("promtest.lat_ns")
)

func TestPromNameSanitization(t *testing.T) {
	for in, want := range map[string]string{
		"milp.warm_solves": "stbusgen_milp_warm_solves",
		"core.probe_ns":    "stbusgen_core_probe_ns",
		"weird-Name.2x":    "stbusgen_weird_Name_2x",
	} {
		if got := promName(in); got != want {
			t.Errorf("promName(%q) = %q, want %q", in, got, want)
		}
	}
}

// parseExposition indexes "name{labels} value" sample lines and
// remembers which names saw HELP and TYPE comments.
func parseExposition(t *testing.T, body string) (samples map[string]int64, help, typ map[string]bool) {
	t.Helper()
	samples = map[string]int64{}
	help, typ = map[string]bool{}, map[string]bool{}
	for _, line := range strings.Split(body, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			help[strings.Fields(line)[2]] = true
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			typ[strings.Fields(line)[2]] = true
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("malformed sample line %q", line)
		}
		v, err := strconv.ParseInt(line[sp+1:], 10, 64)
		if err != nil {
			t.Fatalf("sample line %q has non-integer value: %v", line, err)
		}
		samples[line[:sp]] = v
	}
	return samples, help, typ
}

func TestPrometheusExposition(t *testing.T) {
	promTestCounter.Add(41)
	promTestCounter.Inc()
	promTestGauge.Set(-7)
	for _, v := range []int64{0, 1, 2, 3, 1000, 1000000} {
		promTestHist.Observe(v)
	}

	srv := httptest.NewServer(PrometheusHandler())
	defer srv.Close()
	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != promContentType {
		t.Errorf("content type = %q, want %q", ct, promContentType)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)
	samples, help, typ := parseExposition(t, body)

	if got := samples["stbusgen_promtest_counter_total"]; got != 42 {
		t.Errorf("counter sample = %d, want 42", got)
	}
	if got := samples["stbusgen_promtest_gauge"]; got != -7 {
		t.Errorf("gauge sample = %d, want -7", got)
	}
	for _, name := range []string{"stbusgen_promtest_counter_total", "stbusgen_promtest_gauge", "stbusgen_promtest_lat_ns"} {
		if !help[name] {
			t.Errorf("missing # HELP for %s", name)
		}
		if !typ[name] {
			t.Errorf("missing # TYPE for %s", name)
		}
	}

	// Histogram: cumulative buckets must be monotone, end in +Inf, and
	// agree with _count; _sum is the raw sum.
	hist := "stbusgen_promtest_lat_ns"
	count := samples[hist+"_count"]
	if count != 6 {
		t.Errorf("histogram _count = %d, want 6", count)
	}
	if got := samples[hist+"_sum"]; got != 1001006 {
		t.Errorf("histogram _sum = %d, want 1001006", got)
	}
	if got := samples[hist+`_bucket{le="+Inf"}`]; got != count {
		t.Errorf(`+Inf bucket = %d, want _count %d`, got, count)
	}
	// Walk the bucket series in document order.
	var prevCum int64 = -1
	var prevLe int64 = -1
	sawInf := false
	for _, line := range strings.Split(body, "\n") {
		if !strings.HasPrefix(line, hist+`_bucket{le="`) {
			continue
		}
		rest := strings.TrimPrefix(line, hist+`_bucket{le="`)
		end := strings.IndexByte(rest, '"')
		leStr := rest[:end]
		v, err := strconv.ParseInt(strings.Fields(rest[end+2:])[0], 10, 64)
		if err != nil {
			t.Fatalf("bucket line %q: %v", line, err)
		}
		if leStr == "+Inf" {
			sawInf = true
			if v < prevCum {
				t.Errorf("+Inf bucket %d below previous cumulative %d", v, prevCum)
			}
			continue
		}
		if sawInf {
			t.Error("+Inf bucket is not last")
		}
		le, err := strconv.ParseInt(leStr, 10, 64)
		if err != nil {
			t.Fatalf("bucket edge %q: %v", leStr, err)
		}
		if le <= prevLe {
			t.Errorf("bucket edges not increasing: %d after %d", le, prevLe)
		}
		if v < prevCum {
			t.Errorf("cumulative bucket counts not monotone: %d after %d", v, prevCum)
		}
		prevLe, prevCum = le, v
	}
	if !sawInf {
		t.Error("histogram series missing the +Inf bucket")
	}
	// Spot-check two edges: v=0 lands in le="0", v=1000 in le="1023".
	if got := samples[hist+`_bucket{le="0"}`]; got != 1 {
		t.Errorf(`le="0" cumulative = %d, want 1`, got)
	}
	if got := samples[hist+`_bucket{le="1023"}`]; got != 5 {
		t.Errorf(`le="1023" cumulative = %d, want 5`, got)
	}
}

// TestServeTelemetryEndpoints pins the two endpoints: /metrics serves
// the Prometheus exposition, and /events replays the recording — an
// event emitted before the client subscribed arrives — or answers 503
// when no recorder is attached.
func TestServeTelemetryEndpoints(t *testing.T) {
	rec := NewFlightRecorder(0)
	rec.Emit(Event{Kind: EvDesignStart, Val: 12, Who: "bb"})
	bound, _, shutdown, err := ServeTelemetry("127.0.0.1:0", rec)
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown() //nolint:errcheck
	resp, err := http.Get("http://" + bound + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != promContentType {
		t.Errorf("/metrics content type = %q", ct)
	}
	if !strings.Contains(string(body), "# TYPE stbusgen_") {
		t.Error("/metrics exposition has no TYPE lines")
	}

	resp, err = http.Get("http://" + bound + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Errorf("/events content type = %q", ct)
	}
	name, data := readFrame(t, bufio.NewReader(resp.Body))
	if name != "flight" || !strings.Contains(data, `"kind":"design_start"`) || !strings.Contains(data, `"seq":0`) {
		t.Errorf("first /events frame = %s %s, want the replayed design_start", name, data)
	}

	noRec, _, stop2, err := ServeTelemetry("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer stop2() //nolint:errcheck
	resp, err = http.Get("http://" + noRec + "/events")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("/events without a recorder = %d, want 503", resp.StatusCode)
	}
}
