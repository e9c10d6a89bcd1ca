package stbusgen_test

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildTool compiles one cmd into dir and returns the binary path.
func buildTool(t *testing.T, dir, name string) string {
	t.Helper()
	bin := filepath.Join(dir, name)
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/"+name)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("building %s: %v\n%s", name, err, out)
	}
	return bin
}

func runTool(t *testing.T, bin string, args ...string) string {
	t.Helper()
	out, err := exec.Command(bin, args...).CombinedOutput()
	if err != nil {
		t.Fatalf("%s %v: %v\n%s", filepath.Base(bin), args, err, out)
	}
	return string(out)
}

// TestCLIPipeline drives the full command-line workflow: simulate,
// inspect the trace, design from it, and emit the netlist — the same
// steps a user follows in the README.
func TestCLIPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration in -short mode")
	}
	dir := t.TempDir()
	simBin := buildTool(t, dir, "stbus-sim")
	genBin := buildTool(t, dir, "xbargen")
	statBin := buildTool(t, dir, "tracestat")

	prefix := filepath.Join(dir, "qsort")
	out := runTool(t, simBin, "-app", "qsort", "-arch", "full", "-dump-traces", prefix)
	if !strings.Contains(out, "QSort on full STbus") {
		t.Errorf("stbus-sim output unexpected:\n%s", out)
	}
	for _, suffix := range []string{".req.trc", ".resp.trc"} {
		if _, err := os.Stat(prefix + suffix); err != nil {
			t.Fatalf("trace file missing: %v", err)
		}
	}

	out = runTool(t, statBin, "-trace", prefix+".req.trc")
	if !strings.Contains(out, "per-receiver duty") {
		t.Errorf("tracestat output unexpected:\n%s", out)
	}

	netlistPath := filepath.Join(dir, "design.json")
	out = runTool(t, genBin,
		"-trace", prefix+".req.trc", "-window", "900",
		"-netlist", netlistPath)
	if !strings.Contains(out, "design: 3 buses") {
		t.Errorf("xbargen output unexpected (want 3 buses):\n%s", out)
	}
	data, err := os.ReadFile(netlistPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"buses"`) {
		t.Errorf("netlist JSON unexpected:\n%s", data)
	}
}

// TestCLISpec drives the custom-workload path.
func TestCLISpec(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration in -short mode")
	}
	dir := t.TempDir()
	simBin := buildTool(t, dir, "stbus-sim")

	specPath := filepath.Join(dir, "spec.json")
	spec := `{
		"name": "CLITest",
		"arm_cores": 3,
		"iterations": 6,
		"reads": 8, "read_burst": 4,
		"writes": 2, "write_burst": 4,
		"gap": 5, "idle": 300
	}`
	if err := os.WriteFile(specPath, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	out := runTool(t, simBin, "-spec", specPath)
	if !strings.Contains(out, "CLITest on full STbus (3 initiators, 6 targets") {
		t.Errorf("spec-driven run unexpected:\n%s", out)
	}
}

// TestCLITraceExport runs the simulate→design flow with -trace-out and
// validates the emitted Chrome trace-event JSON: it must parse, carry
// the expected top-level phase spans, and stay within the trace-event
// schema (X events with non-negative timestamps). This is the CI guard
// against instrumentation rot.
func TestCLITraceExport(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration in -short mode")
	}
	dir := t.TempDir()
	simBin := buildTool(t, dir, "stbus-sim")
	genBin := buildTool(t, dir, "xbargen")

	prefix := filepath.Join(dir, "mat2")
	runTool(t, simBin, "-app", "mat2", "-arch", "full", "-dump-traces", prefix)

	tracePath := filepath.Join(dir, "design.trace.json")
	runTool(t, genBin, "-trace", prefix+".req.trc", "-window", "800", "-trace-out", tracePath)

	data, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			Pid  int     `json:"pid"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(data, &parsed); err != nil {
		t.Fatalf("trace JSON does not parse: %v\n%s", err, data)
	}
	if parsed.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q, want ms", parsed.DisplayTimeUnit)
	}
	seen := map[string]bool{}
	for _, e := range parsed.TraceEvents {
		seen[e.Name] = true
		if e.Ph != "X" && e.Ph != "M" {
			t.Errorf("unexpected event phase %q", e.Ph)
		}
		if e.Ts < 0 || e.Dur < 0 {
			t.Errorf("event %s has negative time (ts=%v dur=%v)", e.Name, e.Ts, e.Dur)
		}
	}
	for _, want := range []string{"trace.analyze", "core.design", "core.search", "core.probe", "core.bind"} {
		if !seen[want] {
			t.Errorf("trace is missing expected phase span %q (got %v)", want, seen)
		}
	}
}

// TestCLIExperiments smoke-tests the experiment driver on the cheapest
// artifact.
func TestCLIExperiments(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration in -short mode")
	}
	dir := t.TempDir()
	expBin := buildTool(t, dir, "experiments")
	out := runTool(t, expBin, "-run", "table1")
	if !strings.Contains(out, "Table 1") || !strings.Contains(out, "partial") {
		t.Errorf("experiments output unexpected:\n%s", out)
	}
}

// TestCLIFlightRecording drives the shared -flight-out flag end to end:
// a design run journals its flight events to NDJSON, and flightview
// renders the summary, the replay and the canonical reduction from it.
func TestCLIFlightRecording(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration in -short mode")
	}
	dir := t.TempDir()
	simBin := buildTool(t, dir, "stbus-sim")
	genBin := buildTool(t, dir, "xbargen")
	fvBin := buildTool(t, dir, "flightview")

	prefix := filepath.Join(dir, "mat2")
	runTool(t, simBin, "-app", "mat2", "-arch", "full", "-dump-traces", prefix)

	flightPath := filepath.Join(dir, "run.flight")
	runTool(t, genBin, "-trace", prefix+".req.trc", "-window", "800", "-flight-out", flightPath)
	if fi, err := os.Stat(flightPath); err != nil || fi.Size() == 0 {
		t.Fatalf("flight recording not written: %v", err)
	}

	out := runTool(t, fvBin, "-in", flightPath)
	for _, want := range []string{"recording:", "design start:", "design done:", "probes:"} {
		if !strings.Contains(out, want) {
			t.Errorf("flightview summary missing %q:\n%s", want, out)
		}
	}

	out = runTool(t, fvBin, "-in", flightPath, "-replay")
	for _, want := range []string{"design_start", "probe_close", "design_done"} {
		if !strings.Contains(out, want) {
			t.Errorf("flightview replay missing %q:\n%s", want, out)
		}
	}

	// The canonical reduction must itself be a loadable recording, and
	// reducing it again must be a fixed point.
	canon := runTool(t, fvBin, "-in", flightPath, "-canon")
	canonPath := filepath.Join(dir, "run.canon")
	if err := os.WriteFile(canonPath, []byte(canon), 0o644); err != nil {
		t.Fatal(err)
	}
	if again := runTool(t, fvBin, "-in", canonPath, "-canon"); again != canon {
		t.Errorf("canonical reduction is not a fixed point:\n first: %s\nsecond: %s", canon, again)
	}
}
