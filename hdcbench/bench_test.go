package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strconv"
	"strings"
	"testing"
)

// benchmarkSpec is the part of BENCHMARK.json the smoke test checks against.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// TestSmoke runs every workload briefly, untraced and traced, and checks
// that each metric BENCHMARK.json names is emitted with its unit, that
// every request was answered correctly, and that the report carries the
// eight end-to-end metrics and a closure that accounts for the request.
func TestSmoke(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(spec.Workloads), len(workloadNames))
	}
	for _, w := range spec.Workloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(w.Name+"/trace="+trace, func(t *testing.T) {
				var out bytes.Buffer
				args := []string{"--workload", w.Name, "--seed", "1", "--seconds", "1",
					"--trace", trace, "--workdir", t.TempDir()}
				if err := run(args, &out); err != nil {
					t.Fatalf("run: %v\n%s", err, out.String())
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result: %v", err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct=%v attempted=%d failed=%d (error_ratio must be 0)\n%s", res.Correct, res.Attempted, res.Failed, out.String())
				}
				want := spec.EndToEnd
				if trace == "1" {
					want = spec.PerLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics emitted, BENCHMARK.json names %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok || got.Unit != m.Unit {
						t.Errorf("metric %s: got %+v (present %v), want unit %s", m.Name, got, ok, m.Unit)
					}
				}
				report := out.String()
				for _, name := range []string{"setup_s", "items_per_s", "latency_p50_ms", "latency_p99_ms",
					"error_ratio", "cpu_ms_per_item", "alloc_kb_per_item", "mem_peak_mb"} {
					if !strings.Contains(report, "  "+name+" ") {
						t.Errorf("report lacks end-to-end metric %s", name)
					}
				}
				if v, ok := reportValue(report, "error_ratio"); !ok || v != 0 {
					t.Errorf("report shows error_ratio %v (found %v), want 0", v, ok)
				}
				if trace == "1" {
					checkClosure(t, w.Name, report)
				}
			})
		}
	}
}

// reportFields are the fields after key on the first report line that
// starts with key.
func reportFields(report, key string) ([]string, bool) {
	for _, line := range strings.Split(report, "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), key+" "); ok {
			return strings.Fields(rest), true
		}
	}
	return nil, false
}

// reportValue is the number after key on the first report line that
// starts with key.
func reportValue(report, key string) (float64, bool) {
	f, ok := reportFields(report, key)
	if !ok || len(f) == 0 {
		return 0, false
	}
	v, err := strconv.ParseFloat(f[0], 64)
	return v, err == nil
}

// reportCalls is the calls=N count on the first report line that starts
// with key, -1 when there is none.
func reportCalls(report, key string) int {
	f, _ := reportFields(report, key)
	for _, s := range f {
		if n, ok := strings.CutPrefix(s, "calls="); ok {
			if v, err := strconv.Atoi(n); err == nil {
				return v
			}
		}
	}
	return -1
}

// signRungs and telemetryRungs are the closure rungs the workloads'
// requests pass through.
var (
	signRungs = []string{"wire.encode_us", "http.transport_us", "server.handler_self_us", "pipeline.dispatch_us",
		"recognizer.self_us", "vision.binarize_us", "vision.morph_us", "vision.contour_us", "sax.encode_us", "sax.lookup_us"}
	telemetryRungs = []string{"wire.encode_us", "http.transport_us", "server.handler_self_us", "graph.self_us", "graph.node_us"}
)

// maxUnattributed bounds |unattributed_us| as a share of the traced request.
// The largest rung of each workload (morphology, lookup, handler) is over
// half of its request, so a dominant rung lost from the sum trips it.
const maxUnattributed = 0.4

// checkClosure checks the closure report: every rung the workload's
// requests pass through was called, bare and traced requests were both
// sent, and the rungs leave at most maxUnattributed of the traced request
// unattributed.
func checkClosure(t *testing.T, workload, report string) {
	t.Helper()
	rungs := signRungs
	if workload == "telemetry_graph" {
		rungs = telemetryRungs
	}
	for _, r := range append(rungs, "traced request p50", "bare request p50") {
		if n := reportCalls(report, r); n <= 0 {
			t.Errorf("closure rung %s: calls=%d, want > 0", r, n)
		}
	}
	rest, ok1 := reportValue(report, "unattributed_us")
	req, ok2 := reportValue(report, "traced request p50")
	if !ok1 || !ok2 || req <= 0 {
		t.Fatalf("closure report incomplete\n%s", report)
	}
	if math.Abs(rest) > maxUnattributed*req {
		t.Errorf("unattributed %.2f us is over %.0f%% of the traced request %.2f us", rest, 100*maxUnattributed, req)
	}
}
