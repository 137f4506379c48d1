package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// benchmarkFile mirrors the parts of BENCHMARK.json this test checks.
type benchmarkFile struct {
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

// TestBenchmarkFileMatches pins BENCHMARK.json to the metrics and
// workloads the program implements.
func TestBenchmarkFileMatches(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json says %q, the program %q", i, w.Name, workloads[i].name)
		}
	}
	check := func(kind string, listed []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}, want []metricDef) {
		if len(listed) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program reports %d", kind, len(listed), len(want))
		}
		for i, m := range listed {
			if m.Name != want[i].name || m.Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json says %s [%s], the program %s [%s]", kind, i, m.Name, m.Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", bf.EndToEnd, endToEndMetrics)
	check("per_layer", bf.PerLayer, perLayerMetrics)
}

// TestSmoke runs every workload, end to end and traced, at a small scale
// against a freshly built avqserve, and requires a correct result that
// prints every metric with its unit.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds avqserve and runs six short benchmark runs")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "avqserve")
	build := exec.Command("go", "build", "-o", bin, "repro/cmd/avqserve")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build avqserve: %v\n%s", err, out)
	}
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			name := w.name + "/trace0"
			if trace {
				name = w.name + "/trace1"
			}
			t.Run(name, func(t *testing.T) {
				cfg := config{
					w: w, seed: 7, seconds: 2, trace: trace,
					root: "..", build: filepath.Join(dir, "build"), server: bin,
					scale: 0.1, setups: 1, conns: runtime.NumCPU(),
				}
				var out bytes.Buffer
				if err := run(context.Background(), cfg, &out); err != nil {
					t.Fatalf("run: %v\n%s", err, out.String())
				}
				checkOutput(t, out.String(), trace)
			})
		}
	}
}

// checkOutput requires the result line to be correct and to carry every
// gated metric with its unit, and the summary to print every gated and
// summary metric with its unit.
func checkOutput(t *testing.T, out string, trace bool) {
	t.Helper()
	var lines []string
	sc := bufio.NewScanner(strings.NewReader(out))
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	if len(lines) == 0 {
		t.Fatal("no output")
	}
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result: %v\n%s", err, out)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("result correct=%v failed=%d attempted=%d\n%s", res.Correct, res.Failed, res.Attempted, out)
	}
	gated := endToEndMetrics
	if trace {
		gated = perLayerMetrics
	}
	if len(res.Metrics) != len(gated) {
		t.Errorf("result has %d metrics, want %d", len(res.Metrics), len(gated))
	}
	for _, d := range gated {
		if m, ok := res.Metrics[d.name]; !ok || m.Unit != d.unit {
			t.Errorf("result lacks %s [%s]: %+v", d.name, d.unit, m)
		}
	}
	printed := map[string]string{}
	for _, l := range lines {
		if f := strings.Fields(l); len(f) == 5 && f[0] == "#" && f[1] == "metric" {
			printed[f[2]] = f[4]
		}
	}
	for _, d := range append(append([]metricDef(nil), gated...), summaryMetrics(trace)...) {
		if printed[d.name] != d.unit {
			t.Errorf("summary lacks %s [%s]", d.name, d.unit)
		}
	}
	if !strings.Contains(out, "# provenance {") {
		t.Error("no provenance line")
	}
}
