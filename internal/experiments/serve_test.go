package experiments

import (
	"context"
	"strings"
	"testing"
)

func TestServeSmallScale(t *testing.T) {
	res, err := RunServe(context.Background(), ServeConfig{
		Tuples: 4000, Requests: 300, Concurrency: 4, Rounds: 2, OverheadIters: 20, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	m := res.Metrics
	if m["errors"] != 0 {
		t.Fatalf("%.0f request errors", m["errors"])
	}
	if m["writes"] == 0 {
		t.Fatal("workload issued no mutations")
	}
	if m["p50_ms"] <= 0 || m["p99_ms"] < m["p50_ms"] {
		t.Fatalf("implausible percentiles: p50 %.3f p99 %.3f", m["p50_ms"], m["p99_ms"])
	}
	// The saturation phase must shed load without losing any request,
	// and the drain must leave no pins or snapshots behind.
	for _, name := range []string{"overload_ok", "overload_rejected", "overload_answered",
		"drain_errors", "pinned_frames", "live_snapshots"} {
		if g := gateOf(t, &res.Envelope, name); g.Status != StatusPass {
			t.Fatalf("gate %s failed: %+v (%.0f ok + %.0f rejected)",
				name, g, m["overload_ok"], m["overload_rejected"])
		}
	}
	// The overhead gate is wall-clock-sensitive, so the test only checks
	// the measurement is sane; `avqbench -exp gate` enforces 5%.
	if m["direct_us_per_op"] <= 0 || m["limited_us_per_op"] <= 0 {
		t.Fatalf("degenerate overhead measurement: %v", m)
	}
	var sb strings.Builder
	if err := res.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "Query server (A10)") {
		t.Fatal("report missing title")
	}
	back := roundTrip(t, &res.Envelope)
	for _, key := range []string{"p99_ms", "admission_overhead_pct"} {
		if _, ok := back.Metrics[key]; !ok {
			t.Fatalf("recorded metrics missing %s", key)
		}
		gateOf(t, back, key)
	}
	for _, g := range back.Gates {
		if g.Status != StatusPass && g.Status != StatusFail {
			t.Fatalf("gate %s has status %q, want pass or fail", g.Name, g.Status)
		}
	}
}
