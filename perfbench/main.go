// Command perfbench is the repository benchmark. It builds a workload's
// database from a seeded generator, serves it with the avqserve binary as
// a child process on loopback, drives HTTP traffic at it from this one
// process over at most nproc connections, checks every answer, and prints
// every metric by name and unit. The last line of standard output is one
// JSON object: {"correct", "attempted", "failed", "metrics"}.
//
//	perfbench -server avqserve --workload hot-point --seed 1 --seconds 36 --trace 0
//
// Run it from the repository root (run.sh builds it and does).
//
// With --trace 0 it reports the end-to-end metrics of an open-loop phase
// at the workload's fixed rate and a closed-loop phase. With --trace 1 it
// reports the per-layer metrics instead: it scrapes the server's /metrics
// around an open-loop phase, then replays the same request stream
// in-process one request at a time with spans around each layer's public
// calls, and once more without spans to measure the tracing overhead.
// See README.md for the workloads and what each metric should move.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/debug"
	"syscall"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// config is one run's settings.
type config struct {
	w       *workload
	seed    int64
	seconds float64
	trace   bool
	// root is the source tree (the working directory when run from the
	// command line), build the directory for work files and traces, and
	// server the avqserve binary.
	root, build, server string
	// scale shrinks the relation and the open-loop rate; the smoke test
	// runs at a tenth.
	scale float64
	// setups is how often a trace-0 run sets the database up; setup_s is
	// the median.
	setups int
	// conns is the number of client connections and generator threads.
	conns int
}

func main() {
	var (
		workload = flag.String("workload", "", "workload name: paper-analytic, hot-point or sharded-rw")
		seed     = flag.Int64("seed", 1, "seed of the data and request generators")
		seconds  = flag.Float64("seconds", 30, "measured seconds per run")
		trace    = flag.Int("trace", 0, "1 reports per-layer metrics from the traced run, 0 end-to-end metrics")
		build    = flag.String("build", ".bench_build", "directory for work files and traces")
		server   = flag.String("server", "", "avqserve binary (required)")
	)
	flag.Parse()
	w, err := findWorkload(*workload)
	if err == nil && *server == "" {
		err = fmt.Errorf("-server is required")
	}
	if err == nil && (*trace != 0 && *trace != 1 || *seconds <= 0) {
		err = fmt.Errorf("bad flags: --trace must be 0 or 1 and --seconds positive")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	conns := runtime.NumCPU()
	runtime.GOMAXPROCS(conns)
	// The generator's garbage is not the system's: collecting it less
	// often keeps the generator's GC from taking CPU the server shares.
	debug.SetGCPercent(400)
	cfg := config{
		w: w, seed: *seed, seconds: *seconds, trace: *trace == 1,
		root: ".", build: *build, server: *server,
		scale: 1, setups: 5, conns: conns,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, cfg, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// run executes one run and prints its report to out.
func run(ctx context.Context, cfg config, out io.Writer) error {
	if err := os.MkdirAll(cfg.build, 0o755); err != nil {
		return err
	}
	prov := newProvenance(cfg)
	fmt.Fprintf(out, "# perfbench workload=%s seed=%d seconds=%g trace=%v\n", cfg.w.name, cfg.seed, cfg.seconds, cfg.trace)
	pj, err := json.Marshal(prov)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "# provenance %s\n", pj)

	var rep *report
	if cfg.trace {
		rep, err = traced(ctx, cfg)
	} else {
		rep, err = endToEnd(ctx, cfg)
	}
	if err != nil {
		return err
	}
	for _, l := range rep.notes {
		fmt.Fprintf(out, "# %s\n", l)
	}
	if rep.firstErr != nil {
		fmt.Fprintf(out, "# first failure: %v\n", rep.firstErr)
	}
	res := result{Correct: rep.failed == 0, Attempted: rep.attempted, Failed: rep.failed, Metrics: map[string]metric{}}
	gated := endToEndMetrics
	if cfg.trace {
		gated = perLayerMetrics
	}
	for _, d := range append(append([]metricDef(nil), gated...), summaryMetrics(cfg.trace)...) {
		v, ok := rep.values[d.name]
		if !ok {
			return fmt.Errorf("internal error: metric %s was not computed", d.name)
		}
		fmt.Fprintf(out, "# metric %-28s %14.6g %s\n", d.name, v, d.unit)
	}
	for _, d := range gated {
		res.Metrics[d.name] = metric{Value: rep.values[d.name], Unit: d.unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", line)
	return err
}

// report is what a run measured before formatting.
type report struct {
	values            map[string]float64
	attempted, failed int
	firstErr          error
	notes             []string
}

func (r *report) set(name string, v float64) { r.values[name] = v }

func (r *report) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// addPhase folds a load phase's request counts into the report.
func (r *report) addPhase(p *phase) {
	r.attempted += p.attempted
	r.failed += p.failed
}

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEndMetrics are the gated metrics of a --trace 0 run, every
// workload. They are listed in BENCHMARK.json with their bounds.
var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"read_p50_ms", "ms"},
	{"capacity_ops_per_s", "1/s"},
	{"storage_ratio", "ratio"},
	{"server_rss_mb", "MiB"},
}

// perLayerMetrics are the metrics of a --trace 1 run, every workload; a
// layer a workload does not exercise reports 0.
var perLayerMetrics = []metricDef{
	{"server.decode_us", "us"},
	{"server.encode_us", "us"},
	{"server.queue_wait_p99_ms", "ms"},
	{"server.rejected_frac", "frac"},
	{"server.handler_p50_ms", "ms"},
	{"net.overhead_us", "us"},
	{"net.engine_frac", "frac"},
	{"table.count_us", "us"},
	{"table.aggregate_us", "us"},
	{"table.groupby_us", "us"},
	{"table.select_us", "us"},
	{"table.insert_us", "us"},
	{"table.delete_us", "us"},
	{"table.batch_us", "us"},
	{"shard.scanned_per_query", "shards/query"},
	{"shard.pruned_frac", "frac"},
	{"exec.blocks_read_per_query", "blocks/query"},
	{"exec.pruned_frac", "frac"},
	{"exec.rows_per_match", "rows/row"},
	{"exec.batch_frac", "frac"},
	{"exec.slab_rows", "rows/query"},
	{"core.decode_frac", "frac"},
	{"core.decode_ns_per_row", "ns/row"},
	{"buffer.hit_frac", "frac"},
	{"buffer.evictions_per_query", "1/query"},
	{"blockstore.cache_hit_frac", "frac"},
	{"blockstore.encode_us_per_write", "us/write"},
	{"blockstore.encodes_per_write", "1/write"},
	{"wal.fsyncs_per_write", "1/write"},
	{"wal.group_size_mean", "records"},
	{"wal.bytes_per_user_byte", "B/B"},
	{"write_p50_ms", "ms"},
	{"write_p99_ms", "ms"},
	{"bench.gen_lag_p99_ms", "ms"},
	{"bench.trace_overhead_pct", "%"},
}

// summaryMetrics are printed in the summary but not gated: failed_frac
// is 0 on a correct run (the result's failed/attempted carry it), the
// write latencies exist only on sharded-rw, and the read tail moves too
// much from run to run on a shared host to gate (README.md).
func summaryMetrics(trace bool) []metricDef {
	if trace {
		return []metricDef{{"failed_frac", "frac"}}
	}
	return []metricDef{
		{"failed_frac", "frac"},
		{"read_p95_ms", "ms"},
		{"read_p99_ms", "ms"},
		{"write_p50_ms", "ms"},
		{"write_p99_ms", "ms"},
		{"bench.gen_lag_p99_ms", "ms"},
	}
}
