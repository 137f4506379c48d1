package experiments

import (
	"context"
	"fmt"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/obs"
	"repro/internal/relation"
	"repro/internal/table"
)

// ObsConfig parameterizes the observability-overhead experiment (A6).
type ObsConfig struct {
	// Tuples is the relation size; default 100_000.
	Tuples int
	// PageSize is the block size; default 8192.
	PageSize int
	// Rounds is how many times each configuration is measured; the best
	// round is kept, which filters scheduler noise. Default 5.
	Rounds int
	// CountIters is how many CountRange queries each round times; the
	// query is microseconds-scale, so a single call cannot be timed
	// reliably. Default 50.
	CountIters int
	// Seed makes the relation deterministic.
	Seed int64
}

func (c *ObsConfig) fillDefaults() {
	if c.Tuples == 0 {
		c.Tuples = 100_000
	}
	if c.PageSize == 0 {
		c.PageSize = 8192
	}
	if c.Rounds == 0 {
		c.Rounds = 5
	}
	if c.CountIters == 0 {
		c.CountIters = 50
	}
}

// ObsResult reports the cost of the observability layer: the same bulk
// load and count-range workload with and without a registry attached. The
// acceptance gate is obsMaxOverheadPct (5%) on each workload: instruments
// are atomics resolved once at construction, so the hot path pays one nil
// check plus a handful of atomic adds per block, not per tuple. As
// evidence that every layer reported, the instrumented run's counters are
// recorded as "counter/<name>" and its op/latency histograms'
// observation counts as "span/<name>".
type ObsResult struct{ Envelope }

// obsMaxOverheadPct is the acceptance ceiling for instrumentation cost.
const obsMaxOverheadPct = 5.0

// runObsOnce loads the relation into a fresh table (optionally
// instrumented) and times the load and a batch of CountRange queries.
func runObsOnce(ctx context.Context, schema *relation.Schema, tuples []relation.Tuple, cfg ObsConfig, reg *obs.Registry) (load, count time.Duration, err error) {
	tb, err := table.Create(schema,
		table.WithCodec(core.CodecAVQ),
		table.WithPageSize(cfg.PageSize),
		table.WithPoolFrames(256),
		table.WithObs(reg),
	)
	if err != nil {
		return 0, 0, err
	}
	start := time.Now()
	if err := tb.BulkLoadContext(ctx, tuples); err != nil {
		return 0, 0, err
	}
	load = time.Since(start)

	dom := schema.Domain(0).Size
	start = time.Now()
	for i := 0; i < cfg.CountIters; i++ {
		if _, _, err := tb.CountRangeContext(ctx, 0, dom/4, dom/2); err != nil {
			return 0, 0, err
		}
	}
	count = time.Since(start)
	return load, count, nil
}

// RunObs measures the observability layer's overhead on the two hot
// workloads the acceptance gate names: BulkLoad and CountRange. Each
// configuration runs cfg.Rounds times and the fastest round is kept.
func RunObs(ctx context.Context, cfg ObsConfig) (*ObsResult, error) {
	cfg.fillDefaults()
	spec := gen.Fig57Spec(cfg.Tuples, true, gen.VarianceLarge, cfg.Seed)
	schema, tuples, err := spec.Build()
	if err != nil {
		return nil, err
	}
	schema.SortTuples(tuples)

	best := func(reg func() *obs.Registry) (load, count time.Duration, lastReg *obs.Registry, err error) {
		for r := 0; r < cfg.Rounds; r++ {
			thisReg := reg()
			l, c, err := runObsOnce(ctx, schema, tuples, cfg, thisReg)
			if err != nil {
				return 0, 0, nil, err
			}
			if r == 0 || l < load {
				load = l
			}
			if r == 0 || c < count {
				count = c
			}
			lastReg = thisReg
		}
		return load, count, lastReg, nil
	}

	baseLoad, baseCount, _, err := best(func() *obs.Registry { return nil })
	if err != nil {
		return nil, err
	}
	obsLoad, obsCount, reg, err := best(obs.NewRegistry)
	if err != nil {
		return nil, err
	}

	pct := func(base, inst time.Duration) float64 {
		return 100 * ratio(float64(inst-base), float64(base))
	}
	res := &ObsResult{newEnvelope("obs", map[string]float64{
		"tuples":      float64(cfg.Tuples),
		"page_size":   float64(cfg.PageSize),
		"rounds":      float64(cfg.Rounds),
		"count_iters": float64(cfg.CountIters),
	})}
	snap := reg.Snapshot()
	m := map[string]float64{
		"base_load_ms":       millis(baseLoad),
		"obs_load_ms":        millis(obsLoad),
		"load_overhead_pct":  pct(baseLoad, obsLoad),
		"base_count_ms":      millis(baseCount),
		"obs_count_ms":       millis(obsCount),
		"count_overhead_pct": pct(baseCount, obsCount),
		"counters":           float64(len(snap.Counters)),
		"histograms":         float64(len(snap.Histograms)),
	}
	for _, c := range snap.Counters {
		m["counter/"+c.Name] = float64(c.Value)
	}
	for _, h := range snap.Histograms {
		m["span/"+h.Name] = float64(h.Count)
	}
	res.Metrics = m
	res.Gates = []Gate{
		check("load_overhead_pct", m["load_overhead_pct"], "<=", obsMaxOverheadPct),
		check("count_overhead_pct", m["count_overhead_pct"], "<=", obsMaxOverheadPct),
	}
	return res, nil
}

// WriteText renders the result as an aligned report.
func (r *ObsResult) WriteText(w io.Writer) error {
	wl, m := r.Workload, r.Metrics
	fmt.Fprintf(w, "Observability overhead (A6): %.0f tuples, %.0f-byte pages, best of %.0f rounds\n",
		wl["tuples"], wl["page_size"], wl["rounds"])
	fmt.Fprintf(w, "%-22s %12s %12s %10s\n", "workload", "baseline ms", "obs ms", "overhead")
	fmt.Fprintf(w, "%-22s %12.2f %12.2f %9.2f%%\n", "bulk load", m["base_load_ms"], m["obs_load_ms"], m["load_overhead_pct"])
	fmt.Fprintf(w, "%-22s %12.2f %12.2f %9.2f%%\n", fmt.Sprintf("count-range x%.0f", wl["count_iters"]),
		m["base_count_ms"], m["obs_count_ms"], m["count_overhead_pct"])
	fmt.Fprintf(w, "instrumented run reported %.0f counters, %.0f op/latency histograms\n",
		m["counters"], m["histograms"])
	writeGates(w, r.Gates)
	return nil
}
