package experiments

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"runtime"
	"time"

	"repro/internal/blockstore"
	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/relation"
	"repro/internal/storage"
)

// PipelineConfig parameterizes the parallel codec pipeline benchmark.
type PipelineConfig struct {
	// Tuples is the relation size; default 100_000 (the paper's 10^5
	// evaluation scale).
	Tuples int
	// PageSize is the block size; default 8192.
	PageSize int
	// Concurrency is the worker count for the parallel runs; default
	// GOMAXPROCS.
	Concurrency int
	// CacheBlocks sizes the decoded-block cache for the parallel scan
	// pass; default 256.
	CacheBlocks int
	// Seed makes the relation deterministic.
	Seed int64
}

func (c *PipelineConfig) fillDefaults() {
	if c.Tuples == 0 {
		c.Tuples = 100_000
	}
	if c.PageSize == 0 {
		c.PageSize = storage.DefaultPageSize
	}
	if c.Concurrency == 0 {
		c.Concurrency = runtime.GOMAXPROCS(0)
	}
	if c.CacheBlocks == 0 {
		c.CacheBlocks = 256
	}
}

// PipelineResult compares the serial reference codec path against the
// worker-pool pipeline on the same relation: load and scan time and
// throughput per mode (load_ms/serial, scan_mb_per_s/parallel, ...) and
// the decoded-block cache counters after the parallel scan passes. Gate:
// the parallel load produces byte-identical page images to the serial
// load — the pipeline's core invariant.
type PipelineResult struct{ Envelope }

// pipelineRelation builds the benchmark relation: the Figure 5.7 family
// (15 attributes), sorted into phi order ready for bulk loading.
func pipelineRelation(cfg PipelineConfig) (*relation.Schema, []relation.Tuple, error) {
	spec := gen.Fig57Spec(cfg.Tuples, true, gen.VarianceLarge, cfg.Seed)
	schema, tuples, err := spec.Build()
	if err != nil {
		return nil, nil, err
	}
	schema.SortTuples(tuples)
	return schema, tuples, nil
}

// runPipelineOnce loads and scans the relation once at the given
// configuration, recording load and scan time and throughput in m under
// mode, and returns the store's page images for the identity check.
func runPipelineOnce(ctx context.Context, schema *relation.Schema, tuples []relation.Tuple, pageSize int, cfg blockstore.Config, mode string, m map[string]float64) ([][]byte, blockstore.CacheStats, error) {
	pager, err := storage.NewMemPager(pageSize)
	if err != nil {
		return nil, blockstore.CacheStats{}, err
	}
	pool, err := buffer.New(pager, nil, 256)
	if err != nil {
		return nil, blockstore.CacheStats{}, err
	}
	store, err := blockstore.New(schema, core.CodecAVQ, pool)
	if err != nil {
		return nil, blockstore.CacheStats{}, err
	}
	store.Configure(cfg)
	rawMB := float64(len(tuples)*schema.RowSize()) / (1 << 20)

	start := time.Now()
	if _, err := store.BulkLoadContext(ctx, tuples); err != nil {
		return nil, blockstore.CacheStats{}, err
	}
	load := time.Since(start)

	// Two scan passes: the second exercises the decoded-block cache when
	// it is enabled. MB/s is per pass.
	start = time.Now()
	for pass := 0; pass < 2; pass++ {
		if err := store.ScanBlocksContext(ctx, func(storage.PageID, []relation.Tuple) bool { return true }); err != nil {
			return nil, blockstore.CacheStats{}, err
		}
	}
	scan := time.Since(start) / 2

	if err := pool.Flush(); err != nil {
		return nil, blockstore.CacheStats{}, err
	}
	images := make([][]byte, 0, len(store.Blocks()))
	for _, id := range store.Blocks() {
		buf := make([]byte, pageSize)
		if err := pager.Read(id, buf); err != nil {
			return nil, blockstore.CacheStats{}, err
		}
		images = append(images, buf)
	}

	m["load_ms/"+mode], m["load_mb_per_s/"+mode] = millis(load), rawMB/load.Seconds()
	m["scan_ms/"+mode], m["scan_mb_per_s/"+mode] = millis(scan), rawMB/scan.Seconds()
	return images, store.CacheStats(), nil
}

// RunPipeline benchmarks bulk load and full scans through the serial
// reference path and the worker-pool pipeline, and verifies the two
// produce byte-identical block layouts.
func RunPipeline(ctx context.Context, cfg PipelineConfig) (*PipelineResult, error) {
	cfg.fillDefaults()
	schema, tuples, err := pipelineRelation(cfg)
	if err != nil {
		return nil, err
	}
	res := &PipelineResult{newEnvelope("pipeline", map[string]float64{
		"tuples":       float64(len(tuples)),
		"attrs":        float64(schema.NumAttrs()),
		"page_size":    float64(cfg.PageSize),
		"concurrency":  float64(cfg.Concurrency),
		"cache_blocks": float64(cfg.CacheBlocks),
	})}
	m := res.Metrics
	serialImages, _, err := runPipelineOnce(ctx, schema, tuples, cfg.PageSize, blockstore.Config{}, "serial", m)
	if err != nil {
		return nil, err
	}
	parImages, cache, err := runPipelineOnce(ctx, schema, tuples, cfg.PageSize, blockstore.Config{
		Concurrency: cfg.Concurrency,
		CacheBlocks: cfg.CacheBlocks,
	}, "parallel", m)
	if err != nil {
		return nil, err
	}
	identical := len(serialImages) == len(parImages)
	for i := 0; identical && i < len(serialImages); i++ {
		identical = bytes.Equal(serialImages[i], parImages[i])
	}
	m["raw_mb"] = float64(len(tuples)*schema.RowSize()) / (1 << 20)
	m["blocks"] = float64(len(serialImages))
	m["load_speedup"] = m["load_mb_per_s/parallel"] / m["load_mb_per_s/serial"]
	m["scan_speedup"] = m["scan_mb_per_s/parallel"] / m["scan_mb_per_s/serial"]
	m["cache_hits"], m["cache_misses"] = float64(cache.Hits), float64(cache.Misses)
	m["cache_invalidations"], m["cache_entries"] = float64(cache.Invalidations), float64(cache.Entries)
	res.Gates = []Gate{holds("byte_identical", identical)}
	return res, nil
}

// WriteText renders the benchmark like the report tables.
func (r *PipelineResult) WriteText(w io.Writer) error {
	wl, m := r.Workload, r.Metrics
	fmt.Fprintf(w, "Parallel codec pipeline: %.0f tuples x %.0f attrs (%.1f MB raw), %.0f AVQ blocks\n",
		wl["tuples"], wl["attrs"], m["raw_mb"], m["blocks"])
	t := &textTable{header: []string{"mode", "workers", "load ms", "load MB/s", "scan ms", "scan MB/s"}}
	for _, row := range []struct {
		mode    string
		workers float64
	}{{"serial", 1}, {"parallel", wl["concurrency"]}} {
		t.addRow(row.mode,
			fmt.Sprintf("%.0f", row.workers),
			fmt.Sprintf("%.1f", m["load_ms/"+row.mode]),
			fmt.Sprintf("%.1f", m["load_mb_per_s/"+row.mode]),
			fmt.Sprintf("%.1f", m["scan_ms/"+row.mode]),
			fmt.Sprintf("%.1f", m["scan_mb_per_s/"+row.mode]))
	}
	if err := t.write(w); err != nil {
		return err
	}
	fmt.Fprintf(w, "\nload speedup %.2fx, scan speedup %.2fx\n", m["load_speedup"], m["scan_speedup"])
	fmt.Fprintf(w, "decoded-block cache: %.0f hits, %.0f misses, %.0f invalidations, %.0f resident\n",
		m["cache_hits"], m["cache_misses"], m["cache_invalidations"], m["cache_entries"])
	writeGates(w, r.Gates)
	return nil
}
