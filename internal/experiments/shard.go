package experiments

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"time"

	"repro/internal/relation"
	"repro/internal/shard"
	"repro/internal/table"
)

// ShardConfig parameterizes the φ-range sharding experiment: scatter
// scan scaling across shard counts, whole-shard pruning against
// single-table fence pruning, and the zero-allocation count path under
// the shard layer.
type ShardConfig struct {
	// Tuples is the relation size; default 120_000.
	Tuples int
	// PageSize is the block size; default 2048, small enough that each
	// shard holds many blocks and pruning rates are meaningful.
	PageSize int
	// ShardCounts are the φ-range partition widths swept; default
	// {1, 2, 4, 8}. Must include 1 (the baseline) and 4 (the gate).
	ShardCounts []int
	// Rounds is how many times each measurement repeats; the best round
	// is kept. Default 5.
	Rounds int
	// Seed makes the relation deterministic.
	Seed int64
}

func (c *ShardConfig) fillDefaults() {
	if c.Tuples == 0 {
		c.Tuples = 120_000
	}
	if c.PageSize == 0 {
		c.PageSize = 2048
	}
	if len(c.ShardCounts) == 0 {
		c.ShardCounts = []int{1, 2, 4, 8}
	}
	if c.Rounds == 0 {
		c.Rounds = 5
	}
}

// ShardResult reports the sharding measurements: the full-scan time and
// speedup over one shard at each shard count k (scan_ms/shards=k,
// speedup/shards=k), pruning at ~1% selectivity, and the count path's
// allocations. Gates:
//   - the scatter-gather executor scans at least shardMinSpeedup4 times
//     faster at four shards than at one; the speedup is parallelism, so
//     the gate is waived on a host with fewer than shardMinCPUs CPUs;
//   - at ~1% φ-selectivity the sharded database prunes at least the
//     block fraction the single-table fence path prunes — catalog
//     pruning must subsume, never lose, fence pruning;
//   - the table-level CountRange arena path still allocates only O(1)
//     bookkeeping per query — at most shardMaxCountAllocs objects,
//     nothing per block or per tuple; the per-block decode kernels'
//     strict 0 allocs/op gate lives in the decode experiment.
type ShardResult struct {
	Envelope
	shardCounts []int
}

// shardMinSpeedup4 is the acceptance floor for scatter-gather scan
// throughput at four shards over the single-shard degenerate case.
const shardMinSpeedup4 = 2.0

// shardMinCPUs is the core count below which the scaling gate is waived.
const shardMinCPUs = 4

// shardMaxCountAllocs bounds CountRange's per-query bookkeeping: the
// pass struct, bound split, and first-use stream buffer are O(1); any
// per-block or per-tuple allocation would scale with the relation and
// blow far past this.
const shardMaxCountAllocs = 16

// shardPoolFrames is the buffer-pool budget split evenly across the
// shards at every shard count (the single-table default), so the sweep
// varies the shard count alone, not the cache size with it.
const shardPoolFrames = 128

// shardBenchSchema is the employee relation scaled so attribute 0 has a
// φ-domain wide enough for eight shards and a ~1%-selectivity range.
func shardBenchSchema() *relation.Schema {
	return relation.MustSchema(
		relation.Domain{Name: "dept", Size: 512},
		relation.Domain{Name: "job", Size: 16},
		relation.Domain{Name: "years", Size: 64},
		relation.Domain{Name: "empno", Size: 4096},
	)
}

func shardBenchTuples(schema *relation.Schema, n int, seed int64) []relation.Tuple {
	rng := rand.New(rand.NewSource(seed))
	tuples := make([]relation.Tuple, n)
	for i := range tuples {
		tu := make(relation.Tuple, schema.NumAttrs())
		for j := 0; j < schema.NumAttrs(); j++ {
			tu[j] = uint64(rng.Int63n(int64(schema.Domain(j).Size)))
		}
		tuples[i] = tu
	}
	return tuples
}

// shardScanOnce times one full-φ-range scatter scan, counting rows to
// keep the emit callback as cheap as a real aggregation consumer.
func shardScanOnce(ctx context.Context, db *shard.DB, domain uint64, want int) (time.Duration, error) {
	rows := 0
	start := time.Now()
	_, err := db.SelectRangeFunc(ctx, 0, 0, domain-1, func(relation.Tuple) bool {
		rows++
		return true
	})
	elapsed := time.Since(start)
	if err != nil {
		return 0, err
	}
	if rows != want {
		return 0, fmt.Errorf("scan saw %d rows, want %d", rows, want)
	}
	return elapsed, nil
}

// RunShard measures the φ-range sharding layer: scan scaling over shard
// counts, catalog pruning versus fence pruning at ~1% selectivity, and
// the allocation-free count path.
func RunShard(ctx context.Context, cfg ShardConfig) (*ShardResult, error) {
	cfg.fillDefaults()

	schema := shardBenchSchema()
	domain := schema.Domain(0).Size
	tuples := shardBenchTuples(schema, cfg.Tuples, cfg.Seed)
	// ~1% of the φ-domain, rounded up so at least one value qualifies.
	width := domain / 100
	if width == 0 {
		width = 1
	}

	res := &ShardResult{
		Envelope: newEnvelope("shard", map[string]float64{
			"tuples":      float64(cfg.Tuples),
			"page_size":   float64(cfg.PageSize),
			"rounds":      float64(cfg.Rounds),
			"pool_frames": shardPoolFrames,
		}),
		shardCounts: cfg.ShardCounts,
	}
	m := res.Metrics
	m["selectivity_pct"] = 100 * float64(width) / float64(domain)

	var base time.Duration
	for _, k := range cfg.ShardCounts {
		db, err := shard.Create(schema, shard.Config{
			Shards: k,
			Options: []table.Option{
				table.WithPageSize(cfg.PageSize),
				table.WithPoolFrames(shardPoolFrames / k),
			},
		})
		if err != nil {
			return nil, fmt.Errorf("create %d shards: %w", k, err)
		}
		if err := db.BulkLoad(ctx, tuples); err != nil {
			//avqlint:ignore droppederr already failing; Close error would mask the load error
			db.Close()
			return nil, fmt.Errorf("load %d shards: %w", k, err)
		}

		var best time.Duration
		for r := 0; r < cfg.Rounds; r++ {
			t, err := shardScanOnce(ctx, db, domain, cfg.Tuples)
			if err != nil {
				//avqlint:ignore droppederr already failing; Close error would mask the scan error
				db.Close()
				return nil, err
			}
			if r == 0 || t < best {
				best = t
			}
		}
		if k == 1 {
			base = best
		}
		m[fmt.Sprintf("scan_ms/shards=%d", k)] = millis(best)
		m[fmt.Sprintf("speedup/shards=%d", k)] = ratio(float64(base), float64(best))

		// Pruning at ~1% selectivity: every block is either read or
		// pruned (whole-shard prunes credit each skipped shard's blocks),
		// so pruned/total is comparable across shard counts.
		_, st, err := db.CountRange(ctx, 0, 0, width-1)
		if err != nil {
			//avqlint:ignore droppederr already failing; Close error would mask the query error
			db.Close()
			return nil, err
		}
		total := db.NumBlocks()
		pct := 100 * ratio(float64(st.BlocksPruned), float64(total))
		if k == 1 {
			m["fence_pruned_pct"] = pct
		}
		if k == cfg.ShardCounts[len(cfg.ShardCounts)-1] {
			m["shard_pruned_pct"], m["shard_blocks_total"] = pct, float64(total)
		}
		if err := db.Close(); err != nil {
			return nil, err
		}
	}

	// The decode path under the shard layer: a plain table's CountRange
	// must still run on the arena paths in steady state — O(1) query
	// bookkeeping, zero allocations per block or tuple.
	tb, err := table.Create(schema, table.WithPageSize(cfg.PageSize))
	if err != nil {
		return nil, err
	}
	defer tb.Close()
	if err := tb.BulkLoadContext(ctx, tuples); err != nil {
		return nil, err
	}
	m["count_allocs_per_op"] = allocsPerOp(100, func() {
		if _, _, err := tb.CountRangeContext(ctx, 0, domain/4, domain/2); err != nil {
			panic(err)
		}
	})

	scale := check("speedup/shards=4", m["speedup/shards=4"], ">=", shardMinSpeedup4)
	if cpus := res.Host.CPUs; cpus < shardMinCPUs {
		scale = scale.waive(fmt.Sprintf("cpus %d < %d", cpus, shardMinCPUs))
	}
	res.Gates = []Gate{
		scale,
		check("shard_pruned_pct", m["shard_pruned_pct"], ">=", m["fence_pruned_pct"]),
		check("count_allocs_per_op", m["count_allocs_per_op"], "<=", shardMaxCountAllocs),
	}
	return res, nil
}

// WriteText renders the result as an aligned report.
func (r *ShardResult) WriteText(w io.Writer) error {
	wl, m := r.Workload, r.Metrics
	fmt.Fprintf(w, "φ-range sharding: %.0f tuples, %.0f-byte pages, %.0f pool frames split across the shards, best of %.0f rounds, %d CPUs\n",
		wl["tuples"], wl["page_size"], wl["pool_frames"], wl["rounds"], r.Host.CPUs)
	fmt.Fprintf(w, "%-8s %12s %9s\n", "shards", "scan ms", "speedup")
	for _, k := range r.shardCounts {
		fmt.Fprintf(w, "%-8d %12.2f %8.2fx\n", k,
			m[fmt.Sprintf("scan_ms/shards=%d", k)], m[fmt.Sprintf("speedup/shards=%d", k)])
	}
	fmt.Fprintf(w, "pruning at %.1f%% selectivity: sharded %.1f%% of %.0f blocks vs single-table fences %.1f%%\n",
		m["selectivity_pct"], m["shard_pruned_pct"], m["shard_blocks_total"], m["fence_pruned_pct"])
	fmt.Fprintf(w, "count-range decode path: %.1f allocs/op\n", m["count_allocs_per_op"])
	writeGates(w, r.Gates)
	return nil
}
