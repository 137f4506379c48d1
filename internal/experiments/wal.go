package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/relation"
	"repro/internal/simdisk"
	"repro/internal/table"
)

// WALConfig parameterizes the group-commit experiment (A8).
type WALConfig struct {
	// Tuples is how many single-tuple inserts the workload issues;
	// default 1500.
	Tuples int
	// Writers is the number of concurrent writer goroutines sharing the
	// log; default 16.
	Writers int
	// PageSize is the block size; default 512, small enough that the
	// per-insert block re-encode is cheap next to an fsync — the regime
	// group commit exists for.
	PageSize int
	// SyncDelay is the simulated fsync latency. Real disks take 50µs
	// (NVMe) to 10ms (spinning rust) per flush; default 2ms.
	SyncDelay time.Duration
	// Seed makes the relation deterministic.
	Seed int64
}

func (c *WALConfig) fillDefaults() {
	if c.Tuples == 0 {
		c.Tuples = 1500
	}
	if c.Writers == 0 {
		c.Writers = 16
	}
	if c.PageSize == 0 {
		c.PageSize = 512
	}
	if c.SyncDelay == 0 {
		c.SyncDelay = 2 * time.Millisecond
	}
}

// WALResult compares per-write fsync against group commit on the same
// concurrent insert workload over a simulated disk with realistic fsync
// latency. Group commit elects one fsync leader per batch of concurrent
// committers, so the sync count collapses from one-per-insert to
// one-per-group; the acceptance gate requires at least MinSpeedup.
type WALResult struct {
	Tuples          int     `json:"tuples"`
	Writers         int     `json:"writers"`
	PageSize        int     `json:"page_size"`
	SyncDelayMicros int64   `json:"sync_delay_us"`
	NaiveMillis     float64 `json:"naive_ms"`
	GroupMillis     float64 `json:"group_ms"`
	NaiveFsyncs     int64   `json:"naive_fsyncs"`
	GroupFsyncs     int64   `json:"group_fsyncs"`
	GroupSizeAvg    float64 `json:"group_size_avg"`
	Speedup         float64 `json:"speedup"`
	MinSpeedup      float64 `json:"min_speedup"`
	Pass            bool    `json:"pass"`
}

// walMinSpeedup is the acceptance floor for group commit over naive
// per-write fsync.
const walMinSpeedup = 5.0

// runWALOnce drives concurrent goroutines inserting disjoint shards of
// the relation through a WAL-mode table on a simulated disk, reporting
// wall time and the disk's fsync count.
func runWALOnce(cfg WALConfig, schema *relation.Schema, shards [][]relation.Tuple, syncEveryAppend bool) (time.Duration, int64, error) {
	fs := simdisk.NewFaultFS()
	fs.SyncDelay = cfg.SyncDelay
	tb, err := table.Create(schema,
		table.WithCodec(core.CodecAVQ),
		table.WithPageSize(cfg.PageSize),
		table.WithPath("bench.avq"),
		table.WithVFS(fs),
		table.WithDurability(table.DurabilityWAL),
		table.WithWALSyncEveryAppend(syncEveryAppend),
	)
	if err != nil {
		return 0, 0, err
	}
	//avqlint:ignore ctxflow benchmark driver: the measured workload has no caller context
	ctx := context.Background()

	var wg sync.WaitGroup
	errs := make([]error, len(shards))
	start := time.Now()
	for w := range shards {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for _, tu := range shards[w] {
				if err := tb.InsertContext(ctx, tu); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return 0, 0, err
		}
	}
	if err := tb.Close(); err != nil {
		return 0, 0, err
	}
	return elapsed, fs.Syncs, nil
}

// RunWAL measures group commit against naive per-write fsync (A8). Both
// runs use the same concurrency and the same disk model; only the commit
// policy differs, so the ratio isolates the fsync batching.
func RunWAL(ctx context.Context, cfg WALConfig) (*WALResult, error) {
	cfg.fillDefaults()
	spec := gen.Fig57Spec(cfg.Tuples, true, gen.VarianceLarge, cfg.Seed)
	schema, tuples, err := spec.Build()
	if err != nil {
		return nil, err
	}
	shards := make([][]relation.Tuple, cfg.Writers)
	for i, tu := range tuples {
		shards[i%cfg.Writers] = append(shards[i%cfg.Writers], tu)
	}

	naiveTime, naiveSyncs, err := runWALOnce(cfg, schema, shards, true)
	if err != nil {
		return nil, fmt.Errorf("naive run: %w", err)
	}
	groupTime, groupSyncs, err := runWALOnce(cfg, schema, shards, false)
	if err != nil {
		return nil, fmt.Errorf("group run: %w", err)
	}

	res := &WALResult{
		Tuples:          cfg.Tuples,
		Writers:         cfg.Writers,
		PageSize:        cfg.PageSize,
		SyncDelayMicros: cfg.SyncDelay.Microseconds(),
		NaiveMillis:     float64(naiveTime.Microseconds()) / 1e3,
		GroupMillis:     float64(groupTime.Microseconds()) / 1e3,
		NaiveFsyncs:     naiveSyncs,
		GroupFsyncs:     groupSyncs,
		MinSpeedup:      walMinSpeedup,
	}
	if groupSyncs > 0 {
		res.GroupSizeAvg = float64(cfg.Tuples) / float64(groupSyncs)
	}
	if groupTime > 0 {
		res.Speedup = float64(naiveTime) / float64(groupTime)
	}
	res.Pass = res.Speedup >= walMinSpeedup
	return res, nil
}

// WriteText renders the result as an aligned report.
func (r *WALResult) WriteText(w io.Writer) error {
	fmt.Fprintf(w, "Group commit (A8): %d inserts, %d writers, %dµs fsync latency\n",
		r.Tuples, r.Writers, r.SyncDelayMicros)
	fmt.Fprintf(w, "%-26s %12s %10s\n", "commit policy", "elapsed ms", "fsyncs")
	fmt.Fprintf(w, "%-26s %12.2f %10d\n", "fsync per append (naive)", r.NaiveMillis, r.NaiveFsyncs)
	fmt.Fprintf(w, "%-26s %12.2f %10d\n", "group commit", r.GroupMillis, r.GroupFsyncs)
	fmt.Fprintf(w, "mean commit group size: %.1f appends/fsync\n", r.GroupSizeAvg)
	verdict := "PASS"
	if !r.Pass {
		verdict = "FAIL"
	}
	fmt.Fprintf(w, "gate: group commit >= %.1fx naive: %.1fx: %s\n", r.MinSpeedup, r.Speedup, verdict)
	return nil
}

// WriteJSON renders the result as indented JSON.
func (r *WALResult) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
