package experiments

import (
	"context"
	"fmt"
	"io"
	"time"

	"repro/internal/blockstore"
	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/storage"
)

// PruningConfig parameterizes the φ-fence pruning benchmark.
type PruningConfig struct {
	// Tuples is the relation size; default 100_000.
	Tuples int
	// PageSize is the block size; default 8192.
	PageSize int
	// Reps is how many times each query runs per timing; default 5.
	Reps int
	// Seed makes the relation deterministic.
	Seed int64
}

func (c *PruningConfig) fillDefaults() {
	if c.Tuples == 0 {
		c.Tuples = 100_000
	}
	if c.PageSize == 0 {
		c.PageSize = storage.DefaultPageSize
	}
	if c.Reps == 0 {
		c.Reps = 5
	}
}

// PruningResult is the full benchmark record: for each range query, at
// selectivity N% of the A1 domain, its matches, blocks pruned and read,
// and the naive and executor times (naive_ms/sel=N%, exec_ms/sel=N%).
// Naive reads and decodes every block and filters — the read path before
// the executor; exec is the executor: φ-fence pruning, then φ slab
// decodes clipped to the range.
type PruningResult struct{ Envelope }

// pruningSelectivities are the measured range widths, as fractions of
// the A1 domain.
var pruningSelectivities = []float64{0.01, 0.05, 0.10, 0.25, 0.50, 1.00}

// RunPruning measures what the snapshot executor's φ-fence pruning buys
// on clustered range queries of varying selectivity,
// against the old read path (decode every block, filter). Every variant is
// checked to return the same number of matches.
func RunPruning(ctx context.Context, cfg PruningConfig) (*PruningResult, error) {
	cfg.fillDefaults()
	schema, tuples, err := pipelineRelation(PipelineConfig{Tuples: cfg.Tuples, Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}
	pager, err := storage.NewMemPager(cfg.PageSize)
	if err != nil {
		return nil, err
	}
	pool, err := buffer.New(pager, nil, 256)
	if err != nil {
		return nil, err
	}
	store, err := blockstore.New(schema, core.CodecAVQ, pool)
	if err != nil {
		return nil, err
	}
	if _, err := store.BulkLoadContext(ctx, tuples); err != nil {
		return nil, err
	}
	res := &PruningResult{newEnvelope("pruning", map[string]float64{
		"tuples":    float64(len(tuples)),
		"page_size": float64(cfg.PageSize),
		"reps":      float64(cfg.Reps),
	})}
	res.Metrics["blocks"] = float64(store.NumBlocks())

	domain := schema.Domain(0).Size
	for _, sel := range pruningSelectivities {
		width := uint64(float64(domain) * sel)
		if width == 0 {
			width = 1
		}
		lo := uint64(float64(domain) * 0.3)
		if lo+width > domain {
			lo = domain - width
		}
		key := fmt.Sprintf("/sel=%.0f%%", 100*sel)
		if err := runPruningQuery(ctx, store, lo, lo+width-1, cfg.Reps, key, res.Metrics); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// runPruningQuery times the two read paths on one range and records the
// results in m under key.
func runPruningQuery(ctx context.Context, store *blockstore.Store, lo, hi uint64, reps int, key string, m map[string]float64) error {
	plan := exec.Plan{Preds: []exec.Pred{{Attr: 0, Lo: lo, Hi: hi}}}

	// Naive: decode every block, filter. This is the pre-executor path.
	naive, naiveMatches, err := timePasses(reps, func() (int, error) {
		sn := store.Snapshot()
		defer sn.Release()
		matches := 0
		for i := 0; i < sn.NumBlocks(); i++ {
			if err := ctx.Err(); err != nil {
				return 0, err
			}
			ts, _, err := sn.ReadBlock(i)
			if err != nil {
				return 0, err
			}
			for _, tu := range ts {
				if tu[0] >= lo && tu[0] <= hi {
					matches++
				}
			}
		}
		return matches, nil
	})
	if err != nil {
		return err
	}

	var st exec.Stats
	execMs, execMatches, err := timeExec(ctx, store, plan, reps, &st)
	if err != nil {
		return err
	}
	if naiveMatches != execMatches {
		return fmt.Errorf("pruning: match counts diverge: naive %d, exec %d", naiveMatches, execMatches)
	}
	m["matches"+key] = float64(execMatches)
	m["blocks_pruned"+key] = float64(st.BlocksPruned)
	m["blocks_read"+key] = float64(st.BatchBlocks)
	m["pruned_pct"+key] = 100 * ratio(float64(st.BlocksPruned), float64(st.BlocksTotal))
	m["naive_ms"+key], m["exec_ms"+key] = naive, execMs
	m["speedup_vs_naive"+key] = ratio(naive, execMs)
	return nil
}

// timeExec times reps executor passes of one plan, returning the mean
// per-pass milliseconds and the match count; the last pass's stats land in
// out when non-nil.
func timeExec(ctx context.Context, store *blockstore.Store, plan exec.Plan, reps int, out *exec.Stats) (float64, int, error) {
	return timePasses(reps, func() (int, error) {
		sn := store.Snapshot()
		defer sn.Release()
		st, err := exec.RunBatch(ctx, sn, plan, func([]uint64) bool { return true })
		if err != nil {
			return 0, err
		}
		if out != nil {
			*out = st
		}
		return st.Matches, nil
	})
}

// timePasses runs fn reps times and returns mean milliseconds per pass and
// the (stable) result of the last pass.
func timePasses(reps int, fn func() (int, error)) (float64, int, error) {
	matches := 0
	start := time.Now()
	for i := 0; i < reps; i++ {
		var err error
		if matches, err = fn(); err != nil {
			return 0, 0, err
		}
	}
	return float64(time.Since(start).Microseconds()) / 1e3 / float64(reps), matches, nil
}

// WriteText renders the benchmark like the report tables.
func (r *PruningResult) WriteText(w io.Writer) error {
	wl, m := r.Workload, r.Metrics
	fmt.Fprintf(w, "Phi-fence pruning: %.0f tuples in %.0f %s blocks of %.0f bytes, range on A1\n",
		wl["tuples"], m["blocks"], core.CodecAVQ, wl["page_size"])
	t := &textTable{header: []string{"sel %", "rows", "pruned", "pruned %", "read", "naive ms", "exec ms", "speedup"}}
	for _, sel := range pruningSelectivities {
		key := fmt.Sprintf("/sel=%.0f%%", 100*sel)
		t.addRow(
			fmt.Sprintf("%.0f", 100*sel),
			fmt.Sprintf("%.0f", m["matches"+key]),
			fmt.Sprintf("%.0f/%.0f", m["blocks_pruned"+key], m["blocks"]),
			fmt.Sprintf("%.1f", m["pruned_pct"+key]),
			fmt.Sprintf("%.0f", m["blocks_read"+key]),
			fmt.Sprintf("%.2f", m["naive_ms"+key]),
			fmt.Sprintf("%.2f", m["exec_ms"+key]),
			fmt.Sprintf("%.1fx", m["speedup_vs_naive"+key]))
	}
	if err := t.write(w); err != nil {
		return err
	}
	fmt.Fprintf(w, "\nnaive decodes every block; exec prunes on phi-fences and clips\neach decoded phi slab to the range\n")
	return nil
}
