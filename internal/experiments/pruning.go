package experiments

import (
	"context"
	"encoding/json"
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

// PruningRow is one measured range query at one selectivity.
type PruningRow struct {
	Selectivity float64 `json:"selectivity"` // fraction of the A1 domain
	Lo          uint64  `json:"lo"`
	Hi          uint64  `json:"hi"`
	Matches     int     `json:"matches"`

	BlocksTotal   int     `json:"blocks_total"`
	BlocksPruned  int     `json:"blocks_pruned"`
	PrunedPercent float64 `json:"pruned_percent"`
	FullDecodes   int     `json:"full_decodes"`

	// NaiveMillis reads and decodes every block and filters — the read
	// path before the executor. ExecMillis is the executor: φ-fence
	// pruning, then φ slab decodes clipped to the range.
	NaiveMillis float64 `json:"naive_ms"`
	ExecMillis  float64 `json:"exec_ms"`

	SpeedupVsNaive float64 `json:"speedup_vs_naive"`
}

// PruningResult is the full benchmark record.
type PruningResult struct {
	Tuples   int    `json:"tuples"`
	Blocks   int    `json:"blocks"`
	PageSize int    `json:"page_size"`
	Codec    string `json:"codec"`

	Rows []PruningRow `json:"rows"`
}

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
	res := &PruningResult{
		Tuples:   len(tuples),
		Blocks:   store.NumBlocks(),
		PageSize: cfg.PageSize,
		Codec:    core.CodecAVQ.String(),
	}

	domain := schema.Domain(0).Size
	for _, sel := range []float64{0.01, 0.05, 0.10, 0.25, 0.50, 1.00} {
		width := uint64(float64(domain) * sel)
		if width == 0 {
			width = 1
		}
		lo := uint64(float64(domain) * 0.3)
		if lo+width > domain {
			lo = domain - width
		}
		hi := lo + width - 1
		row, err := runPruningQuery(ctx, store, sel, lo, hi, cfg.Reps)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// runPruningQuery times the two read paths on one range.
func runPruningQuery(ctx context.Context, store *blockstore.Store, sel float64, lo, hi uint64, reps int) (PruningRow, error) {
	row := PruningRow{Selectivity: sel, Lo: lo, Hi: hi}
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
		return row, err
	}

	var st exec.Stats
	execMs, execMatches, err := timeExec(ctx, store, plan, reps, &st)
	if err != nil {
		return row, err
	}
	if naiveMatches != execMatches {
		return row, fmt.Errorf("pruning: match counts diverge: naive %d, exec %d", naiveMatches, execMatches)
	}
	row.Matches = execMatches
	row.BlocksTotal = st.BlocksTotal
	row.BlocksPruned = st.BlocksPruned
	if st.BlocksTotal > 0 {
		row.PrunedPercent = 100 * float64(st.BlocksPruned) / float64(st.BlocksTotal)
	}
	row.FullDecodes = st.BatchBlocks
	row.NaiveMillis = naive
	row.ExecMillis = execMs
	if execMs > 0 {
		row.SpeedupVsNaive = naive / execMs
	}
	return row, nil
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
	fmt.Fprintf(w, "Phi-fence pruning: %d tuples in %d %s blocks of %d bytes, range on A1\n",
		r.Tuples, r.Blocks, r.Codec, r.PageSize)
	t := &textTable{header: []string{"sel %", "rows", "pruned", "pruned %", "decoded", "naive ms", "exec ms", "speedup"}}
	for _, row := range r.Rows {
		t.addRow(
			fmt.Sprintf("%.0f", 100*row.Selectivity),
			fmt.Sprintf("%d", row.Matches),
			fmt.Sprintf("%d/%d", row.BlocksPruned, row.BlocksTotal),
			fmt.Sprintf("%.1f", row.PrunedPercent),
			fmt.Sprintf("%d", row.FullDecodes),
			fmt.Sprintf("%.2f", row.NaiveMillis),
			fmt.Sprintf("%.2f", row.ExecMillis),
			fmt.Sprintf("%.1fx", row.SpeedupVsNaive))
	}
	if err := t.write(w); err != nil {
		return err
	}
	fmt.Fprintf(w, "\nnaive decodes every block; exec prunes on phi-fences and clips\neach decoded phi slab to the range\n")
	return nil
}

// WriteJSON emits the machine-readable benchmark record.
func (r *PruningResult) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
