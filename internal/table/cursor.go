package table

import (
	"context"
	"sort"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/relation"
)

// Cursor is a pull iterator over the table in phi order, decoding one
// block at a time. It materializes at most one block, so scans of
// arbitrarily large tables run in constant memory — the property block-
// local coding (Section 3.3) exists to provide.
//
// A cursor reads a pinned snapshot of the block layout: mutating the
// table does not disturb it, and pages it references are not recycled
// until it is exhausted or Closed. Abandoning a cursor mid-iteration
// without Close keeps those pages parked.
type Cursor struct {
	t  *Table
	it *exec.Iterator
}

// NewCursorContext returns a cursor positioned before the first tuple.
// Once ctx is cancelled, the next block boundary makes Next return the
// context's error.
func (t *Table) NewCursorContext(ctx context.Context) *Cursor {
	return &Cursor{t: t, it: exec.NewIteratorContext(ctx, t.snapshot())}
}

// Seek positions the cursor so the following Next returns the first tuple
// >= target in phi order, binary-searching the φ-fences to skip ahead.
func (c *Cursor) Seek(target relation.Tuple) error {
	if err := c.t.schema.ValidateTuple(target); err != nil {
		return err
	}
	return c.it.Seek(target)
}

// Next returns the next tuple, or ok=false at the end. Exhausting the
// cursor releases its snapshot.
func (c *Cursor) Next() (relation.Tuple, bool, error) {
	tu, ok, err := c.it.Next()
	if !ok && err == nil {
		c.it.Release()
	}
	return tu, ok, err
}

// Close releases the cursor's snapshot early; it is idempotent and safe
// after exhaustion.
func (c *Cursor) Close() { c.it.Release() }

// BatchIterator returns a columnar pull iterator over the table: a
// φ-ordered stream of per-block ordinal slabs reading a pinned snapshot
// (see exec.BatchIterator for slab lifetime and seek semantics). It fails
// with exec.ErrNotFlat on a non-flat schema. The caller must Release it.
// The shard layer chains per-shard streams through it for cross-shard
// merge joins.
func (t *Table) BatchIterator(ctx context.Context) (*exec.BatchIterator, error) {
	return exec.NewBatchIterator(ctx, t.snapshot())
}

// GroupResult is one group of GroupByContext: the grouping value and the
// aggregates of aggAttr within it.
type GroupResult struct {
	Value uint64
	Agg   AggregateResult
}

// GroupByContext computes per-group COUNT/SUM/MIN/MAX of aggAttr,
// grouped by the values of groupAttr, over the rows matching lo <=
// A_filterAttr <= hi. Groups are returned in ascending group-value order.
func (t *Table) GroupByContext(ctx context.Context, filterAttr int, lo, hi uint64, groupAttr, aggAttr int) ([]GroupResult, QueryStats, error) {
	t.mu.RLock()
	r, err := t.planGroupBy(filterAttr, lo, hi, groupAttr, aggAttr)
	t.mu.RUnlock()
	if err != nil {
		return nil, QueryStats{}, err
	}
	return groupByDispatchCtx(ctx, r, groupAttr, aggAttr)
}

// groupByDispatchCtx runs a planned GroupByContext on whichever path the plan
// selected.
func groupByDispatchCtx(ctx context.Context, r queryRun, groupAttr, aggAttr int) ([]GroupResult, QueryStats, error) {
	if r.batch && !r.empty {
		return groupByBatchCtx(ctx, r, r.snap.Schema(), groupAttr, aggAttr)
	}
	return groupByRunCtx(ctx, r, groupAttr, aggAttr)
}

// planGroupBy validates the grouping attributes and plans the filter pass.
func (t *Table) planGroupBy(filterAttr int, lo, hi uint64, groupAttr, aggAttr int) (queryRun, error) {
	if groupAttr < 0 || groupAttr >= t.schema.NumAttrs() {
		return queryRun{}, errInto("group attribute out of range")
	}
	if aggAttr < 0 || aggAttr >= t.schema.NumAttrs() {
		return queryRun{}, errInto("aggregate attribute out of range")
	}
	r, err := t.planRange(filterAttr, lo, hi)
	r.op = "groupby"
	// Group buckets copy the key and aggregate values out of each tuple, so
	// the executor may recycle one arena across blocks.
	r.plan.Transient = true
	return r, err
}

// groupByBatchCtx is GroupByContext on raw ordinals: both the group key and the
// aggregated value come out of each φ via the FlatWeights divisor chain
// (one divide + mod each), never full φ⁻¹. Grouping on the clustering
// prefix (groupAttr 0) exploits φ order — keys arrive as contiguous
// nondecreasing runs, so the result list is appended directly with no
// hash map and no final sort. Other group attributes bucket into a map
// exactly like the tuple path.
func groupByBatchCtx(ctx context.Context, r queryRun, s *relation.Schema, groupAttr, aggAttr int) ([]GroupResult, QueryStats, error) {
	w, _ := s.FlatWeights()
	agg := core.NewDigitExtractor(w[aggAttr], s.Domain(aggAttr).Size)
	if groupAttr == 0 {
		w0 := w[0]
		var out []GroupResult
		stats, err := r.runBatchCtx(ctx, func(phis []uint64) bool {
			// The slab is nondecreasing, so rows arrive in contiguous key
			// runs: one divide finds each run's key, and a φ-threshold
			// compare walks the run — no per-row key extraction.
			for i := 0; i < len(phis); {
				k := phis[i] / w0 // attribute 0 needs no mod: φ/w0 < u0
				limit := (k + 1) * w0
				if len(out) == 0 || out[len(out)-1].Value != k {
					out = append(out, GroupResult{Value: k, Agg: AggregateResult{Min: ^uint64(0)}})
				}
				g := &out[len(out)-1].Agg
				for ; i < len(phis) && phis[i] < limit; i++ {
					v := agg.Digit(phis[i])
					g.Count++
					g.Sum += v
					if v < g.Min {
						g.Min = v
					}
					if v > g.Max {
						g.Max = v
					}
				}
			}
			return true
		})
		if err != nil {
			return nil, stats, err
		}
		return out, stats, nil
	}
	grp := core.NewDigitExtractor(w[groupAttr], s.Domain(groupAttr).Size)
	groups := make(map[uint64]*AggregateResult)
	stats, err := r.runBatchCtx(ctx, func(phis []uint64) bool {
		for _, phi := range phis {
			k := grp.Digit(phi)
			g := groups[k]
			if g == nil {
				g = &AggregateResult{Min: ^uint64(0)}
				groups[k] = g
			}
			v := agg.Digit(phi)
			g.Count++
			g.Sum += v
			if v < g.Min {
				g.Min = v
			}
			if v > g.Max {
				g.Max = v
			}
		}
		return true
	})
	if err != nil {
		return nil, stats, err
	}
	out := make([]GroupResult, 0, len(groups))
	for v, agg := range groups {
		out = append(out, GroupResult{Value: v, Agg: *agg})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Value < out[j].Value })
	return out, stats, nil
}

// groupByRunCtx executes a planned GroupBy pass: stream, bucket, sort.
func groupByRunCtx(ctx context.Context, r queryRun, groupAttr, aggAttr int) ([]GroupResult, QueryStats, error) {
	groups := make(map[uint64]*AggregateResult)
	stats, err := r.runCtx(ctx, func(tu relation.Tuple) bool {
		g := groups[tu[groupAttr]]
		if g == nil {
			g = &AggregateResult{Min: ^uint64(0)}
			groups[tu[groupAttr]] = g
		}
		v := tu[aggAttr]
		g.Count++
		g.Sum += v
		if v < g.Min {
			g.Min = v
		}
		if v > g.Max {
			g.Max = v
		}
		return true
	})
	if err != nil {
		return nil, stats, err
	}
	out := make([]GroupResult, 0, len(groups))
	for v, agg := range groups {
		out = append(out, GroupResult{Value: v, Agg: *agg})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Value < out[j].Value })
	return out, stats, nil
}
