package table

import (
	"context"
	"sort"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/ordinal"
	"repro/internal/relation"
)

// Cursor is a pull iterator over the table in phi order, decoding one
// block at a time into a φ slab and inverting a row into a tuple only
// when Next returns it. It holds at most one block's slab, so scans of
// arbitrarily large tables run in constant memory — the property block-
// local coding (Section 3.3) exists to provide.
//
// A cursor reads a pinned snapshot of the block layout: mutating the
// table does not disturb it, and pages it references are not recycled
// until it is exhausted or Closed. Abandoning a cursor mid-iteration
// without Close keeps those pages parked.
type Cursor struct {
	t    *Table
	it   *exec.BatchIterator
	k    int
	slab []uint64
	pos  int // next row of slab
}

// NewCursorContext returns a cursor positioned before the first tuple.
// Once ctx is cancelled, the next block boundary makes Next return the
// context's error.
func (t *Table) NewCursorContext(ctx context.Context) *Cursor {
	return &Cursor{t: t, it: exec.NewBatchIterator(ctx, t.snapshot()), k: t.schema.Limbs().K}
}

// Seek positions the cursor so the following Next returns the first tuple
// >= target in phi order, binary-searching the φ-fences to skip ahead.
func (c *Cursor) Seek(target relation.Tuple) error {
	s := c.t.schema
	if err := s.ValidateTuple(target); err != nil {
		return err
	}
	want := ordinal.PhiLimbs(s, make([]uint64, c.k), target)
	c.it.Rewind()
	c.slab, c.pos = nil, 0
	if err := c.it.SeekPhi(want[0]); err != nil {
		return err
	}
	for {
		if err := c.fill(); err != nil || c.slab == nil {
			return err
		}
		rows := len(c.slab) / c.k
		if ordinal.CompareLimbs(c.slab[(rows-1)*c.k:], want) < 0 {
			c.pos = rows
			continue
		}
		lo, hi := 0, rows
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if ordinal.CompareLimbs(c.slab[mid*c.k:(mid+1)*c.k], want) < 0 {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		c.pos = lo
		return nil
	}
}

// fill pulls the next slab once the current one is exhausted; a nil slab
// means the end.
func (c *Cursor) fill() error {
	if c.slab != nil && c.pos*c.k < len(c.slab) {
		return nil
	}
	slab, err := c.it.NextPhis()
	c.slab, c.pos = slab, 0
	return err
}

// Next returns the next tuple, or ok=false at the end. The tuple is
// freshly allocated and safe to retain. Exhausting the cursor releases
// its snapshot.
func (c *Cursor) Next() (relation.Tuple, bool, error) {
	if err := c.fill(); err != nil {
		return nil, false, err
	}
	if c.slab == nil {
		c.it.Release()
		return nil, false, nil
	}
	s := c.t.schema
	tu, err := ordinal.PhiInverseLimbs(s, make(relation.Tuple, s.NumAttrs()), c.slab[c.pos*c.k:(c.pos+1)*c.k])
	if err != nil {
		return nil, false, err
	}
	c.pos++
	return tu, true, nil
}

// Close releases the cursor's snapshot early; it is idempotent and safe
// after exhaustion. The slab it held goes back to the pool with the
// iterator's arena, so a later Next or Seek fails with
// blockstore.ErrSnapshotStale (Next after exhaustion still reports the
// end).
func (c *Cursor) Close() {
	c.slab, c.pos = nil, 0
	c.it.Release()
}

// BatchIterator returns a pull iterator over the table's φ slabs: a
// φ-ordered stream of per-block slabs reading a pinned snapshot (see
// exec.BatchIterator for slab lifetime and seek semantics). The caller
// must Release it. The shard layer chains per-shard streams through it
// for cross-shard merge joins.
func (t *Table) BatchIterator(ctx context.Context) *exec.BatchIterator {
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
	return groupByRunCtx(ctx, r, t.schema, groupAttr, aggAttr)
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
	return r, err
}

// groupByRunCtx is GroupByContext on raw ordinals: both the group key and
// the aggregated value come out of the limbs holding them (one divide and
// one mod each), never full φ⁻¹. Grouping on the clustering prefix
// (groupAttr 0) exploits φ order — keys arrive as contiguous
// nondecreasing runs of limb 0, so the result list is appended directly
// with no hash map and no final sort. Other group attributes bucket into
// a map.
func groupByRunCtx(ctx context.Context, r queryRun, s *relation.Schema, groupAttr, aggAttr int) ([]GroupResult, QueryStats, error) {
	agg := core.NewDigitExtractor(s, aggAttr)
	l := s.Limbs()
	k := l.K
	if groupAttr == 0 {
		w0 := l.Weight[0]
		var out []GroupResult
		stats, err := r.runBatchCtx(ctx, func(phis []uint64) bool {
			// The slab is nondecreasing, so rows arrive in contiguous key
			// runs: one divide finds each run's key, and a limb-0 threshold
			// compare walks the run — no per-row key extraction.
			for i := 0; i < len(phis); {
				key := phis[i] / w0 // attribute 0 needs no mod: limb0/w0 < u0
				limit := (key + 1) * w0
				if len(out) == 0 || out[len(out)-1].Value != key {
					out = append(out, GroupResult{Value: key, Agg: AggregateResult{Min: ^uint64(0)}})
				}
				g := &out[len(out)-1].Agg
				for ; i < len(phis) && phis[i] < limit; i += k {
					g.add(agg.Digit(phis[i+agg.Limb]))
				}
			}
			return true
		})
		if err != nil {
			return nil, stats, err
		}
		return out, stats, nil
	}
	grp := core.NewDigitExtractor(s, groupAttr)
	groups := make(map[uint64]*AggregateResult)
	stats, err := r.runBatchCtx(ctx, func(phis []uint64) bool {
		for i := 0; i < len(phis); i += k {
			key := grp.Digit(phis[i+grp.Limb])
			g := groups[key]
			if g == nil {
				g = &AggregateResult{Min: ^uint64(0)}
				groups[key] = g
			}
			g.add(agg.Digit(phis[i+agg.Limb]))
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
