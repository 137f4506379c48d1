package table

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/ordinal"
	"repro/internal/relation"
)

// JoinRow is one result of an equi-join: the matching tuple from each side.
type JoinRow struct {
	Left  relation.Tuple
	Right relation.Tuple
}

// JoinStats reports the cost of a join: blocks read on each side, with
// decoded-block cache hits split out the same way QueryStats splits them.
type JoinStats struct {
	LeftBlocks     int
	RightBlocks    int
	LeftCacheHits  int
	RightCacheHits int
	Matches        int
	// BlocksPruned counts blocks skipped unread on both sides by
	// fence-level seeks (the merge join's sparse-key skipping).
	BlocksPruned int
	// BatchBlocks and SlabRows account blocks decoded as φ slabs and the
	// rows they carried, summed over both sides.
	BatchBlocks int
	SlabRows    int
}

// HashJoinContext computes the equi-join left ⋈_{A_lattr = A_rattr} right
// with a classic in-memory hash join: the smaller relation is built into a
// hash table on its join attribute, the larger is streamed block by block
// through the executor. Because AVQ blocks decode independently, the
// probe side never needs more than one decoded block in memory — the
// locality property Section 3.3 is designed for. Both the build and probe
// passes observe cancellation at block boundaries. It materializes the
// whole result; large joins should stream through HashJoinEachContext.
func HashJoinContext(ctx context.Context, left, right *Table, lattr, rattr int) ([]JoinRow, JoinStats, error) {
	var out []JoinRow
	stats, err := HashJoinEachContext(ctx, left, right, lattr, rattr, func(row JoinRow) bool {
		out = append(out, row)
		return true
	})
	if err != nil {
		return nil, stats, err
	}
	return out, stats, nil
}

// HashJoinEachContext is the streaming form of HashJoinContext: join rows
// reach emit one at a time (in probe-side φ order) and nothing but the
// build side's hash table is held in memory, so the join runs in
// O(smaller side) space regardless of result size. Emitted tuples are
// safe to retain. emit returning false stops the join early; Matches
// counts the rows emitted up to the stop.
func HashJoinEachContext(ctx context.Context, left, right *Table, lattr, rattr int, emit func(JoinRow) bool) (JoinStats, error) {
	if lattr < 0 || lattr >= left.schema.NumAttrs() {
		return JoinStats{}, fmt.Errorf("table: join attribute %d out of range for left", lattr)
	}
	if rattr < 0 || rattr >= right.schema.NumAttrs() {
		return JoinStats{}, fmt.Errorf("table: join attribute %d out of range for right", rattr)
	}
	sp := left.opts.Obs.StartOp("hash_join")
	defer sp.End()
	var stats JoinStats
	// Build on the smaller side.
	buildLeft := left.Len() <= right.Len()
	build, probe := left, right
	battr, pattr := lattr, rattr
	if !buildLeft {
		build, probe = right, left
		battr, pattr = rattr, lattr
	}
	ht := make(map[uint64][]relation.Tuple)
	buildSnap := build.snapshot()
	buildStats, err := exec.RunContext(ctx, buildSnap, exec.Plan{}, func(tu relation.Tuple) bool {
		ht[tu[battr]] = append(ht[tu[battr]], tu)
		return true
	})
	buildSnap.Release()
	if err != nil {
		return stats, err
	}
	// The probe side stays in φ slabs: the join digit comes straight off
	// its limb, and a row is inverted into a tuple only when it matches.
	ps := probe.schema
	dig := core.NewDigitExtractor(ps, pattr)
	k := ps.Limbs().K
	var invErr error
	probeSnap := probe.snapshot()
	probeStats, err := exec.RunBatch(ctx, probeSnap, exec.Plan{}, func(phis []uint64) bool {
		for i := 0; i < len(phis); i += k {
			matches := ht[dig.Digit(phis[i+dig.Limb])]
			if len(matches) == 0 {
				continue
			}
			var tu relation.Tuple
			if tu, invErr = ordinal.PhiInverseLimbs(ps, make(relation.Tuple, ps.NumAttrs()), phis[i:i+k]); invErr != nil {
				return false
			}
			for _, match := range matches {
				var row JoinRow
				if buildLeft {
					row = JoinRow{Left: match, Right: tu}
				} else {
					row = JoinRow{Left: tu, Right: match}
				}
				stats.Matches++
				if !emit(row) {
					return false
				}
			}
		}
		return true
	})
	probeSnap.Release()
	if err == nil {
		err = invErr
	}
	if err != nil {
		return stats, err
	}
	if buildLeft {
		stats.LeftBlocks, stats.RightBlocks = buildStats.BlocksRead, probeStats.BlocksRead
		stats.LeftCacheHits, stats.RightCacheHits = buildStats.CacheHits, probeStats.CacheHits
	} else {
		stats.LeftBlocks, stats.RightBlocks = probeStats.BlocksRead, buildStats.BlocksRead
		stats.LeftCacheHits, stats.RightCacheHits = probeStats.CacheHits, buildStats.CacheHits
	}
	return stats, nil
}

// MergeJoinContext computes the equi-join on both relations' clustering
// attribute (attribute 0). Because both relations are phi-ordered and phi
// order is lexicographic, each side streams its blocks exactly once in
// join-key order: the join costs one pass over each compressed relation
// with no build table. Both streams observe cancellation at block
// boundaries. It materializes the whole result; large joins should stream
// through MergeJoinEachContext.
func MergeJoinContext(ctx context.Context, left, right *Table) ([]JoinRow, JoinStats, error) {
	var out []JoinRow
	stats, err := MergeJoinEachContext(ctx, left, right, func(row JoinRow) bool {
		out = append(out, row)
		return true
	})
	if err != nil {
		return nil, stats, err
	}
	return out, stats, nil
}

// MergeJoinEachContext is the streaming form of MergeJoinContext: join
// rows reach emit one key group at a time and only the current groups are
// held in memory. The join runs in φ-space: each side streams per-block
// φ slabs, keys are compared as raw limb-0 digits, the lagging side skips
// ahead over fence-pruned blocks, and tuples are materialized (φ⁻¹) only
// for rows that actually join. Emitted tuples are safe to retain. emit
// returning false stops the join early.
func MergeJoinEachContext(ctx context.Context, left, right *Table, emit func(JoinRow) bool) (JoinStats, error) {
	sp := left.opts.Obs.StartOp("merge_join")
	defer sp.End()
	var stats JoinStats
	li := left.BatchIterator(ctx)
	defer li.Release()
	ri := right.BatchIterator(ctx)
	defer ri.Release()
	matches, err := JoinPhiStreams(li, ri, left.schema, right.schema, emit)
	stats.Matches = matches
	stats.LeftBlocks, stats.LeftCacheHits = li.Stats.BlocksRead, li.Stats.CacheHits
	stats.RightBlocks, stats.RightCacheHits = ri.Stats.BlocksRead, ri.Stats.CacheHits
	stats.BlocksPruned = li.Stats.BlocksPruned + ri.Stats.BlocksPruned
	stats.BatchBlocks = li.Stats.BatchBlocks + ri.Stats.BatchBlocks
	stats.SlabRows = li.Stats.SlabRows + ri.Stats.SlabRows
	return stats, err
}

// JoinPhiStreams merges two φ-ordered slab streams on their clustering
// attribute and materializes join rows only for matching groups: one
// fresh tuple per distinct group row via φ⁻¹ (shared across its cross-
// product pairs, so emitted rows are safe to retain), never one per pair.
// It returns the number of rows emitted. The shard layer joins chained
// per-shard streams through it.
func JoinPhiStreams(ls, rs exec.PhiStream, lsch, rsch *relation.Schema, emit func(JoinRow) bool) (int, error) {
	matches := 0
	var matErr error
	var ltup, rtup []relation.Tuple
	err := exec.MergeJoinPhis(ls, rs, lsch, rsch, func(_ uint64, lg, rg []uint64) bool {
		if ltup, matErr = materializeGroup(lsch, lg, ltup[:0]); matErr != nil {
			return false
		}
		if rtup, matErr = materializeGroup(rsch, rg, rtup[:0]); matErr != nil {
			return false
		}
		for _, l := range ltup {
			for _, r := range rtup {
				matches++
				if !emit(JoinRow{Left: l, Right: r}) {
					return false
				}
			}
		}
		return true
	})
	if err == nil {
		err = matErr
	}
	return matches, err
}

// materializeGroup inverts a group's stride-K φ rows into fresh tuples,
// appending to dst (whose header is reused across groups; the tuples are
// not).
func materializeGroup(s *relation.Schema, phis []uint64, dst []relation.Tuple) ([]relation.Tuple, error) {
	k := s.Limbs().K
	for i := 0; i < len(phis); i += k {
		tu, err := ordinal.PhiInverseLimbs(s, make(relation.Tuple, s.NumAttrs()), phis[i:i+k])
		if err != nil {
			return dst, err
		}
		dst = append(dst, tu)
	}
	return dst, nil
}
