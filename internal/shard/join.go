package shard

import (
	"context"

	"repro/internal/exec"
	"repro/internal/table"
)

// MergeJoinEach streams the equi-join db ⋈_{A1=A1} other on both
// databases' clustering attribute. φ-range shards are disjoint and
// catalog-ordered, so chaining each database's per-shard slab streams
// in shard order yields one globally φ-ordered stream per side; the two
// chains merge in φ-space exactly like the single-table merge join
// (raw limb-0 key compares, fence-level seeks on the lagging side, φ⁻¹
// only for rows that join). A seek raised while one shard drains still
// prunes the next shard's prefix, so sparse keys skip whole blocks in
// every later shard. Emitted tuples are safe to retain; emit returning
// false stops the join.
func (db *DB) MergeJoinEach(ctx context.Context, other *DB, emit func(table.JoinRow) bool) (table.JoinStats, error) {
	var stats table.JoinStats
	db.queries.Inc()
	lits := db.batchIterators(ctx)
	defer releaseAll(lits)
	rits := other.batchIterators(ctx)
	defer releaseAll(rits)
	matches, err := table.JoinPhiStreams(chain(lits), chain(rits), db.schema, other.schema, emit)
	stats.Matches = matches
	for _, it := range lits {
		stats.LeftBlocks += it.Stats.BlocksRead
		stats.LeftCacheHits += it.Stats.CacheHits
		stats.BlocksPruned += it.Stats.BlocksPruned
		stats.BatchBlocks += it.Stats.BatchBlocks
		stats.SlabRows += it.Stats.SlabRows
	}
	for _, it := range rits {
		stats.RightBlocks += it.Stats.BlocksRead
		stats.RightCacheHits += it.Stats.CacheHits
		stats.BlocksPruned += it.Stats.BlocksPruned
		stats.BatchBlocks += it.Stats.BatchBlocks
		stats.SlabRows += it.Stats.SlabRows
	}
	return stats, err
}

// MergeJoin materializes MergeJoinEach's result in global φ order —
// byte-identical to the single-table merge join over the same rows.
func (db *DB) MergeJoin(ctx context.Context, other *DB) ([]table.JoinRow, table.JoinStats, error) {
	var out []table.JoinRow
	stats, err := db.MergeJoinEach(ctx, other, func(row table.JoinRow) bool {
		out = append(out, row)
		return true
	})
	if err != nil {
		return nil, stats, err
	}
	return out, stats, nil
}

// batchIterators opens one pinned batch iterator per shard, in catalog
// order.
func (db *DB) batchIterators(ctx context.Context) []*exec.BatchIterator {
	its := make([]*exec.BatchIterator, 0, len(db.shards))
	for _, sh := range db.shards {
		its = append(its, sh.BatchIterator(ctx))
	}
	return its
}

// chain concatenates per-shard iterators into one φ-ordered stream.
func chain(its []*exec.BatchIterator) exec.PhiStream {
	streams := make([]exec.PhiStream, len(its))
	for i, it := range its {
		streams[i] = it
	}
	return exec.ChainPhiStreams(streams...)
}

// releaseAll releases every iterator (folding its stats into the shard
// table's exec instruments and unpinning its snapshot).
func releaseAll(its []*exec.BatchIterator) {
	for _, it := range its {
		it.Release()
	}
}
