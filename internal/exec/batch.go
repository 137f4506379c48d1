package exec

import (
	"context"
	"fmt"

	"repro/internal/blockstore"
	"repro/internal/core"
	"repro/internal/ordinal"
	"repro/internal/relation"
)

// BatchIterator is the pull form of a pass: a φ-ordered stream of
// per-block φ slabs (stride Limbs().K) over a pinned snapshot, with
// fence-level seeks. Cursors and merge joins are built on it (each join
// side pulls independently). One pooled arena backs the iterator, reset
// at every NextPhis — a returned slab is valid only until the next call.
type BatchIterator struct {
	sn       *blockstore.Snapshot
	ctx      context.Context
	s        *relation.Schema
	next     int // next block position to read
	done     bool
	released bool
	a        *core.Arena
	// Stats accumulates block accounting across NextPhis and SeekPhi.
	Stats Stats
}

// NewBatchIterator returns a batch iterator positioned before the first
// block; it owns the snapshot. The caller must Release the iterator,
// which releases the snapshot.
func NewBatchIterator(ctx context.Context, sn *blockstore.Snapshot) *BatchIterator {
	return &BatchIterator{
		sn:    sn,
		ctx:   ctx,
		s:     sn.Schema(),
		a:     core.GetArena(),
		Stats: Stats{BlocksTotal: sn.NumBlocks()},
	}
}

// Release folds the iterator's Stats into the store's exec instruments,
// returns its arena to the pool, and releases the snapshot. Idempotent.
// Slabs it returned die with it; a later NextPhis or SeekPhi fails with
// blockstore.ErrSnapshotStale (NextPhis at the end of the stream still
// reports the end), and Rewind is a no-op.
func (it *BatchIterator) Release() {
	if !it.released {
		it.released = true
		it.Stats.SlabBytes += it.a.SlabBytes()
		foldStats(it.sn, it.Stats)
		core.PutArena(it.a)
		it.a = nil
	}
	it.sn.Release()
}

// stale is the error for a read through a released iterator: its arena
// is back in the pool and may already belong to another pass.
func (it *BatchIterator) stale(op string) error {
	return fmt.Errorf("%w: BatchIterator.%s after Release", blockstore.ErrSnapshotStale, op)
}

// NextPhis returns the next block's φ slab in clustered order, or nil at
// the end. The slab is nondecreasing, aliases the iterator's arena, and
// is valid only until the next NextPhis call.
func (it *BatchIterator) NextPhis() ([]uint64, error) {
	for !it.done {
		if it.next >= it.sn.NumBlocks() {
			it.done = true
			break
		}
		if it.released {
			return nil, it.stale("NextPhis")
		}
		if it.ctx != nil {
			if err := it.ctx.Err(); err != nil {
				return nil, err
			}
		}
		if it.a.SlabBytes() > 0 {
			it.Stats.ArenaReuses++
		}
		it.a.Reset()
		phis, hit, err := it.sn.ReadPhis(it.next, it.a)
		if err != nil {
			return nil, err
		}
		it.next++
		if hit {
			it.Stats.CacheHits++
		} else {
			it.Stats.BlocksRead++
		}
		it.Stats.BatchBlocks++
		it.Stats.SlabRows += len(phis) / it.s.Limbs().K
		if len(phis) > 0 {
			return phis, nil
		}
	}
	return nil, nil
}

// Rewind repositions the iterator before the first block, so a cursor
// can seek backwards. Slabs already returned are invalid afterwards. A
// released iterator stays where it is.
func (it *BatchIterator) Rewind() {
	if !it.released {
		it.next, it.done = 0, false
	}
}

// SeekPhi advances the iterator (forward only) so the next NextPhis
// returns the first remaining block that can hold a row whose limb 0 is
// >= target: the first block whose fence Last has limb 0 >= target.
// Blocks skipped on their fence alone count as pruned. With any fence
// unknown from the current position on, SeekPhi is a no-op and the
// stream simply delivers every remaining block; a target already behind
// the iterator is likewise a no-op (slabs already returned are never
// revisited).
func (it *BatchIterator) SeekPhi(target uint64) error {
	if it.released {
		return it.stale("SeekPhi")
	}
	n := it.sn.NumBlocks()
	if it.done || it.next >= n {
		return nil
	}
	for i := it.next; i < n; i++ {
		if !it.sn.Fence(i).Known() {
			return nil
		}
	}
	lo, hi := it.next, n
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if ordinal.PhiLimb0(it.s, it.sn.Fence(mid).Last) < target {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	it.Stats.BlocksPruned += lo - it.next
	it.next = lo
	if lo == n {
		it.done = true
	}
	return nil
}
