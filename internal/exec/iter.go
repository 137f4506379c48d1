package exec

import (
	"context"

	"repro/internal/blockstore"
	"repro/internal/relation"
)

// Iterator is a pull iterator over a snapshot in φ order, decoding one
// block at a time — constant memory regardless of table size, the
// property block-local coding (Section 3.3) exists to provide. Cursors
// and merge joins are built on it.
type Iterator struct {
	sn   *blockstore.Snapshot
	ctx  context.Context
	next int // next block position to fill from
	cur  []relation.Tuple
	pos  int
	done bool
	// released marks that Release already folded Stats into the store's
	// exec instruments.
	released bool
	// Stats accumulates block accounting across Next and Seek calls.
	Stats Stats
}

// NewIteratorContext returns an iterator positioned before the first
// tuple. The context is checked at every block boundary (each fill), so
// cancelling it makes the next Next or Seek fail before another decode.
func NewIteratorContext(ctx context.Context, sn *blockstore.Snapshot) *Iterator {
	return &Iterator{sn: sn, ctx: ctx, Stats: Stats{BlocksTotal: sn.NumBlocks()}}
}

// Release unpins the iterator's snapshot and folds its accumulated Stats
// into the store's exec instruments. It is idempotent (the fold happens
// once); the iterator must not be used afterwards.
func (it *Iterator) Release() {
	if !it.released {
		it.released = true
		foldStats(it.sn, it.Stats)
	}
	it.sn.Release()
}

// Next returns the next tuple, or ok=false at the end.
func (it *Iterator) Next() (relation.Tuple, bool, error) {
	if it.done {
		return nil, false, nil
	}
	for it.pos >= len(it.cur) {
		if it.next >= it.sn.NumBlocks() {
			it.done = true
			return nil, false, nil
		}
		if err := it.fill(it.next); err != nil {
			return nil, false, err
		}
	}
	tu := it.cur[it.pos]
	it.pos++
	return tu, true, nil
}

// fill decodes block i into the window and advances the block position.
func (it *Iterator) fill(i int) error {
	if it.ctx != nil {
		if err := it.ctx.Err(); err != nil {
			return err
		}
	}
	tuples, hit, err := it.sn.ReadBlock(i)
	if err != nil {
		return err
	}
	if hit {
		it.Stats.CacheHits++
	} else {
		it.Stats.BlocksRead++
	}
	it.Stats.FullDecodes++
	it.next = i + 1
	it.cur = tuples
	it.pos = 0
	return nil
}

// Seek positions the iterator so the following Next returns the first
// tuple >= target in φ order. The first tuple >= target lives in the
// first block whose fence Last is >= target; with every fence known that
// block is found by binary search without any page read, otherwise the
// iterator walks blocks forward.
func (it *Iterator) Seek(target relation.Tuple) error {
	it.done = false
	it.cur = nil
	it.pos = 0
	it.next = 0
	n := it.sn.NumBlocks()
	if n == 0 {
		return nil
	}
	s := it.sn.Schema()
	allKnown := true
	for i := 0; i < n; i++ {
		if !it.sn.Fence(i).Known() {
			allKnown = false
			break
		}
	}
	start := 0
	if allKnown {
		lo, hi := 0, n
		for lo < hi {
			mid := (lo + hi) / 2
			if s.Compare(it.sn.Fence(mid).Last, target) < 0 {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		if lo == n {
			// Every tuple precedes target.
			it.done = true
			return nil
		}
		start = lo
		it.Stats.BlocksPruned += start
	} else {
		for ; start < n; start++ {
			if err := it.fill(start); err != nil {
				return err
			}
			if len(it.cur) > 0 && s.Compare(it.cur[len(it.cur)-1], target) >= 0 {
				break
			}
		}
		if start == n {
			it.done = true
			return nil
		}
		it.pos = seekWithin(s, it.cur, target)
		return nil
	}
	if err := it.fill(start); err != nil {
		return err
	}
	it.pos = seekWithin(s, it.cur, target)
	return nil
}

// seekWithin binary-searches a decoded block for the first tuple >= target.
func seekWithin(s *relation.Schema, tuples []relation.Tuple, target relation.Tuple) int {
	lo, hi := 0, len(tuples)
	for lo < hi {
		mid := (lo + hi) / 2
		if s.Compare(tuples[mid], target) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
