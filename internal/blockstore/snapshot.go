// Manifest snapshots. The store's block layout — the clustered block
// list, the page-to-position map, and the per-block φ-fences — lives in an
// immutable manifest published through an atomic pointer. Mutations build
// a fresh manifest (copy-on-write over the layout metadata, not the
// blocks) and publish it in one store; readers that need a consistent
// multi-block view take a Snapshot, which pins the manifest AND defers the
// recycling of any page it references until release. The result is the
// paper's localized-access story made concurrent: a long range scan keeps
// streaming its pre-mutation view while inserts and deletes rewrite
// blocks underneath it, and neither waits for the other.
package blockstore

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/relation"
	"repro/internal/storage"
)

// Fence is a block's φ-range summary, captured at encode time: the first
// and last tuples of the block and its tuple count. Because blocks are
// clustered and non-overlapping, a fence lets a scan decide whether a
// block can intersect a predicate range without touching the pager. A
// zero Fence (nil First) means the range is unknown and the block must be
// read.
type Fence struct {
	First relation.Tuple
	Last  relation.Tuple
	Count int
}

// Known reports whether the fence carries a usable φ-range.
func (f Fence) Known() bool { return f.First != nil && f.Last != nil }

// manifest is one immutable version of the store's layout. The slices and
// map are never mutated after publication; fence tuples are shared across
// versions and must not be written through.
type manifest struct {
	blocks []storage.PageID
	pos    map[storage.PageID]int // page -> index in blocks
	fences []Fence                // parallel to blocks
}

func newManifest() *manifest {
	return &manifest{pos: make(map[storage.PageID]int)}
}

// clone copies the layout metadata so a mutation can edit it privately.
// Fence tuples are shared: they are immutable once captured.
func (m *manifest) clone() *manifest {
	c := &manifest{
		blocks: append([]storage.PageID(nil), m.blocks...),
		pos:    make(map[storage.PageID]int, len(m.pos)),
		fences: append([]Fence(nil), m.fences...),
	}
	for id, at := range m.pos {
		c.pos[id] = at
	}
	return c
}

// append adds a block at the end of the clustered order.
func (m *manifest) append(id storage.PageID, f Fence) {
	m.pos[id] = len(m.blocks)
	m.blocks = append(m.blocks, id)
	m.fences = append(m.fences, f)
}

// reindexFrom refreshes the page-to-position map from position at onward.
func (m *manifest) reindexFrom(at int) {
	for i := at; i < len(m.blocks); i++ {
		m.pos[m.blocks[i]] = i
	}
}

// fenceFor captures a block's fence from its tuple run.
func fenceFor(tuples []relation.Tuple) Fence {
	return Fence{
		First: tuples[0].Clone(),
		Last:  tuples[len(tuples)-1].Clone(),
		Count: len(tuples),
	}
}

// Snapshot is a pinned, immutable view of the store's block layout. While
// any snapshot is live, pages freed by mutations are parked instead of
// returned to the pager, so every page a snapshot references keeps its
// bytes; cached decodes of those pages likewise stay valid because ids
// are only recycled after the actual free. A snapshot is meant for one
// goroutine; Release is idempotent but not concurrency-safe.
type Snapshot struct {
	s        *Store
	m        *manifest
	released bool
}

// Snapshot pins the current manifest. The caller must Release it;
// until then, pages it references are never recycled.
func (s *Store) Snapshot() *Snapshot {
	s.snapMu.Lock()
	s.snapRefs++
	m := s.man.Load()
	s.snapMu.Unlock()
	s.met.snapshots.Inc()
	s.met.snapshotsLive.Add(1)
	return &Snapshot{s: s, m: m}
}

// Metrics returns the store's pre-resolved executor counters, or nil when
// the store was configured without observability. The streaming executor
// folds its per-pass Stats into them once per pass.
func (sn *Snapshot) Metrics() *ExecMetrics { return sn.s.met.exec }

// Release unpins the snapshot. When the last live snapshot releases, the
// pages parked by intervening mutations are invalidated from the decoded-
// block cache and returned to the pager.
func (sn *Snapshot) Release() {
	if sn.released {
		return
	}
	sn.released = true
	s := sn.s
	s.met.snapshotsLive.Add(-1)
	s.snapMu.Lock()
	s.snapRefs--
	var drain []storage.PageID
	if s.snapRefs == 0 && len(s.deferred) > 0 {
		drain = s.deferred
		s.deferred = nil
	}
	s.snapMu.Unlock()
	for _, id := range drain {
		if s.cache != nil {
			s.cache.invalidate(id)
		}
		// A failed deferred free leaks one page until the next compaction;
		// there is no caller left to hand the error to.
		s.pool.Free(id) //avqlint:ignore droppederr deferred free after the mutation already succeeded
	}
}

// NumBlocks returns the number of blocks in the snapshot's view.
func (sn *Snapshot) NumBlocks() int { return len(sn.m.blocks) }

// Block returns the page of the i-th block in clustered order.
func (sn *Snapshot) Block(i int) storage.PageID { return sn.m.blocks[i] }

// Fence returns the i-th block's φ-fence; Known() is false when the
// range was never captured (a restored layout before fences are adopted).
func (sn *Snapshot) Fence(i int) Fence { return sn.m.fences[i] }

// Pos returns the clustered position of page id in the snapshot's view.
func (sn *Snapshot) Pos(id storage.PageID) (int, bool) {
	at, ok := sn.m.pos[id]
	return at, ok
}

// Schema returns the store's schema.
func (sn *Snapshot) Schema() *relation.Schema { return sn.s.schema }

// ReadBlock decodes the i-th block, consulting the decoded-block cache;
// hit reports whether the cache served it without a page read. After
// Release it fails with ErrSnapshotStale: the pages the snapshot pinned
// may already be recycled.
func (sn *Snapshot) ReadBlock(i int) (tuples []relation.Tuple, hit bool, err error) {
	if sn.released {
		return nil, false, fmt.Errorf("%w: ReadBlock(%d)", ErrSnapshotStale, i)
	}
	return sn.s.decodeBlockCachedHitArena(sn.m.blocks[i], nil)
}

// ReadPhis decodes the i-th block straight to its φ slab (stride
// Limbs().K), carved from the caller's arena — the executor's block read.
// A cache hit copies the cached slab; a miss decodes the pinned page (see
// Store.readPhis).
func (sn *Snapshot) ReadPhis(i int, a *core.Arena) (phis []uint64, hit bool, err error) {
	if sn.released {
		return nil, false, fmt.Errorf("%w: ReadPhis(%d)", ErrSnapshotStale, i)
	}
	return sn.s.readPhis(sn.m.blocks[i], a)
}

// AdoptFences installs fences for a restored layout whose blocks were
// decoded elsewhere (table open rebuilds indexes with one scan and hands
// the fences it saw here, so restoring never decodes twice). The slice
// must carry one fence per block in clustered order.
func (s *Store) AdoptFences(fences []Fence) error {
	m := s.man.Load()
	if len(fences) != len(m.blocks) {
		return fmt.Errorf("blockstore: %d fences for %d blocks", len(fences), len(m.blocks))
	}
	for i, f := range fences {
		if !f.Known() || f.Count <= 0 {
			return fmt.Errorf("blockstore: adopted fence %d is incomplete", i)
		}
	}
	c := m.clone()
	c.fences = append(c.fences[:0], fences...)
	s.man.Store(c)
	return nil
}

// freeAll frees (or parks, while snapshots are live) the given block
// pages, returning the first error.
func (s *Store) freeAll(ids []storage.PageID) error {
	var first error
	for _, id := range ids {
		if err := s.freeBlockPage(id); err != nil && first == nil {
			first = err
		}
	}
	return first
}
