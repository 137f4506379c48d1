package blockstore

import (
	"sync"

	"repro/internal/core"
	"repro/internal/storage"
)

// blockCache is an LRU cache of decoded blocks keyed by page id, held as
// the φ slabs (stride Limbs().K) the executor consumes. Repeated reads of
// the same blocks skip the difference-chain decode entirely and pay only
// a slab copy.
//
// The cache owns its entries: lookups copy the slab into the caller's
// arena, so a
// caller that scribbles on a returned slab cannot poison later reads. A
// hit therefore costs one arena carve plus a memmove — no per-row
// allocation. It has its own lock because concurrent readers (lock-free
// table queries, the parallel scan pipeline) share it while the store
// itself is only locked for mutation.
//
// Invalidation is by page id and happens whenever the store frees a block
// page (rewrite, split, remove, reset). Page ids are reused by the pagers'
// free lists, so a stale entry is never merely wasteful — it would be
// wrong; every pool.Free of a block page must be paired with an
// invalidate.
type blockCache struct {
	mu      sync.Mutex
	cap     int
	entries map[storage.PageID]*cacheEntry
	head    *cacheEntry // most recently used
	tail    *cacheEntry // least recently used

	hits          int64
	misses        int64
	invalidations int64
}

type cacheEntry struct {
	id         storage.PageID
	phis       []uint64 // the block's φ slab
	prev, next *cacheEntry
}

// newBlockCache creates a cache holding up to capacity decoded blocks.
func newBlockCache(capacity int) *blockCache {
	return &blockCache{
		cap:     capacity,
		entries: make(map[storage.PageID]*cacheEntry, capacity),
	}
}

// CacheStats is a snapshot of cache counters, for tests and benchmarks.
type CacheStats struct {
	Hits          int64
	Misses        int64
	Invalidations int64
	Entries       int
}

func (c *blockCache) stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Hits:          c.hits,
		Misses:        c.misses,
		Invalidations: c.invalidations,
		Entries:       len(c.entries),
	}
}

// unlink removes e from the LRU list. Caller holds c.mu.
func (c *blockCache) unlink(e *cacheEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

// pushFront makes e the most recently used entry. Caller holds c.mu.
func (c *blockCache) pushFront(e *cacheEntry) {
	e.prev = nil
	e.next = c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
}

// lookup returns the cached slab for id, counting the hit or miss. The
// slab is never mutated after insertion, only replaced wholesale by put,
// so callers may read it outside the lock.
func (c *blockCache) lookup(id storage.PageID) ([]uint64, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[id]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.unlink(e)
	c.pushFront(e)
	return e.phis, true
}

// getPhis copies the cached block's φ slab into the caller's arena, if
// present.
func (c *blockCache) getPhis(id storage.PageID, a *core.Arena) ([]uint64, bool) {
	phis, ok := c.lookup(id)
	if !ok {
		return nil, false
	}
	out := a.Phis(len(phis))
	copy(out, phis)
	return out, true
}

// put stores a copy of a freshly decoded block's φ slab, evicting the
// least recently used entry when full.
func (c *blockCache) put(id storage.PageID, phis []uint64) {
	phis = append([]uint64(nil), phis...)
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[id]; ok {
		e.phis = phis
		c.unlink(e)
		c.pushFront(e)
		return
	}
	if len(c.entries) >= c.cap {
		victim := c.tail
		if victim == nil {
			return // cap <= 0: cache disabled
		}
		c.unlink(victim)
		delete(c.entries, victim.id)
	}
	e := &cacheEntry{id: id, phis: phis}
	c.entries[id] = e
	c.pushFront(e)
}

// invalidate drops the entry for a page, if present.
func (c *blockCache) invalidate(id storage.PageID) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[id]; ok {
		c.unlink(e)
		delete(c.entries, id)
		c.invalidations++
	}
}

// clear empties the cache.
func (c *blockCache) clear() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries = make(map[storage.PageID]*cacheEntry, c.cap)
	c.head, c.tail = nil, nil
}
