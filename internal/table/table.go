// Package table ties the substrates into a relational table with the
// paper's access structure (Section 4): a phi-clustered, block-coded store;
// a primary B+ tree whose search key is an entire tuple (Figure 4.4); and
// non-clustering secondary B+ trees per attribute whose leaves hold buckets
// of data blocks (Figure 4.5).
//
// The same Table runs over any core.Codec, so the paper's compressed and
// uncompressed relations execute the identical query path; only the number
// of data blocks and the per-block decode cost differ — exactly the terms
// of the cost model in Section 5.3.
package table

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/blockstore"
	"repro/internal/btree"
	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/hashidx"
	"repro/internal/obs"
	"repro/internal/relation"
	"repro/internal/simdisk"
	"repro/internal/storage"
	"repro/internal/wal"
)

// IndexKind selects the secondary-index access method. The paper's figures
// use B+ trees (Figure 4.5) but Section 4 explicitly allows hashing; both
// are implemented.
type IndexKind uint8

const (
	// IndexBTree backs secondary indexes with B+ trees: point and range
	// predicates both use the index.
	IndexBTree IndexKind = iota
	// IndexHash backs secondary indexes with extendible hash tables:
	// point predicates are O(1), but range predicates fall back to value
	// enumeration (for narrow ranges) or a table scan.
	IndexHash
)

// String returns the kind's name.
func (k IndexKind) String() string {
	switch k {
	case IndexBTree:
		return "btree"
	case IndexHash:
		return "hash"
	default:
		return fmt.Sprintf("IndexKind(%d)", uint8(k))
	}
}

// Options is a table's resolved configuration: what Resolve returns
// after applying the With* options over the defaults each field names.
type Options struct {
	// Codec selects the block representation. Default CodecAVQ.
	Codec core.Codec
	// PageSize is the disk block size. Default storage.DefaultPageSize.
	PageSize int
	// PoolFrames is the buffer pool capacity in frames. Default 128.
	PoolFrames int
	// DiskParams is the simulated disk cost model. Default PaperParams.
	DiskParams simdisk.Params
	// IndexOrder is the B+ tree node width. Default btree.DefaultOrder.
	IndexOrder int
	// SecondaryAttrs lists attribute positions to maintain secondary
	// indexes on. Nil means none; use AllAttrs for every attribute.
	SecondaryAttrs []int
	// SecondaryKind selects the secondary-index backend. Default IndexBTree.
	SecondaryKind IndexKind
	// Path, when non-empty, backs the table with a page file at that
	// location instead of memory. Create requires the file to be new or
	// empty; use Open for an existing table. Persistent tables must be
	// Closed (or Checkpointed) to make mutations durable.
	Path string
	// Pager, when non-nil, injects the page store directly instead of
	// deriving one from Path: the shard layer hands in a backend.Pager so
	// a table's pages live in a keyed object store. The table owns the
	// pager and closes it. With a Pager set, Path no longer names a page
	// file — it only anchors the WAL directory (Path + ".wal") and the
	// persistence contract: a non-empty Path makes the table run the
	// catalog checkpoint protocol against the injected pager, which must
	// then implement storage.DurablePager.
	Pager storage.Pager
	// Concurrency is the block-codec worker count for bulk loads, scans,
	// and stats (see blockstore.Config). Values <= 1 keep the serial
	// reference path; runtime.NumCPU() is a good parallel setting.
	Concurrency int
	// CacheBlocks enables the decoded-block LRU cache with the given
	// capacity in blocks; 0 disables it. Repeated range selections over
	// cached blocks skip the difference decode entirely.
	CacheBlocks int
	// Obs attaches an observability registry (see internal/obs); nil keeps
	// every hot path un-instrumented. The pool, store, executor, and
	// indexes resolve their instruments from it once at construction.
	Obs *obs.Registry
	// SlowOpThreshold, when positive, overrides the registry's slow-op
	// admission threshold. Only meaningful together with Obs.
	SlowOpThreshold time.Duration
	// Durability selects the crash-durability contract for persistent
	// tables: DurabilityCheckpoint (default, durable at Checkpoint/Close)
	// or DurabilityWAL (write-ahead logged, durable per mutation). Open
	// auto-detects an existing log directory regardless of this setting,
	// so a WAL table reopened without it still replays.
	Durability Durability
	// FS overrides the filesystem backing persistent tables and their
	// WAL; nil means the real filesystem. Crash tests inject
	// simdisk.NewFaultFS() to kill the I/O model at every syscall.
	FS storage.FS
	// WALSegmentSize overrides the log's segment rotation threshold in
	// bytes (wal.DefaultSegmentSize when zero).
	WALSegmentSize int64
	// WALSyncEveryAppend forces one fsync per logged record instead of
	// group commit — the naive baseline the wal benchmark measures
	// against. Leave false outside benchmarks.
	WALSyncEveryAppend bool
}

// AllAttrs returns 0..n-1, for indexing every attribute of a schema.
func AllAttrs(s *relation.Schema) []int {
	out := make([]int, s.NumAttrs())
	for i := range out {
		out[i] = i
	}
	return out
}

// bucket is a secondary-index posting: the data blocks holding tuples with
// the key's attribute value, with a per-block occurrence count so deletes
// know when a block leaves the bucket.
type bucket struct {
	pages map[storage.PageID]int
}

// secIndex abstracts the secondary-index backend (B+ tree or extendible
// hash) so the table maintains and queries either uniformly.
type secIndex interface {
	get(key []byte) (*bucket, bool)
	put(key []byte, b *bucket)
	del(key []byte)
	// scanRange visits buckets for keys in [from, to); it returns false
	// when the backend cannot enumerate key ranges (hash indexes).
	scanRange(from, to []byte, fn func(*bucket) bool) bool
	// all visits every (key, bucket) pair in unspecified order.
	all(fn func(key []byte, b *bucket) bool)
	nodeCount() int
	check() error
}

// btreeSec backs a secondary index with a B+ tree.
type btreeSec struct{ tr *btree.Tree[*bucket] }

func (x btreeSec) get(key []byte) (*bucket, bool) { return x.tr.Get(key) }
func (x btreeSec) put(key []byte, b *bucket)      { x.tr.Insert(key, b) }
func (x btreeSec) del(key []byte)                 { x.tr.Delete(key) }
func (x btreeSec) scanRange(from, to []byte, fn func(*bucket) bool) bool {
	x.tr.Scan(from, to, func(_ []byte, b *bucket) bool { return fn(b) })
	return true
}
func (x btreeSec) all(fn func(key []byte, b *bucket) bool) {
	x.tr.Scan(nil, nil, fn)
}
func (x btreeSec) nodeCount() int { return x.tr.NodeCount() }
func (x btreeSec) check() error   { return x.tr.CheckInvariants() }

// hashSec backs a secondary index with an extendible hash table.
type hashSec struct{ h *hashidx.Table[*bucket] }

func (x hashSec) get(key []byte) (*bucket, bool) { return x.h.Get(key) }
func (x hashSec) put(key []byte, b *bucket)      { x.h.Insert(key, b) }
func (x hashSec) del(key []byte)                 { x.h.Delete(key) }
func (x hashSec) scanRange(from, to []byte, fn func(*bucket) bool) bool {
	return false // hashing cannot enumerate ordered key ranges
}
func (x hashSec) all(fn func(key []byte, b *bucket) bool) {
	x.h.Range(fn)
}
func (x hashSec) nodeCount() int { return x.h.NumBuckets() }
func (x hashSec) check() error   { return x.h.CheckInvariants() }

// Table is a relational table over a coded block store, safe for
// concurrent use by any number of readers and writers.
//
// Exported methods take the table's read/write lock (only the immutable
// Schema, Codec and Disk, and the store-level StoreStats and
// BlockCacheStats, need none). The unexported bodies they call never
// lock, so no method re-enters the non-reentrant mutex. Mutations hold
// the exclusive lock while they log and apply, and release it before the
// WAL group commit, so concurrent writers share one fsync. Reads hold the
// shared lock only while they validate, plan (histograms, secondary
// indexes) and pin a blockstore snapshot; they then execute lock-free
// against the snapshot. A long scan therefore streams its pre-mutation
// view while inserts and deletes rewrite blocks underneath it — the
// paper's localized-access property made concurrent.
type Table struct {
	// mu guards every field below that a mutation changes: size, the
	// indexes and histograms, the catalog state and the closed flag.
	mu sync.RWMutex

	schema    *relation.Schema
	opts      Options
	disk      *simdisk.Disk
	pager     storage.Pager
	pool      *buffer.Pool
	store     *blockstore.Store
	primary   *btree.Tree[storage.PageID]
	secondary map[int]secIndex
	hist      []*histogram
	size      int

	// Persistence state (zero for in-memory tables).
	catalogChains [2][]storage.PageID
	generation    uint64
	closed        bool

	// wal is the write-ahead log (nil for checkpoint-durability tables).
	wal *wal.Log
}

// Create builds an empty table for the schema, configured by functional
// options. With a path set, the table is file-backed and the page file
// must be new or empty.
func Create(schema *relation.Schema, opts ...Option) (*Table, error) {
	t, err := newTableShell(schema, Resolve(opts))
	if err != nil {
		return nil, err
	}
	if t.persistent() {
		if t.pager.NumPages() != 0 {
			t.pool.Close()  //avqlint:ignore droppederr best-effort cleanup on a path already returning the primary error
			t.pager.Close() //avqlint:ignore droppederr best-effort cleanup on a path already returning the primary error
			return nil, fmt.Errorf("table: %s already holds pages; use Open", t.opts.Path)
		}
		if err := t.initCatalogHeads(); err != nil {
			return nil, err
		}
		if err := t.checkpoint(); err != nil {
			return nil, err
		}
	}
	if t.opts.Durability == DurabilityWAL {
		if err := t.attachWAL(); err != nil {
			t.close() //avqlint:ignore droppederr best-effort cleanup on a path already returning the primary error
			return nil, err
		}
	}
	return t, nil
}

// newTableShell constructs the table with an empty store and indexes.
func newTableShell(schema *relation.Schema, opts Options) (*Table, error) {
	for _, a := range opts.SecondaryAttrs {
		if a < 0 || a >= schema.NumAttrs() {
			return nil, fmt.Errorf("table: secondary attribute %d out of range", a)
		}
	}
	if opts.FS == nil {
		opts.FS = storage.OSFS{}
	}
	var pager storage.Pager
	if opts.Pager != nil {
		pager = opts.Pager
		if opts.Path != "" {
			dp, ok := pager.(storage.DurablePager)
			if !ok {
				return nil, fmt.Errorf("table: injected pager for persistent table %s must implement storage.DurablePager", opts.Path)
			}
			// Crash consistency: pages freed between checkpoints must not
			// be reused until the next catalog commit.
			dp.SetDeferredFree(true)
		}
	} else if opts.Path != "" {
		fp, err := storage.OpenFilePagerFS(opts.FS, opts.Path, opts.PageSize)
		if err != nil {
			return nil, err
		}
		// Crash consistency: pages freed between checkpoints must not be
		// reused until the next catalog commit.
		fp.SetDeferredFree(true)
		pager = fp
	} else {
		mp, err := storage.NewMemPager(opts.PageSize)
		if err != nil {
			return nil, err
		}
		pager = mp
	}
	disk, err := simdisk.New(opts.DiskParams)
	if err != nil {
		return nil, err
	}
	pool, err := buffer.New(pager, disk, opts.PoolFrames)
	if err != nil {
		return nil, err
	}
	store, err := blockstore.New(schema, opts.Codec, pool)
	if err != nil {
		return nil, err
	}
	store.Configure(blockstore.Config{
		Concurrency: opts.Concurrency,
		CacheBlocks: opts.CacheBlocks,
		Obs:         opts.Obs,
	})
	pool.SetObs(opts.Obs)
	if opts.Obs != nil && opts.SlowOpThreshold > 0 {
		opts.Obs.SetSlowOpThreshold(opts.SlowOpThreshold)
	}
	primary, err := btree.New[storage.PageID](opts.IndexOrder)
	if err != nil {
		return nil, err
	}
	primary.SetProbeCounter(opts.Obs.Counter("index.btree_probes"))
	t := &Table{
		schema:    schema,
		opts:      opts,
		disk:      disk,
		pager:     pager,
		pool:      pool,
		store:     store,
		primary:   primary,
		secondary: make(map[int]secIndex, len(opts.SecondaryAttrs)),
		hist:      make([]*histogram, schema.NumAttrs()),
	}
	for i := range t.hist {
		t.hist[i] = newHistogram(schema.Domain(i).Size)
	}
	for _, a := range opts.SecondaryAttrs {
		idx, err := newSecIndex(opts)
		if err != nil {
			return nil, err
		}
		t.secondary[a] = idx
	}
	return t, nil
}

// persistent reports whether the table is file-backed.
func (t *Table) persistent() bool { return t.opts.Path != "" }

// newSecIndex builds one secondary index of the configured kind.
func newSecIndex(opts Options) (secIndex, error) {
	switch opts.SecondaryKind {
	case IndexBTree:
		tr, err := btree.New[*bucket](opts.IndexOrder)
		if err != nil {
			return nil, err
		}
		tr.SetProbeCounter(opts.Obs.Counter("index.btree_probes"))
		return btreeSec{tr}, nil
	case IndexHash:
		h, err := hashidx.New[*bucket](hashidx.DefaultBucketCap)
		if err != nil {
			return nil, err
		}
		h.SetProbeCounter(opts.Obs.Counter("index.hash_probes"))
		return hashSec{h}, nil
	default:
		return nil, fmt.Errorf("table: unknown secondary index kind %d", opts.SecondaryKind)
	}
}

// Schema returns the table's schema.
func (t *Table) Schema() *relation.Schema { return t.schema }

// Codec returns the block codec in use.
func (t *Table) Codec() core.Codec { return t.opts.Codec }

// Len returns the number of tuples.
func (t *Table) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.size
}

// NumBlocks returns the number of data blocks.
func (t *Table) NumBlocks() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.store.NumBlocks()
}

// PhiBounds reports the attribute-0 span actually occupied by the
// table's blocks (from the block fences). ok is false when the table is
// empty or a fence is unknown. The shard checker uses this to prove every
// shard's data sits inside its catalog φ-range.
func (t *Table) PhiBounds() (lo, hi uint64, ok bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.store.FenceBounds()
}

// Disk returns the simulated disk, for experiment accounting.
func (t *Table) Disk() *simdisk.Disk { return t.disk }

// DropCache empties the buffer pool so the next query runs cold, as the
// paper's I/O model assumes.
func (t *Table) DropCache() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.pool.DropAll()
}

// PinnedFrames returns the buffer pool's currently pinned frame count:
// zero when no operation is mid-flight, which crash and leak tests and
// the server's graceful drain assert.
func (t *Table) PinnedFrames() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.pool.PinnedFrames()
}

// LiveSnapshots returns the number of unreleased store snapshots.
func (t *Table) LiveSnapshots() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.store.LiveSnapshots()
}

// Generation returns the durable catalog generation (zero for in-memory
// tables before the first checkpoint).
func (t *Table) Generation() uint64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.generation
}

// IndexNodeCount returns the total node count across the primary and all
// secondary indexes; experiments convert it to index blocks.
func (t *Table) IndexNodeCount() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	n := t.primary.NodeCount()
	for _, idx := range t.secondary {
		n += idx.nodeCount()
	}
	return n
}

// PrimaryHeight returns the primary index height.
func (t *Table) PrimaryHeight() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.primary.Height()
}

// StoreStats returns the block store's physical layout statistics. The
// store computes them from a snapshot it pins itself, so no table lock is
// held while every block is inspected.
func (t *Table) StoreStats() (blockstore.Stats, error) { return t.store.ComputeStats() }

// BlockCacheStats returns the decoded-block cache counters (zero when the
// cache is disabled).
func (t *Table) BlockCacheStats() blockstore.CacheStats { return t.store.CacheStats() }

// BulkLoadContext replaces the table's contents with tuples (any order;
// the table re-orders them per Section 3.2). The input slice is not
// retained. Cancellation is observed at block boundaries during encoding
// and indexing, leaving the table partially loaded (discard it on error,
// as with any failed bulk load).
func (t *Table) BulkLoadContext(ctx context.Context, tuples []relation.Tuple) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.size != 0 || t.store.NumBlocks() != 0 {
		return errors.New("table: bulk load into non-empty table")
	}
	sp := t.opts.Obs.StartOp("bulkload")
	defer sp.End()
	sp.Detailf("%d tuples", len(tuples))
	endStage := sp.Stage("sort")
	sorted := make([]relation.Tuple, len(tuples))
	for i, tu := range tuples {
		if err := t.schema.ValidateTuple(tu); err != nil {
			return err
		}
		sorted[i] = tu.Clone()
	}
	t.schema.SortTuples(sorted)
	endStage()
	endStage = sp.Stage("load")
	refs, err := t.store.BulkLoadContext(ctx, sorted)
	if err != nil {
		return err
	}
	endStage()
	endStage = sp.Stage("index")
	for _, ref := range refs {
		t.primary.Insert(t.schema.EncodeTuple(nil, ref.First), ref.Page)
	}
	if len(t.secondary) > 0 {
		if err := t.store.ScanBlocksContext(ctx, func(id storage.PageID, ts []relation.Tuple) bool {
			t.registerTuples(id, ts)
			return true
		}); err != nil {
			return err
		}
	}
	for _, tu := range sorted {
		t.histAdd(tu)
	}
	endStage()
	t.size = len(sorted)
	return t.walCheckpoint()
}

// registerTuples adds the block's tuples to every secondary index.
func (t *Table) registerTuples(id storage.PageID, tuples []relation.Tuple) {
	for attr, idx := range t.secondary {
		for _, tu := range tuples {
			key := t.schema.EncodeAttr(nil, attr, tu[attr])
			b, ok := idx.get(key)
			if !ok {
				b = &bucket{pages: make(map[storage.PageID]int, 1)}
				idx.put(key, b)
			}
			b.pages[id]++
		}
	}
}

// unregisterTuples removes the block's tuples from every secondary index.
func (t *Table) unregisterTuples(id storage.PageID, tuples []relation.Tuple) {
	for attr, idx := range t.secondary {
		for _, tu := range tuples {
			key := t.schema.EncodeAttr(nil, attr, tu[attr])
			b, ok := idx.get(key)
			if !ok {
				continue
			}
			b.pages[id]--
			if b.pages[id] <= 0 {
				delete(b.pages, id)
			}
			if len(b.pages) == 0 {
				idx.del(key)
			}
		}
	}
}

// homeBlock returns the block that would hold tu in clustered order: the
// last block whose first tuple is <= tu, or the first block when tu
// precedes everything.
func (t *Table) homeBlock(tu relation.Tuple) (storage.PageID, bool) {
	key := t.schema.EncodeTuple(nil, tu)
	if _, page, ok := t.primary.SeekFloor(key); ok {
		return page, true
	}
	if _, page, ok := t.primary.Min(); ok {
		return page, true
	}
	return 0, false
}

// InsertContext adds tu to the table. Duplicates are permitted (relations
// here are bags once inserts are allowed, matching the paper's block
// operations). A single-block rewrite is not interruptible mid-flight;
// cancellation is observed before work starts. In WAL mode the insert is
// group-committed, outside the lock, before returning.
func (t *Table) InsertContext(ctx context.Context, tu relation.Tuple) error {
	t.mu.Lock()
	lsn, err := t.insertLogged(ctx, tu)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return t.walCommit(lsn)
}

// insertLogged validates, logs, and applies one insert, returning the LSN
// to commit. It does not wait for log durability: callers hold the
// exclusive lock around it and commit after releasing it.
func (t *Table) insertLogged(ctx context.Context, tu relation.Tuple) (uint64, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	if err := t.schema.ValidateTuple(tu); err != nil {
		return 0, err
	}
	lsn, err := t.logRecord(recInsert, tu)
	if err != nil {
		return 0, err
	}
	if err := t.insertApply(ctx, tu); err != nil {
		t.logAbort(lsn)
		return 0, err
	}
	return lsn, nil
}

// insertApply is the unlogged insert body: it mutates blocks and indexes
// but never touches the WAL, so replay and batch loading reuse it.
func (t *Table) insertApply(ctx context.Context, tu relation.Tuple) error {
	page, ok := t.homeBlock(tu)
	if !ok {
		// Empty table: seed the store.
		refs, err := t.store.BulkLoadContext(ctx, []relation.Tuple{tu.Clone()})
		if err != nil {
			return err
		}
		t.primary.Insert(t.schema.EncodeTuple(nil, refs[0].First), refs[0].Page)
		if len(t.secondary) > 0 {
			t.registerTuples(refs[0].Page, []relation.Tuple{tu})
		}
		t.histAdd(tu)
		t.size = 1
		return nil
	}
	old, err := t.store.ReadBlock(page)
	if err != nil {
		return err
	}
	res, err := t.store.InsertIntoBlock(page, tu)
	if err != nil {
		return err
	}
	if err := t.applyMutation(page, old, res); err != nil {
		return err
	}
	t.histAdd(tu)
	t.size++
	return nil
}

// DeleteContext removes one occurrence of tu, reporting whether it was
// present. A single-block rewrite is not interruptible mid-flight;
// cancellation is observed before work starts. In WAL mode the delete is
// group-committed, outside the lock, before returning.
func (t *Table) DeleteContext(ctx context.Context, tu relation.Tuple) (bool, error) {
	t.mu.Lock()
	lsn, found, err := t.deleteLogged(ctx, tu)
	t.mu.Unlock()
	if err != nil || !found {
		return found, err
	}
	return true, t.walCommit(lsn)
}

// deleteLogged validates, logs, and applies one delete, returning the LSN
// to commit. A not-found delete is still logged (replay treats a missing
// tuple as a no-op), keeping the log-before-mutate ordering unconditional.
func (t *Table) deleteLogged(ctx context.Context, tu relation.Tuple) (uint64, bool, error) {
	if err := ctx.Err(); err != nil {
		return 0, false, err
	}
	if err := t.schema.ValidateTuple(tu); err != nil {
		return 0, false, err
	}
	lsn, err := t.logRecord(recDelete, tu)
	if err != nil {
		return 0, false, err
	}
	found, err := t.deleteApply(ctx, tu)
	if err != nil {
		t.logAbort(lsn)
		return 0, false, err
	}
	return lsn, found, nil
}

// deleteApply is the unlogged delete body (see insertApply).
func (t *Table) deleteApply(ctx context.Context, tu relation.Tuple) (bool, error) {
	if err := ctx.Err(); err != nil {
		return false, err
	}
	page, found, err := t.findTupleBlock(tu)
	if err != nil || !found {
		return false, err
	}
	old, err := t.store.ReadBlock(page)
	if err != nil {
		return false, err
	}
	res, ok, err := t.store.DeleteFromBlock(page, tu)
	if err != nil {
		return false, err
	}
	if !ok {
		return false, errors.New("table: block lost tuple between find and delete")
	}
	if err := t.applyMutation(page, old, res); err != nil {
		return false, err
	}
	t.histRemove(tu)
	t.size--
	return true, nil
}

// UpdateContext replaces one occurrence of old with new. It reports
// whether old was present (and therefore replaced). Cancellation is
// observed before the delete and again before the re-insert. Both halves
// are logged under one lock hold and committed with a single group commit
// on the later LSN (LSNs are monotone, so committing the insert's LSN
// also makes the delete durable).
func (t *Table) UpdateContext(ctx context.Context, old, new relation.Tuple) (bool, error) {
	if err := t.schema.ValidateTuple(new); err != nil {
		return false, err
	}
	t.mu.Lock()
	_, found, err := t.deleteLogged(ctx, old)
	if err != nil || !found {
		t.mu.Unlock()
		return false, err
	}
	lsn, err := t.insertLogged(ctx, new)
	t.mu.Unlock()
	if err != nil {
		return false, err
	}
	return true, t.walCommit(lsn)
}

// applyMutation fixes the primary and secondary indexes after a block
// mutation: the block's key may have changed, the block may have split,
// or it may have been removed.
func (t *Table) applyMutation(page storage.PageID, old []relation.Tuple, res blockstore.MutationResult) error {
	t.primary.Delete(t.schema.EncodeTuple(nil, old[0]))
	for _, ref := range res.Blocks {
		t.primary.Insert(t.schema.EncodeTuple(nil, ref.First), ref.Page)
	}
	if len(t.secondary) > 0 {
		t.unregisterTuples(page, old)
		for _, ref := range res.Blocks {
			ts, err := t.store.ReadBlock(ref.Page)
			if err != nil {
				return err
			}
			t.registerTuples(ref.Page, ts)
		}
	}
	return nil
}

// findTupleBlock locates the block containing tu, walking back across
// blocks whose boundary tuples equal tu so duplicates spanning blocks are
// found.
func (t *Table) findTupleBlock(tu relation.Tuple) (storage.PageID, bool, error) {
	if t.size == 0 {
		return 0, false, nil
	}
	page, ok := t.homeBlock(tu)
	if !ok {
		return 0, false, nil
	}
	blocks := t.store.Blocks()
	pos := -1
	for i, id := range blocks {
		if id == page {
			pos = i
			break
		}
	}
	if pos == -1 {
		return 0, false, fmt.Errorf("table: primary index points at unknown page %d", page)
	}
	for i := pos; i >= 0; i-- {
		ts, err := t.store.ReadBlock(blocks[i])
		if err != nil {
			return 0, false, err
		}
		for _, x := range ts {
			if t.schema.Compare(x, tu) == 0 {
				return blocks[i], true, nil
			}
		}
		// If this block's first tuple is strictly below tu, earlier blocks
		// are entirely below tu too.
		if t.schema.Compare(ts[0], tu) < 0 {
			break
		}
	}
	return 0, false, nil
}

// Contains reports whether tu is in the table, using the primary index.
// It reads blocks while probing, so it holds the shared lock throughout.
func (t *Table) Contains(tu relation.Tuple) (bool, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if err := t.schema.ValidateTuple(tu); err != nil {
		return false, err
	}
	_, found, err := t.findTupleBlock(tu)
	return found, err
}

// ScanContext visits every tuple in phi order through the executor,
// reading a snapshot pinned under the shared lock; fn runs without it.
// fn returning false stops the scan. Cancellation is observed at block
// boundaries, before the next block is decoded.
func (t *Table) ScanContext(ctx context.Context, fn func(relation.Tuple) bool) error {
	t.mu.RLock()
	r := t.planScan()
	t.mu.RUnlock()
	r.op = "scan"
	_, err := r.runCtx(ctx, fn)
	return err
}

// Check verifies the whole table: store layout, index trees, the
// agreement of the primary index with block firsts, secondary bucket
// counts against actual block contents, and the tuple count. It holds the
// shared lock throughout, so mutations pause while it walks every block.
// table.Table and shard.DB both answer the server's Engine seam with it.
func (t *Table) Check() error {
	t.mu.RLock()
	defer t.mu.RUnlock()
	// Deep store check: page headers, stream checksums, and per-tuple φ
	// range membership, not just the layout maps.
	if err := t.store.Check(); err != nil {
		return err
	}
	if err := t.primary.CheckInvariants(); err != nil {
		return err
	}
	for attr, idx := range t.secondary {
		if err := idx.check(); err != nil {
			return fmt.Errorf("secondary %d: %w", attr, err)
		}
	}
	if t.primary.Len() != t.store.NumBlocks() {
		return fmt.Errorf("table: primary has %d keys for %d blocks", t.primary.Len(), t.store.NumBlocks())
	}
	count := 0
	type attrVal struct {
		attr int
		val  uint64
		page storage.PageID
	}
	wantCounts := map[attrVal]int{}
	var checkErr error
	//avqlint:ignore ctxflow Check has no caller context; the Engine seam's Check takes none
	scanErr := t.store.ScanBlocksContext(context.Background(), func(id storage.PageID, ts []relation.Tuple) bool {
		count += len(ts)
		key := t.schema.EncodeTuple(nil, ts[0])
		page, ok := t.primary.Get(key)
		if !ok || page != id {
			checkErr = fmt.Errorf("table: primary missing block first %v -> %d", ts[0], id)
			return false
		}
		for attr := range t.secondary {
			for _, tu := range ts {
				wantCounts[attrVal{attr, tu[attr], id}]++
			}
		}
		return true
	})
	if scanErr != nil {
		return scanErr
	}
	if checkErr != nil {
		return checkErr
	}
	if count != t.size {
		return fmt.Errorf("table: %d tuples stored, size says %d", count, t.size)
	}
	for i, h := range t.hist {
		if h.total != t.size {
			return fmt.Errorf("table: histogram %d tracks %d rows for %d tuples", i, h.total, t.size)
		}
	}
	for attr, idx := range t.secondary {
		gotEntries := 0
		idx.all(func(key []byte, b *bucket) bool {
			for page, n := range b.pages {
				gotEntries += n
				// Decode the attr value from the key for comparison.
				var v uint64
				for _, by := range key {
					v = v<<8 | uint64(by)
				}
				if wantCounts[attrVal{attr, v, page}] != n {
					checkErr = fmt.Errorf("table: secondary %d value %d page %d count %d, want %d",
						attr, v, page, n, wantCounts[attrVal{attr, v, page}])
					return false
				}
			}
			return true
		})
		if checkErr != nil {
			return checkErr
		}
		if gotEntries != t.size {
			return fmt.Errorf("table: secondary %d tracks %d entries for %d tuples", attr, gotEntries, t.size)
		}
	}
	return nil
}
