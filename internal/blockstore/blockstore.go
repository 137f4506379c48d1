// Package blockstore stores a phi-clustered relation as a sequence of
// coded disk blocks (Sections 3.3-3.4 and 4.2 of the paper).
//
// The store is parameterized by a core.Codec: with CodecAVQ it is the
// paper's compressed store, with CodecRaw it is the "No coding" baseline,
// and with the ablation codecs it is the corresponding variant. Everything
// else — packing, block splits, localized insert and delete — is identical
// across codecs, so the evaluation compares representations, not different
// engines.
//
// Each page holds one coded block: a 4-byte big-endian stream length
// followed by the core block stream. Tuples within a block are in phi
// order, and the ordered block list is the clustered order of the relation.
// Insertion and deletion decode, modify, and re-encode only the affected
// block (Figure 4.6); a block whose re-coded stream no longer fits its page
// is split, and an emptied block's page is freed.
//
// The layout metadata lives in an immutable manifest (see snapshot.go):
// mutations clone it, edit the clone, and publish it atomically, freeing
// replaced pages only after publication — and only once no Snapshot still
// pins them. Readers holding a Snapshot therefore stream a consistent
// pre-mutation view while writers proceed.
package blockstore

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/ordinal"
	"repro/internal/relation"
	"repro/internal/storage"
)

// lenPrefix is the page-header overhead: the coded stream length.
const lenPrefix = 4

// Errors returned by the store.
var (
	ErrTupleTooLarge = errors.New("blockstore: a single tuple does not fit in a page")
	ErrUnknownBlock  = errors.New("blockstore: page is not a block of this store")
	// ErrCorruptBlock marks a block whose on-page bytes cannot be decoded:
	// an impossible stream length, a checksum mismatch, or a malformed
	// coded stream. It wraps the detailed cause; dispatch with errors.Is.
	ErrCorruptBlock = errors.New("blockstore: corrupt block")
	// ErrSnapshotStale is returned by reads through a Snapshot after its
	// Release: the pages it referenced may already be recycled.
	ErrSnapshotStale = errors.New("blockstore: snapshot used after release")
)

// BlockRef describes one data block: its page and its first (smallest)
// tuple, which is the block's primary-index key.
type BlockRef struct {
	Page  storage.PageID
	First relation.Tuple
	Count int
}

// Store is a clustered, coded block store. It is not safe for concurrent
// mutation; the table layer serializes mutations. Readers are safe
// concurrently with a mutation when they hold a Snapshot (or go through
// ScanBlocksContext/ComputeStats, which take one internally); bare ReadBlock
// calls remain safe only between mutations, as before.
type Store struct {
	schema *relation.Schema
	codec  core.Codec
	pool   *buffer.Pool

	// man is the current published manifest: block list, position map, and
	// φ-fences. Mutators clone-edit-publish; readers Load.
	man atomic.Pointer[manifest]

	// Snapshot accounting: while snapRefs > 0, pages freed by mutations
	// are parked in deferred instead of returned to the pager.
	snapMu   sync.Mutex
	snapRefs int
	deferred []storage.PageID

	// Concurrency configuration (see Configure): conc > 1 enables the
	// parallel codec pipeline, cache != nil the decoded-block LRU.
	conc  int
	cache *blockCache

	// met holds pre-resolved obs instruments (see Configure); the zero
	// value means observability is off and every instrument no-ops.
	met storeMetrics

	// encBuf is the serial encode path's reusable stream buffer. Mutations
	// are serialized by the table layer and the parallel pipeline encodes
	// into its own per-chunk buffers, so encodeInto is the only writer.
	// The encoded stream is copied onto the page before the next encode,
	// so reusing the capacity across blocks is safe.
	encBuf []byte

	// hook, when set, observes every manifest publication on the mutation
	// path (see SetCommitHook). Called by the single mutator, after the
	// publish, so implementations see the post-commit state.
	hook func(CommitEvent)
}

// CommitEvent describes one manifest publication on the mutation path.
type CommitEvent struct {
	// Kind is the publication source: "rewrite", "split", "remove",
	// "bulkload", or "reset".
	Kind string
	// Pages is the number of freshly written data pages the publication
	// introduced (0 for removals and resets).
	Pages int
}

// SetCommitHook registers fn to run after every manifest publication made
// by a mutation (rewrite, split, empty-block removal, bulk load, reset).
// The WAL-enabled table uses it to account page commits against the log;
// observability layers can count them. fn runs on the mutating goroutine
// with no store locks held and must not mutate the store.
func (s *Store) SetCommitHook(fn func(CommitEvent)) { s.hook = fn }

// notifyCommit invokes the commit hook if one is registered.
func (s *Store) notifyCommit(kind string, pages int) {
	if s.hook != nil {
		s.hook(CommitEvent{Kind: kind, Pages: pages})
	}
}

// LiveSnapshots returns the number of unreleased snapshots — zero in a
// quiescent store; crash and cancellation tests assert no leaks.
func (s *Store) LiveSnapshots() int {
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	return s.snapRefs
}

// New creates an empty store over the pool.
func New(schema *relation.Schema, codec core.Codec, pool *buffer.Pool) (*Store, error) {
	if !codec.Valid() {
		return nil, fmt.Errorf("blockstore: invalid codec %d", uint8(codec))
	}
	if schema.RowSize()+lenPrefix > pool.PageSize() {
		return nil, ErrTupleTooLarge
	}
	s := &Store{
		schema: schema,
		codec:  codec,
		pool:   pool,
	}
	s.man.Store(newManifest())
	return s, nil
}

// Schema returns the store's schema.
func (s *Store) Schema() *relation.Schema { return s.schema }

// Codec returns the store's block codec.
func (s *Store) Codec() core.Codec { return s.codec }

// NumBlocks returns the number of data blocks.
func (s *Store) NumBlocks() int { return len(s.man.Load().blocks) }

// FenceBounds reports the attribute-0 span the store's fences cover:
// the clustering order is attribute-0-major, so the first block's First
// and the last block's Last bracket every tuple. ok is false when the
// store is empty or an edge fence is unknown (the caller must then treat
// the span as the whole domain).
func (s *Store) FenceBounds() (lo, hi uint64, ok bool) {
	m := s.man.Load()
	if len(m.fences) == 0 {
		return 0, 0, false
	}
	first, last := m.fences[0], m.fences[len(m.fences)-1]
	if !first.Known() || !last.Known() {
		return 0, 0, false
	}
	return first.First[0], last.Last[0], true
}

// Blocks returns the pages of the store's blocks in clustered order.
func (s *Store) Blocks() []storage.PageID {
	m := s.man.Load()
	out := make([]storage.PageID, len(m.blocks))
	copy(out, m.blocks)
	return out
}

// capacity is the usable coded-stream capacity of a page.
func (s *Store) capacity() int { return s.pool.PageSize() - lenPrefix }

// Restore adopts an existing block layout whose pages are already
// populated in the pool's pager, without rewriting anything. Opening a
// persistent table uses it to rebuild the store from the catalog's block
// list. The store must be empty and the page ids distinct. The restored
// blocks carry unknown fences until AdoptFences installs them (the table
// layer does so from its index-rebuild scan), so scans read rather than
// prune restored blocks in the interim.
func (s *Store) Restore(blocks []storage.PageID) error {
	if s.NumBlocks() != 0 {
		return errors.New("blockstore: restore into non-empty store")
	}
	m := newManifest()
	for _, id := range blocks {
		if _, dup := m.pos[id]; dup {
			return fmt.Errorf("blockstore: duplicate page %d in restored layout", id)
		}
		m.append(id, Fence{})
	}
	s.man.Store(m)
	return nil
}

// BulkLoadContext replaces the store's contents with the given tuples,
// which must already be sorted in phi order (use Schema.SortTuples).
// Blocks are packed greedily to the page capacity, the paper's "minimize
// unused space" rule. It returns a BlockRef per block, in clustered order.
// The new layout is published once at the end, so concurrent snapshot
// readers see either the empty store or the complete load. Cancellation
// is honored at block boundaries, so a cancelled load stops before the
// next encode with no frames pinned. Pages already written stay tracked
// by the published partial manifest, so Reset can reclaim them.
func (s *Store) BulkLoadContext(ctx context.Context, tuples []relation.Tuple) ([]BlockRef, error) {
	if !s.schema.TuplesSorted(tuples) {
		return nil, errors.New("blockstore: bulk load input not in phi order")
	}
	if s.NumBlocks() != 0 {
		return nil, errors.New("blockstore: bulk load into non-empty store")
	}
	m := newManifest()
	// Publish even on error so pages written before the failure stay
	// tracked by the store (Reset can then free them) instead of leaking.
	defer func() {
		s.man.Store(m)
		s.notifyCommit("bulkload", len(m.blocks))
	}()
	if s.parallel() {
		if z, ok := core.NewSizer(s.codec, s.schema); ok {
			return s.bulkLoadParallel(ctx, m, z, tuples)
		}
		// Non-additive codec (rep-only): fall through to the serial path.
	}
	var refs []BlockRef
	remaining := tuples
	for len(remaining) > 0 {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		u, err := core.MaxFit(s.codec, s.schema, remaining, s.capacity())
		if err != nil {
			return nil, err
		}
		if u == 0 {
			return nil, ErrTupleTooLarge
		}
		ref, err := s.appendBlock(m, remaining[:u])
		if err != nil {
			return nil, err
		}
		refs = append(refs, ref)
		remaining = remaining[u:]
	}
	return refs, nil
}

// BulkLoadStreamContext is BulkLoadContext for sources too large to
// materialize: it pulls phi-ordered tuples from next (which returns
// ok=false when dry) and packs blocks incrementally, holding only a small
// buffering window in memory. Used with the external sorter it loads
// relations of any size. Cancellation is checked once per window before
// the next pull-and-pack round, so an abandoned stream load stops without
// pinned frames; the partial manifest is published for Reset to reclaim.
func (s *Store) BulkLoadStreamContext(ctx context.Context, next func() (relation.Tuple, bool, error)) ([]BlockRef, error) {
	if s.NumBlocks() != 0 {
		return nil, errors.New("blockstore: bulk load into non-empty store")
	}
	m := newManifest()
	defer func() {
		s.man.Store(m)
		s.notifyCommit("bulkload", len(m.blocks))
	}()
	var sizer *core.Sizer
	if s.parallel() {
		if z, ok := core.NewSizer(s.codec, s.schema); ok {
			sizer = z
		}
	}
	var refs []BlockRef
	var window []relation.Tuple
	var prev relation.Tuple
	dry := false
	// Enough headroom that MaxFit can always see past one full block.
	highWater := 4096
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		for !dry && len(window) < highWater {
			tu, ok, err := next()
			if err != nil {
				return nil, err
			}
			if !ok {
				dry = true
				break
			}
			if prev != nil && s.schema.Compare(prev, tu) > 0 {
				return nil, errors.New("blockstore: stream not in phi order")
			}
			prev = tu.Clone()
			window = append(window, tu.Clone())
		}
		if len(window) == 0 {
			return refs, nil
		}
		if sizer != nil {
			newRefs, tail, grown, err := s.loadWindowParallel(ctx, m, sizer, window, dry)
			if err != nil {
				return nil, err
			}
			if grown {
				// The lone block could still grow; widen and refill.
				highWater *= 2
				continue
			}
			refs = append(refs, newRefs...)
			window = append(window[:0], tail...)
			continue
		}
		u, err := core.MaxFit(s.codec, s.schema, window, s.capacity())
		if err != nil {
			return nil, err
		}
		if u == 0 {
			return nil, ErrTupleTooLarge
		}
		if u == len(window) && !dry {
			// The block could still grow; widen the window and refill.
			highWater *= 2
			continue
		}
		ref, err := s.appendBlock(m, window[:u])
		if err != nil {
			return nil, err
		}
		refs = append(refs, ref)
		window = append(window[:0], window[u:]...)
	}
}

// appendBlock writes a new block at the end of m's clustered order.
func (s *Store) appendBlock(m *manifest, tuples []relation.Tuple) (BlockRef, error) {
	frame, err := s.pool.Allocate()
	if err != nil {
		return BlockRef{}, err
	}
	defer s.pool.Unpin(frame)
	if err := s.encodeInto(frame, tuples); err != nil {
		return BlockRef{}, err
	}
	id := frame.ID()
	f := fenceFor(tuples)
	m.append(id, f)
	return BlockRef{Page: id, First: f.First, Count: len(tuples)}, nil
}

// encodeInto codes tuples into the frame's page, reusing the store's
// encode buffer across blocks (fillFrame copies the stream onto the page
// before the buffer is touched again).
func (s *Store) encodeInto(frame *buffer.Frame, tuples []relation.Tuple) error {
	stream, err := s.timeEncode(tuples, s.encBuf[:0])
	if err != nil {
		return err
	}
	s.encBuf = stream
	return s.fillFrame(frame, stream)
}

// fillFrame lays a pre-encoded block stream out on the frame's page.
func (s *Store) fillFrame(frame *buffer.Frame, stream []byte) error {
	if len(stream) > s.capacity() {
		return fmt.Errorf("blockstore: coded stream %d bytes exceeds page capacity %d", len(stream), s.capacity())
	}
	data := frame.Data()
	binary.BigEndian.PutUint32(data[:lenPrefix], uint32(len(stream)))
	copy(data[lenPrefix:], stream)
	// Zero the tail so stale bytes from a previous, longer block cannot
	// survive on the page.
	clear(data[lenPrefix+len(stream):])
	frame.MarkDirty()
	return nil
}

// writeStream copies a pre-encoded block stream onto a freshly allocated
// page; the pipeline committer uses it so page allocation order is decided
// serially even though encoding was not.
func (s *Store) writeStream(stream []byte) (storage.PageID, error) {
	frame, err := s.pool.Allocate()
	if err != nil {
		return 0, err
	}
	err = s.fillFrame(frame, stream)
	id := frame.ID()
	if uerr := s.pool.Unpin(frame); err == nil {
		err = uerr
	}
	if err != nil {
		s.freePageBestEffort(id)
		return 0, err
	}
	return id, nil
}

// ReadBlock decodes the tuples of the block stored on page id, consulting
// the decoded-block cache when one is configured.
func (s *Store) ReadBlock(id storage.PageID) ([]relation.Tuple, error) {
	return s.ReadBlockArena(id, nil)
}

// ReadBlockArena is ReadBlock with the decoded tuples carved from the
// caller's arena (a fresh internal one when a is nil). The tuples alias
// the arena's slab and are valid only until its next Reset.
func (s *Store) ReadBlockArena(id storage.PageID, a *core.Arena) ([]relation.Tuple, error) {
	if _, ok := s.man.Load().pos[id]; !ok {
		return nil, fmt.Errorf("%w: %d", ErrUnknownBlock, id)
	}
	tuples, _, err := s.decodeBlockCachedHitArena(id, a)
	return tuples, err
}

// decodeBlockCached serves a block from the decoded-block cache or decodes
// it from its page (filling the cache).
func (s *Store) decodeBlockCached(id storage.PageID) ([]relation.Tuple, error) {
	tuples, _, err := s.decodeBlockCachedHitArena(id, nil)
	return tuples, err
}

// decodeBlockCachedHitArena is decodeBlockCached, also reporting whether
// the cache served the block without a page read. It reads the block's φ
// slab through readPhis and inverts every row into tuples carved from the
// same arena, so callers own them until the arena's next Reset.
func (s *Store) decodeBlockCachedHitArena(id storage.PageID, a *core.Arena) ([]relation.Tuple, bool, error) {
	if a == nil {
		a = core.NewArena()
	}
	phis, hit, err := s.readPhis(id, a)
	if err != nil {
		return nil, false, err
	}
	k := s.schema.Limbs().K
	tuples := a.Tuples(len(phis)/k, s.schema.NumAttrs())
	for i, tu := range tuples {
		if _, err := ordinal.PhiInverseLimbs(s.schema, tu, phis[i*k:(i+1)*k]); err != nil {
			return nil, false, fmt.Errorf("%w: page %d: %w", ErrCorruptBlock, id, err)
		}
	}
	return tuples, hit, nil
}

// readPhis is the store's one block read: block id's φ slab (stride
// Limbs().K), carved from a. A cache hit copies the cached slab; a miss
// decodes the pinned page with core.DecodeBlockPhis, timed by the decode
// instruments (hits are not decodes), and fills the cache.
func (s *Store) readPhis(id storage.PageID, a *core.Arena) ([]uint64, bool, error) {
	if c := s.cache; c != nil {
		if phis, ok := c.getPhis(id, a); ok {
			return phis, true, nil
		}
	}
	frame, err := s.pool.Get(id)
	if err != nil {
		return nil, false, err
	}
	defer s.pool.Unpin(frame)
	data := frame.Data()
	l := int(binary.BigEndian.Uint32(data[:lenPrefix]))
	if l > s.capacity() {
		return nil, false, fmt.Errorf("%w: page %d claims stream of %d bytes", ErrCorruptBlock, id, l)
	}
	var t0 time.Time
	if s.met.decodeHist != nil {
		t0 = time.Now()
	}
	phis, err := core.DecodeBlockPhis(s.schema, data[lenPrefix:lenPrefix+l], a)
	if s.met.decodeHist != nil {
		s.met.decodeHist.Observe(time.Since(t0))
		s.met.decodes.Inc()
	}
	if err != nil {
		return nil, false, fmt.Errorf("%w: page %d: %w", ErrCorruptBlock, id, err)
	}
	if c := s.cache; c != nil {
		c.put(id, phis)
	}
	return phis, false, nil
}

// MutationResult reports how an insert or delete changed the block layout,
// so the table layer can maintain its indexes.
type MutationResult struct {
	// Blocks holds the refs of every block that now covers the affected
	// key range, in clustered order: the modified block, plus any blocks
	// created by a split. Empty when the block was removed entirely.
	Blocks []BlockRef
	// Removed is the page freed because the block became empty.
	Removed storage.PageID
	// HasRemoved reports whether Removed is meaningful.
	HasRemoved bool
}

// InsertIntoBlock inserts t into the block on page id, keeping phi order,
// re-coding the block in place, and splitting it if the coded stream no
// longer fits the page (Section 4.2). Duplicates are permitted.
func (s *Store) InsertIntoBlock(id storage.PageID, t relation.Tuple) (MutationResult, error) {
	tuples, err := s.ReadBlock(id)
	if err != nil {
		return MutationResult{}, err
	}
	// Binary search the insertion point.
	lo, hi := 0, len(tuples)
	for lo < hi {
		mid := (lo + hi) / 2
		if s.schema.Compare(tuples[mid], t) <= 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	tuples = append(tuples, nil)
	copy(tuples[lo+1:], tuples[lo:])
	tuples[lo] = t.Clone()
	return s.rewritePublish(id, tuples)
}

// DeleteFromBlock removes one occurrence of t from the block on page id.
// It returns the mutation result and whether the tuple was found.
func (s *Store) DeleteFromBlock(id storage.PageID, t relation.Tuple) (MutationResult, bool, error) {
	tuples, err := s.ReadBlock(id)
	if err != nil {
		return MutationResult{}, false, err
	}
	idx := -1
	for i, tu := range tuples {
		if s.schema.Compare(tu, t) == 0 {
			idx = i
			break
		}
	}
	if idx == -1 {
		return MutationResult{}, false, nil
	}
	tuples = append(tuples[:idx], tuples[idx+1:]...)
	if len(tuples) == 0 {
		m := s.man.Load().clone()
		at, ok := m.pos[id]
		if !ok {
			return MutationResult{}, false, fmt.Errorf("%w: %d", ErrUnknownBlock, id)
		}
		m.blocks = append(m.blocks[:at], m.blocks[at+1:]...)
		m.fences = append(m.fences[:at], m.fences[at+1:]...)
		delete(m.pos, id)
		m.reindexFrom(at)
		s.man.Store(m)
		s.notifyCommit("remove", 0)
		if err := s.freeBlockPage(id); err != nil {
			return MutationResult{}, false, err
		}
		return MutationResult{Removed: id, HasRemoved: true}, true, nil
	}
	res, err := s.rewritePublish(id, tuples)
	return res, true, err
}

// RewriteBlock replaces the contents of the block on page id with the
// given phi-sorted, non-empty tuple run, re-coding in place and splitting
// when it no longer fits. Batch insertion uses it to merge many tuples
// into a block with a single rewrite.
func (s *Store) RewriteBlock(id storage.PageID, tuples []relation.Tuple) (MutationResult, error) {
	if _, ok := s.man.Load().pos[id]; !ok {
		return MutationResult{}, fmt.Errorf("%w: %d", ErrUnknownBlock, id)
	}
	if len(tuples) == 0 {
		return MutationResult{}, errors.New("blockstore: rewrite with no tuples")
	}
	if !s.schema.TuplesSorted(tuples) {
		return MutationResult{}, errors.New("blockstore: rewrite input not in phi order")
	}
	return s.rewritePublish(id, tuples)
}

// rewritePublish re-codes tuples onto fresh pages (copy-on-write),
// splitting into additional blocks when they no longer fit, then
// publishes the edited manifest and frees the replaced page. The original
// page is freed only after publication — and only once no snapshot pins
// it — so a crash between catalog checkpoints can never clobber a block
// the last durable catalog references, and concurrent snapshot readers
// keep a consistent pre-rewrite view.
func (s *Store) rewritePublish(id storage.PageID, tuples []relation.Tuple) (MutationResult, error) {
	m := s.man.Load().clone()
	size, err := core.EncodedSize(s.codec, s.schema, tuples)
	if err != nil {
		return MutationResult{}, err
	}
	if size <= s.capacity() {
		newID, err := s.writeFresh(tuples)
		if err != nil {
			return MutationResult{}, err
		}
		at, ok := m.pos[id]
		if !ok {
			s.freePageBestEffort(newID)
			return MutationResult{}, fmt.Errorf("%w: %d", ErrUnknownBlock, id)
		}
		f := fenceFor(tuples)
		m.blocks[at] = newID
		m.fences[at] = f
		delete(m.pos, id)
		m.pos[newID] = at
		s.man.Store(m)
		s.notifyCommit("rewrite", 1)
		if err := s.freeBlockPage(id); err != nil {
			return MutationResult{}, err
		}
		return MutationResult{Blocks: []BlockRef{{
			Page: newID, First: f.First, Count: len(tuples),
		}}}, nil
	}
	return s.splitBlock(m, id, tuples)
}

// writeFresh codes tuples onto a newly allocated page and returns it. On
// failure the page is released again, so an encode or unpin error never
// strands an allocated page outside the block list.
func (s *Store) writeFresh(tuples []relation.Tuple) (storage.PageID, error) {
	frame, err := s.pool.Allocate()
	if err != nil {
		return 0, err
	}
	err = s.encodeInto(frame, tuples)
	id := frame.ID()
	if uerr := s.pool.Unpin(frame); err == nil {
		err = uerr
	}
	if err != nil {
		s.freePageBestEffort(id)
		return 0, err
	}
	return id, nil
}

// freePageBestEffort returns an orphaned page (allocated but never
// published in any manifest) to the pager on an error path. Such a page
// was never visible to a snapshot, so it is freed immediately.
func (s *Store) freePageBestEffort(id storage.PageID) {
	s.pool.Free(id) //avqlint:ignore droppederr best-effort rollback on a path already returning the primary error
}

// freeBlockPage frees a page that held a published block. While snapshots
// are live the free is parked (the snapshot may still read the page and
// the cache may still serve its decode); otherwise the cached decode is
// dropped first, because pagers reuse freed ids and a stale cache entry
// would resurrect the old block's tuples under the recycled id.
func (s *Store) freeBlockPage(id storage.PageID) error {
	s.snapMu.Lock()
	if s.snapRefs > 0 {
		s.deferred = append(s.deferred, id)
		s.snapMu.Unlock()
		return nil
	}
	s.snapMu.Unlock()
	if s.cache != nil {
		s.cache.invalidate(id)
	}
	return s.pool.Free(id)
}

// splitBlock distributes tuples over as many fresh pages as needed,
// spliced into the original block's clustered position (copy-on-write; the
// original page is freed after the new manifest is published). An even
// first split is preferred (half the tuples per side) so both halves
// retain insertion slack; if a half still overflows, packing falls back to
// greedy MaxFit runs.
func (s *Store) splitBlock(m *manifest, id storage.PageID, tuples []relation.Tuple) (MutationResult, error) {
	var runs [][]relation.Tuple
	half := len(tuples) / 2
	if half > 0 {
		leftSize, err := core.EncodedSize(s.codec, s.schema, tuples[:half])
		if err != nil {
			return MutationResult{}, err
		}
		rightSize, err := core.EncodedSize(s.codec, s.schema, tuples[half:])
		if err != nil {
			return MutationResult{}, err
		}
		if leftSize <= s.capacity() && rightSize <= s.capacity() {
			runs = [][]relation.Tuple{tuples[:half], tuples[half:]}
		}
	}
	if runs == nil {
		remaining := tuples
		for len(remaining) > 0 {
			u, err := core.MaxFit(s.codec, s.schema, remaining, s.capacity())
			if err != nil {
				return MutationResult{}, err
			}
			if u == 0 {
				return MutationResult{}, ErrTupleTooLarge
			}
			runs = append(runs, remaining[:u])
			remaining = remaining[u:]
		}
	}

	var res MutationResult
	at, ok := m.pos[id]
	if !ok {
		return MutationResult{}, fmt.Errorf("%w: %d", ErrUnknownBlock, id)
	}
	newIDs := make([]storage.PageID, len(runs))
	newFences := make([]Fence, len(runs))
	for i, run := range runs {
		newID, err := s.writeFresh(run)
		if err != nil {
			// Roll back the halves already written: they are not in any
			// published manifest, and leaving them allocated would strand
			// their pages forever. The original block is untouched, so the
			// store stays exactly as it was before the split.
			for _, written := range newIDs[:i] {
				s.freePageBestEffort(written)
			}
			return MutationResult{}, err
		}
		newIDs[i] = newID
		newFences[i] = fenceFor(run)
		res.Blocks = append(res.Blocks, BlockRef{Page: newID, First: newFences[i].First, Count: len(run)})
	}
	// Splice: replace the original slot with the first run, insert the rest
	// after it.
	m.blocks[at] = newIDs[0]
	m.fences[at] = newFences[0]
	delete(m.pos, id)
	for i := 1; i < len(newIDs); i++ {
		insertAt := at + i
		m.blocks = append(m.blocks, 0)
		copy(m.blocks[insertAt+1:], m.blocks[insertAt:])
		m.blocks[insertAt] = newIDs[i]
		m.fences = append(m.fences, Fence{})
		copy(m.fences[insertAt+1:], m.fences[insertAt:])
		m.fences[insertAt] = newFences[i]
	}
	m.reindexFrom(at)
	s.man.Store(m)
	s.notifyCommit("split", len(newIDs))
	if err := s.freeBlockPage(id); err != nil {
		return MutationResult{}, err
	}
	return res, nil
}

// Reset frees every block page and empties the store, leaving it ready for
// a fresh BulkLoadContext. Compaction uses it to tear down the old layout.
func (s *Store) Reset() error {
	old := s.man.Load()
	s.man.Store(newManifest())
	s.notifyCommit("reset", 0)
	err := s.freeAll(old.blocks)
	if s.cache != nil {
		s.cache.clear()
	}
	return err
}

// NextBlock returns the page following id in clustered order, or false at
// the end. Range scans use it to walk contiguous blocks.
func (s *Store) NextBlock(id storage.PageID) (storage.PageID, bool) {
	m := s.man.Load()
	at, ok := m.pos[id]
	if !ok || at+1 >= len(m.blocks) {
		return 0, false
	}
	return m.blocks[at+1], true
}

// ScanBlocksContext visits every block in clustered order, decoding each.
// fn returning false stops the scan. With Concurrency > 1 blocks are
// prefetched and decoded on a worker pool, but fn still observes them
// strictly in clustered order, one at a time. The scan holds a Snapshot
// for its duration, so it streams a consistent view even while another
// goroutine mutates the store. Cancellation is checked at every block
// boundary, before the next decode, so an aborted scan returns with no
// frames pinned.
func (s *Store) ScanBlocksContext(ctx context.Context, fn func(id storage.PageID, tuples []relation.Tuple) bool) error {
	sn := s.Snapshot()
	defer sn.Release()
	m := sn.m
	if s.parallel() && len(m.blocks) > 1 {
		return s.scanBlocksParallel(ctx, m, fn)
	}
	for _, id := range m.blocks {
		if err := ctx.Err(); err != nil {
			return err
		}
		tuples, err := s.decodeBlockCached(id)
		if err != nil {
			return err
		}
		if !fn(id, tuples) {
			return nil
		}
	}
	return nil
}

// Stats summarizes the store's physical layout.
type Stats struct {
	Blocks       int
	Tuples       int
	StreamBytes  int // total coded bytes, excluding page padding
	PageBytes    int // Blocks * page size: what the relation occupies on disk
	RawDataBytes int // Tuples * RowSize: the uncoded fixed-width size
}

// CompressionRatio returns 1 - coded/uncoded over page-granular sizes; the
// paper's "percentage reduction in size" (Figure 5.7) is 100 times this.
func (st Stats) CompressionRatio() float64 {
	if st.RawDataBytes == 0 {
		return 0
	}
	return 1 - float64(st.PageBytes)/float64(st.RawDataBytes)
}

// StreamSavingsPercent returns the coded-stream size reduction as a
// percentage of the uncoded size, 0 for an empty relation. Tools report
// it; the guard keeps an empty store from printing NaN.
func (st Stats) StreamSavingsPercent() float64 {
	if st.RawDataBytes == 0 {
		return 0
	}
	return 100 * (1 - float64(st.StreamBytes)/float64(st.RawDataBytes))
}

// ComputeStats walks the store and returns its layout statistics. With
// Concurrency > 1 blocks are inspected on a worker pool. Like ScanBlocksContext
// it works over one pinned snapshot.
func (s *Store) ComputeStats() (Stats, error) {
	sn := s.Snapshot()
	defer sn.Release()
	m := sn.m
	if s.parallel() && len(m.blocks) > 1 {
		return s.computeStatsParallel(m)
	}
	st := Stats{Blocks: len(m.blocks), PageBytes: len(m.blocks) * s.pool.PageSize()}
	for _, id := range m.blocks {
		info, err := s.inspectBlock(id)
		if err != nil {
			return Stats{}, err
		}
		st.StreamBytes += info.StreamSize
		st.Tuples += info.TupleCount
	}
	st.RawDataBytes = st.Tuples * s.schema.RowSize()
	return st, nil
}

// inspectBlock validates one block's stream header without decoding it.
func (s *Store) inspectBlock(id storage.PageID) (core.BlockInfo, error) {
	frame, err := s.pool.Get(id)
	if err != nil {
		return core.BlockInfo{}, err
	}
	data := frame.Data()
	l := int(binary.BigEndian.Uint32(data[:lenPrefix]))
	var info core.BlockInfo
	if l > s.capacity() {
		err = fmt.Errorf("%w: page %d claims stream of %d bytes", ErrCorruptBlock, id, l)
	} else if info, err = core.Inspect(data[lenPrefix : lenPrefix+l]); err != nil {
		err = fmt.Errorf("%w: page %d: %w", ErrCorruptBlock, id, err)
	}
	if uerr := s.pool.Unpin(frame); err == nil {
		err = uerr
	}
	if err != nil {
		return core.BlockInfo{}, err
	}
	return info, nil
}

// CheckInvariants verifies the clustered layout: the position map matches
// the block list, every block decodes, blocks are non-empty and internally
// sorted, block boundaries respect phi order, and every known φ-fence
// agrees with the decoded block it summarizes. Tests and the avqtool
// verify command use it.
func (s *Store) CheckInvariants() error {
	m := s.man.Load()
	if len(m.pos) != len(m.blocks) {
		return fmt.Errorf("blockstore: %d positions for %d blocks", len(m.pos), len(m.blocks))
	}
	if len(m.fences) != len(m.blocks) {
		return fmt.Errorf("blockstore: %d fences for %d blocks", len(m.fences), len(m.blocks))
	}
	var prevLast relation.Tuple
	for i, id := range m.blocks {
		if m.pos[id] != i {
			return fmt.Errorf("blockstore: page %d position %d != %d", id, m.pos[id], i)
		}
		tuples, err := s.decodeBlockCached(id)
		if err != nil {
			return fmt.Errorf("blockstore: block %d: %w", i, err)
		}
		if len(tuples) == 0 {
			return fmt.Errorf("blockstore: block %d is empty", i)
		}
		if !s.schema.TuplesSorted(tuples) {
			return fmt.Errorf("blockstore: block %d not phi-sorted", i)
		}
		if prevLast != nil && s.schema.Compare(prevLast, tuples[0]) > 0 {
			return fmt.Errorf("blockstore: block %d overlaps predecessor", i)
		}
		prevLast = tuples[len(tuples)-1]
		if f := m.fences[i]; f.Known() {
			if f.Count != len(tuples) {
				return fmt.Errorf("blockstore: block %d fence count %d, %d decoded", i, f.Count, len(tuples))
			}
			if s.schema.Compare(f.First, tuples[0]) != 0 {
				return fmt.Errorf("blockstore: block %d fence first tuple disagrees with block", i)
			}
			if s.schema.Compare(f.Last, tuples[len(tuples)-1]) != 0 {
				return fmt.Errorf("blockstore: block %d fence last tuple disagrees with block", i)
			}
		}
	}
	return nil
}
