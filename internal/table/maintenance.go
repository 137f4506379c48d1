package table

import (
	"context"
	"fmt"

	"repro/internal/btree"
	"repro/internal/relation"
	"repro/internal/storage"
)

// InsertBatchContext inserts many tuples with one decode/re-encode per
// affected block instead of one per tuple: the batch is sorted into phi
// order, partitioned by target block through the primary index, and each
// block is merged and rewritten once. Semantically identical to calling
// InsertContext in a loop (duplicates allowed); typically an order of
// magnitude faster for large batches. Cancellation is observed between
// block rewrites, leaving the table consistent with the runs merged so
// far. In WAL mode the whole batch is logged as one record and
// group-committed, outside the lock, before returning; a partial failure
// logs an abort plus a re-log of the prefix that did apply, so replay
// reproduces exactly the state the caller observed.
func (t *Table) InsertBatchContext(ctx context.Context, tuples []relation.Tuple) error {
	t.mu.Lock()
	lsn, err := t.insertBatchLogged(ctx, tuples)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return t.walCommit(lsn)
}

// insertBatchLogged validates, sorts, logs, and applies a batch insert,
// returning the LSN to commit (see insertLogged for the split's rationale).
func (t *Table) insertBatchLogged(ctx context.Context, tuples []relation.Tuple) (uint64, error) {
	if len(tuples) == 0 {
		return 0, nil
	}
	sp := t.opts.Obs.StartOp("insert_batch")
	defer sp.End()
	sp.Detailf("%d tuples", len(tuples))
	batch := make([]relation.Tuple, len(tuples))
	for i, tu := range tuples {
		if err := t.schema.ValidateTuple(tu); err != nil {
			return 0, err
		}
		batch[i] = tu.Clone()
	}
	t.schema.SortTuples(batch)
	lsn, err := t.logRecord(recInsertBatch, batch...)
	if err != nil {
		return 0, err
	}
	applied := 0
	if err := t.insertBatchApply(ctx, batch, &applied); err != nil {
		t.logAbort(lsn)
		if applied > 0 {
			// Re-log the prefix that did apply. Left buffered (not
			// committed): the caller saw an error, so no durability was
			// promised; any later commit carries it, matching memory.
			if _, rerr := t.logRecord(recInsertBatch, batch[:applied]...); rerr != nil {
				_ = rerr //avqlint:ignore droppederr best-effort re-log on a path already returning the apply error
			}
		}
		return 0, err
	}
	return lsn, nil
}

// insertBatchApply merges a validated, phi-sorted batch into the table
// without logging. If applied is non-nil it is advanced as runs land, so a
// failing caller knows which prefix of batch is actually in the table
// (the empty-table seed path reports all-or-nothing: a failed bulk load
// leaves the table unusable anyway).
func (t *Table) insertBatchApply(ctx context.Context, batch []relation.Tuple, applied *int) error {
	bump := func(n int) {
		if applied != nil {
			*applied += n
		}
	}
	if t.size == 0 {
		// Empty table: a batch load is a bulk load.
		refs, err := t.store.BulkLoadContext(ctx, batch)
		if err != nil {
			return err
		}
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
		for _, tu := range batch {
			t.histAdd(tu)
		}
		t.size = len(batch)
		bump(len(batch))
		return nil
	}

	// Partition the sorted batch into runs sharing a home block, then merge
	// each run into its block with a single rewrite.
	for start := 0; start < len(batch); {
		if err := ctx.Err(); err != nil {
			return err
		}
		page, ok := t.homeBlock(batch[start])
		if !ok {
			// Cannot happen on a non-empty table, but fail safe.
			if err := t.insertApply(ctx, batch[start]); err != nil {
				return err
			}
			bump(1)
			start++
			continue
		}
		end := start + 1
		for end < len(batch) {
			p, ok := t.homeBlock(batch[end])
			if !ok || p != page {
				break
			}
			end++
		}
		if err := t.mergeIntoBlock(page, batch[start:end]); err != nil {
			return err
		}
		bump(end - start)
		start = end
	}
	return nil
}

// mergeIntoBlock merges a phi-sorted run into one block and rewrites it.
func (t *Table) mergeIntoBlock(page storage.PageID, run []relation.Tuple) error {
	old, err := t.store.ReadBlock(page)
	if err != nil {
		return err
	}
	merged := make([]relation.Tuple, 0, len(old)+len(run))
	i, j := 0, 0
	for i < len(old) && j < len(run) {
		if t.schema.Compare(old[i], run[j]) <= 0 {
			merged = append(merged, old[i])
			i++
		} else {
			merged = append(merged, run[j])
			j++
		}
	}
	merged = append(merged, old[i:]...)
	merged = append(merged, run[j:]...)

	res, err := t.store.RewriteBlock(page, merged)
	if err != nil {
		return err
	}
	if err := t.applyMutation(page, old, res); err != nil {
		return err
	}
	for _, tu := range run {
		t.histAdd(tu)
	}
	t.size += len(run)
	return nil
}

// BulkLoadStreamContext loads the table from a pull source of
// phi-ordered tuples (ok=false when dry) without materializing the
// relation: the streaming counterpart of BulkLoadContext, intended for
// external-sorted inputs larger than memory (package extsort produces a
// compatible stream). Cancellation is observed between block encodes,
// before the next pull from the source. On error the table is left
// partially loaded and must be discarded.
func (t *Table) BulkLoadStreamContext(ctx context.Context, next func() (relation.Tuple, bool, error)) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.size != 0 || t.store.NumBlocks() != 0 {
		return errInto("bulk load into non-empty table")
	}
	sp := t.opts.Obs.StartOp("bulkload_stream")
	defer sp.End()
	count := 0
	counted := func() (relation.Tuple, bool, error) {
		tu, ok, err := next()
		if !ok || err != nil {
			return tu, ok, err
		}
		if verr := t.schema.ValidateTuple(tu); verr != nil {
			return nil, false, verr
		}
		count++
		t.histAdd(tu)
		return tu, true, nil
	}
	refs, err := t.store.BulkLoadStreamContext(ctx, counted)
	if err != nil {
		return err
	}
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
	sp.Detailf("%d tuples, %d blocks", count, len(refs))
	t.size = count
	return t.walCheckpoint()
}

// walCheckpoint folds the current state into a durable catalog when a WAL
// is attached. Bulk operations (bulk load, compact) are not logged — their
// payload is the whole relation — so they reach durability by
// checkpointing on success instead.
func (t *Table) walCheckpoint() error {
	if t.wal == nil {
		return nil
	}
	return t.checkpoint()
}

// errInto builds a table-scoped error; a tiny helper keeping the streaming
// path's error vocabulary aligned with BulkLoadContext's.
func errInto(msg string) error { return fmt.Errorf("table: %s", msg) }

// DeleteWhereContext removes every tuple matching the conjunction and
// returns how many were removed. It collects matches first, then deletes
// block by block, all under one exclusive lock hold. Cancellation is
// observed between deletes, so the removed count stays accurate. In WAL
// mode the matched set is logged as one record and group-committed once,
// outside the lock; a partial failure logs an abort plus a re-log of the
// deleted prefix.
func (t *Table) DeleteWhereContext(ctx context.Context, preds []Predicate) (int, error) {
	t.mu.Lock()
	removed, lsn, err := t.deleteWhereLogged(ctx, preds)
	t.mu.Unlock()
	if err != nil {
		return removed, err
	}
	return removed, t.walCommit(lsn)
}

// deleteWhereLogged is DeleteWhereContext's body under the exclusive
// lock: it returns the removed count and the LSN to commit.
func (t *Table) deleteWhereLogged(ctx context.Context, preds []Predicate) (int, uint64, error) {
	r, err := t.planSelect(preds)
	if err != nil {
		return 0, 0, err
	}
	var matches []relation.Tuple
	if _, err := r.runCtx(ctx, func(tu relation.Tuple) bool {
		matches = append(matches, tu)
		return true
	}); err != nil {
		return 0, 0, err
	}
	if len(matches) == 0 {
		return 0, 0, nil
	}
	lsn, err := t.logRecord(recDeleteBatch, matches...)
	if err != nil {
		return 0, 0, err
	}
	removed := 0
	for i, tu := range matches {
		ok, err := t.deleteApply(ctx, tu)
		if err != nil {
			t.logAbort(lsn)
			if i > 0 {
				// matches[:i] were all attempted; deletes of absent tuples
				// are no-ops at replay, so the prefix re-log is exact.
				if _, rerr := t.logRecord(recDeleteBatch, matches[:i]...); rerr != nil {
					_ = rerr //avqlint:ignore droppederr best-effort re-log on a path already returning the apply error
				}
			}
			return removed, 0, err
		}
		if ok {
			removed++
		}
	}
	return removed, lsn, nil
}

// CompactContext rewrites the relation into freshly packed blocks,
// reclaiming the slack that accumulates as deletions shrink blocks below
// the packing target (Section 3.4's minimal-unused-space rule degrades
// under churn). Indexes are rebuilt. It returns the block counts before
// and after. Cancellation is observed only during the initial collection
// scan: once the old layout is torn down the rewrite runs to completion
// so the table is never left empty.
func (t *Table) CompactContext(ctx context.Context) (before, after int, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	sp := t.opts.Obs.StartOp("compact")
	defer sp.End()
	before = t.store.NumBlocks()
	var all []relation.Tuple
	r := t.planScan()
	r.op = "scan"
	if _, err := r.runCtx(ctx, func(tu relation.Tuple) bool {
		all = append(all, tu.Clone())
		return true
	}); err != nil {
		return before, before, err
	}
	// Tear down the old layout.
	if err := t.store.Reset(); err != nil {
		return before, before, err
	}
	freshPrimary, err := btree.New[storage.PageID](t.opts.IndexOrder)
	if err != nil {
		return before, before, err
	}
	freshPrimary.SetProbeCounter(t.opts.Obs.Counter("index.btree_probes"))
	t.primary = freshPrimary
	for attr := range t.secondary {
		idx, err := newSecIndex(t.opts)
		if err != nil {
			return before, before, err
		}
		t.secondary[attr] = idx
	}
	for i := range t.hist {
		t.hist[i] = newHistogram(t.schema.Domain(i).Size)
	}
	t.size = 0

	// Reload tightly packed. Deliberately cancel-blind: the old layout is
	// already torn down, so aborting here would leave the table empty.
	rewrite := context.WithoutCancel(ctx)
	refs, err := t.store.BulkLoadContext(rewrite, all)
	if err != nil {
		return before, before, err
	}
	for _, ref := range refs {
		t.primary.Insert(t.schema.EncodeTuple(nil, ref.First), ref.Page)
	}
	if len(t.secondary) > 0 {
		if err := t.store.ScanBlocksContext(rewrite, func(id storage.PageID, ts []relation.Tuple) bool {
			t.registerTuples(id, ts)
			return true
		}); err != nil {
			return before, before, err
		}
	}
	for _, tu := range all {
		t.histAdd(tu)
	}
	t.size = len(all)
	return before, t.store.NumBlocks(), t.walCheckpoint()
}
