package table

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/blockstore"
	"repro/internal/exec"
	"repro/internal/obs"
	"repro/internal/relation"
	"repro/internal/storage"
)

// Strategy names the access path a query used.
type Strategy uint8

const (
	// StrategyClustered scans the contiguous run of blocks whose φ-fences
	// intersect the predicate range: the plan for predicates on the
	// clustering prefix attribute.
	StrategyClustered Strategy = iota
	// StrategySecondary collects candidate blocks from a secondary index's
	// buckets and reads each once (Figure 4.5). B+ tree indexes enumerate
	// the key range; hash indexes probe each value in a narrow range.
	StrategySecondary
	// StrategyFullScan reads every block.
	StrategyFullScan
)

// String returns the strategy's name.
func (s Strategy) String() string {
	switch s {
	case StrategyClustered:
		return "clustered"
	case StrategySecondary:
		return "secondary"
	case StrategyFullScan:
		return "full-scan"
	default:
		return fmt.Sprintf("Strategy(%d)", uint8(s))
	}
}

// hashEnumLimit bounds how many distinct values a range predicate may
// enumerate against a hash-backed secondary index before the planner
// prefers a full scan.
const hashEnumLimit = 1024

// QueryStats reports what a selection cost. BlocksRead is the paper's N
// (Section 5.3.3): the number of data blocks brought into memory. Blocks
// served by the decoded-block cache are counted in CacheHits instead, so
// N stays an I/O count; BlocksPruned counts blocks the executor skipped
// on their φ-fence alone.
type QueryStats struct {
	Strategy     Strategy
	BlocksRead   int
	CacheHits    int
	BlocksPruned int
	Matches      int
	// BatchBlocks counts blocks the executor decoded as φ slabs; SlabRows
	// is the total rows those slabs carried before predicate compaction.
	BatchBlocks int
	SlabRows    int
}

// queryRun is a planned read pass. Planning — predicate validation,
// access-path choice, index consultation — happens against the live
// table under its shared lock; runCtx executes against the pinned
// snapshot and needs no lock, so readers stream while writers mutate.
type queryRun struct {
	stats QueryStats
	plan  exec.Plan
	snap  *blockstore.Snapshot
	empty bool

	// op names the span recorded around the pass ("" records none); reg is
	// the table's registry, captured at plan time so run needs no table.
	op  string
	reg *obs.Registry
}

// runCtx executes the planned pass for a tuple result: the executor
// inverts only the qualifying rows, into tuples emit may retain. It
// releases the snapshot and folds the executor's accounting into
// QueryStats. The executor observes cancellation at block boundaries,
// before the next decode.
func (r queryRun) runCtx(ctx context.Context, emit func(relation.Tuple) bool) (QueryStats, error) {
	if r.empty {
		return r.stats, nil
	}
	var sp *obs.Span
	if r.op != "" {
		sp = r.reg.StartOp(r.op)
		defer sp.End()
	}
	defer r.snap.Release()
	es, err := exec.RunContext(ctx, r.snap, r.plan, emit)
	st := foldExecStats(r.stats, es)
	sp.Detailf("%s: %d blocks read, %d pruned, %d matches", st.Strategy, st.BlocksRead, st.BlocksPruned, st.Matches)
	return st, err
}

// runBatchCtx executes the planned pass for a kernel that consumes raw
// ordinals: kernel receives each block's already-filtered φ slab (stride
// Limbs().K, valid only for the duration of the call).
func (r queryRun) runBatchCtx(ctx context.Context, kernel func(phis []uint64) bool) (QueryStats, error) {
	if r.empty {
		return r.stats, nil
	}
	var sp *obs.Span
	if r.op != "" {
		sp = r.reg.StartOp(r.op)
		defer sp.End()
	}
	defer r.snap.Release()
	es, err := exec.RunBatch(ctx, r.snap, r.plan, kernel)
	st := foldExecStats(r.stats, es)
	sp.Detailf("%s: %d slabs, %d rows, %d pruned, %d matches",
		st.Strategy, st.BatchBlocks, st.SlabRows, st.BlocksPruned, st.Matches)
	return st, err
}

// foldExecStats copies the executor's accounting into QueryStats.
func foldExecStats(st QueryStats, es exec.Stats) QueryStats {
	st.BlocksRead = es.BlocksRead
	st.CacheHits = es.CacheHits
	st.BlocksPruned = es.BlocksPruned
	st.Matches = es.Matches
	st.BatchBlocks = es.BatchBlocks
	st.SlabRows = es.SlabRows
	return st
}

// SelectRangeContext executes the paper's evaluation query sigma_{lo <=
// A_attr <= hi}(R) (Section 5.3) and returns the matching tuples in phi
// order together with access statistics.
func (t *Table) SelectRangeContext(ctx context.Context, attr int, lo, hi uint64) ([]relation.Tuple, QueryStats, error) {
	var out []relation.Tuple
	stats, err := t.SelectRangeFuncContext(ctx, attr, lo, hi, func(tu relation.Tuple) bool {
		out = append(out, tu)
		return true
	})
	return out, stats, err
}

// SelectRangeFuncContext streams the matching tuples of
// sigma_{lo<=A_attr<=hi}(R) to emit in phi order without materializing
// them; emit returning false stops the query early. It is planned under
// the shared lock and executed lock-free against the pinned snapshot;
// cancellation is observed at block boundaries, before the next decode.
// The scatter-gather executor feeds per-shard merge channels through it.
func (t *Table) SelectRangeFuncContext(ctx context.Context, attr int, lo, hi uint64, emit func(relation.Tuple) bool) (QueryStats, error) {
	t.mu.RLock()
	r, err := t.planRange(attr, lo, hi)
	t.mu.RUnlock()
	if err != nil {
		return QueryStats{}, err
	}
	return r.runCtx(ctx, emit)
}

// planRange validates the predicate and picks the access path, as a real
// system would: predicates on the clustering prefix (attribute 0) bound a
// contiguous block range through the φ-fences; other attributes use their
// secondary index when one exists; otherwise the table is scanned.
func (t *Table) planRange(attr int, lo, hi uint64) (queryRun, error) {
	if attr < 0 || attr >= t.schema.NumAttrs() {
		return queryRun{}, fmt.Errorf("table: attribute %d out of range", attr)
	}
	if lo > hi || lo >= t.schema.Domain(attr).Size || t.size == 0 {
		return queryRun{empty: true}, nil
	}
	if hi >= t.schema.Domain(attr).Size {
		hi = t.schema.Domain(attr).Size - 1
	}
	r := queryRun{plan: exec.Plan{Preds: []exec.Pred{{Attr: attr, Lo: lo, Hi: hi}}}, op: "select", reg: t.opts.Obs}
	switch {
	case attr == 0:
		r.stats.Strategy = StrategyClustered
	default:
		r.stats.Strategy = StrategyFullScan
		if idx, ok := t.secondary[attr]; ok {
			if pages, ok := t.candidateBlocks(idx, attr, lo, hi); ok {
				r.stats.Strategy = StrategySecondary
				r.plan.Candidates = pages
			}
		}
	}
	r.snap = t.store.Snapshot()
	return r, nil
}

// planScan plans an unconditional pass over every block.
func (t *Table) planScan() queryRun {
	return queryRun{
		stats: QueryStats{Strategy: StrategyFullScan},
		snap:  t.store.Snapshot(),
		reg:   t.opts.Obs,
	}
}

// snapshot pins a store snapshot under the shared lock, for passes that
// need no plan (cursors, batch iterators, joins). Each call takes and
// drops the lock on its own, so a self-join pins its two sides under two
// separate, non-nested read locks: a writer queued between nested read
// locks would deadlock them.
func (t *Table) snapshot() *blockstore.Snapshot {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.store.Snapshot()
}

// candidateBlocks collects the distinct data blocks a secondary index maps
// the value range onto. For B+ tree indexes it enumerates the key range;
// for hash indexes it probes each value when the range is narrow enough,
// and reports !ok otherwise so the planner falls back to a scan.
func (t *Table) candidateBlocks(idx secIndex, attr int, lo, hi uint64) (map[storage.PageID]struct{}, bool) {
	pageSet := make(map[storage.PageID]struct{})
	from := t.schema.EncodeAttr(nil, attr, lo)
	var to []byte
	if hi+1 < t.schema.Domain(attr).Size {
		to = t.schema.EncodeAttr(nil, attr, hi+1)
	}
	collect := func(b *bucket) bool {
		for page := range b.pages {
			pageSet[page] = struct{}{}
		}
		return true
	}
	if idx.scanRange(from, to, collect) {
		return pageSet, true
	}
	// Hash backend: probe each value individually when feasible.
	if hi-lo+1 > hashEnumLimit {
		return nil, false
	}
	key := make([]byte, 0, t.schema.AttrWidth(attr))
	for v := lo; v <= hi; v++ {
		key = t.schema.EncodeAttr(key[:0], attr, v)
		if b, ok := idx.get(key); ok {
			collect(b)
		}
	}
	return pageSet, true
}

// SelectPointContext executes sigma_{A_attr = v}(R).
func (t *Table) SelectPointContext(ctx context.Context, attr int, v uint64) ([]relation.Tuple, QueryStats, error) {
	return t.SelectRangeContext(ctx, attr, v, v)
}

// CountRangeContext returns only the number of qualifying tuples, with
// the same access path and cost as SelectRangeContext but no
// materialization.
func (t *Table) CountRangeContext(ctx context.Context, attr int, lo, hi uint64) (int, QueryStats, error) {
	t.mu.RLock()
	r, err := t.planRange(attr, lo, hi)
	t.mu.RUnlock()
	if err != nil {
		return 0, QueryStats{}, err
	}
	// The executor counts qualifying rows as it compacts each slab, so the
	// kernel has nothing left to do.
	stats, err := r.runBatchCtx(ctx, func([]uint64) bool { return true })
	return stats.Matches, stats, err
}

// BlocksForValue returns the sorted data blocks a secondary index maps the
// value to, without reading them; nil when no index exists on attr. Tools
// use it to show bucket contents (Figure 4.5).
func (t *Table) BlocksForValue(attr int, v uint64) []storage.PageID {
	t.mu.RLock()
	defer t.mu.RUnlock()
	idx, ok := t.secondary[attr]
	if !ok {
		return nil
	}
	b, ok := idx.get(t.schema.EncodeAttr(nil, attr, v))
	if !ok {
		return nil
	}
	out := make([]storage.PageID, 0, len(b.pages))
	for page := range b.pages {
		out = append(out, page)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
