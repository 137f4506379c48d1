// Package exec is the streaming executor: the single read path behind
// every table-level query (scans, range and point selections, aggregates,
// group-by, cursors, and joins). It walks a blockstore snapshot in
// clustered order, prunes blocks whose φ-fence cannot intersect the
// predicate — the paper's localized-access claim (Sections 3.4 and 5)
// realized as an engine instead of per-query block loops — and decodes
// each surviving block into a φ slab: one row of the schema's limbs
// (relation.Limbs) per tuple. Predicates are digit arithmetic on those
// limbs, qualifying rows are compacted in place, and a row becomes a
// relation.Tuple (φ⁻¹ per limb) only when it reaches a tuple result.
//
// The executor never touches the live store: it operates on a pinned
// blockstore.Snapshot, so a pass keeps streaming its pre-mutation view
// while writers rewrite blocks underneath it.
package exec

import (
	"context"

	"repro/internal/blockstore"
	"repro/internal/core"
	"repro/internal/ordinal"
	"repro/internal/relation"
	"repro/internal/storage"
)

// Pred is one conjunct of a selection, lo <= A_attr <= hi. The planner
// validates the attribute and clamps hi to the domain before building a
// Plan; the executor applies predicates verbatim.
type Pred struct {
	Attr   int
	Lo, Hi uint64
}

// Plan describes one streaming pass over a snapshot.
type Plan struct {
	// Preds is the conjunction every emitted row must satisfy. A
	// predicate on attribute 0 (the clustering prefix) additionally bounds
	// the pass: φ-fences prune non-intersecting blocks, and each slab is
	// clipped to the bound by binary search on limb 0.
	Preds []Pred
	// Candidates, when non-nil, restricts the pass to the listed blocks —
	// the secondary-index prefilter. Nil means every block is a candidate.
	Candidates map[storage.PageID]struct{}
}

// Stats reports what a pass cost. BlocksRead counts pages actually
// fetched and decoded; cache hits are reported separately so the paper's
// N (Section 5.3.3) stays an I/O count.
type Stats struct {
	// BlocksTotal is the number of blocks in the snapshot.
	BlocksTotal int
	// BlocksPruned counts candidate blocks skipped on their φ-fence alone,
	// without touching the pager.
	BlocksPruned int
	// BlocksRead counts blocks fetched from the pool (page reads).
	BlocksRead int
	// CacheHits counts blocks served by the decoded-block cache instead
	// of a page read.
	CacheHits int
	// Matches counts rows that satisfied the plan.
	Matches int
	// ArenaReuses counts blocks decoded into an arena whose slab capacity
	// was carried over from an earlier block.
	ArenaReuses int
	// SlabBytes is the final footprint of the pooled arena backing the
	// pass.
	SlabBytes int
	// BatchBlocks counts blocks decoded (from a page or the cache) into φ
	// slabs; SlabRows is the total rows those slabs carried before
	// predicate compaction.
	BatchBlocks int
	SlabRows    int
}

// boundOf splits the plan's conjunction into the clustering bound (the
// first predicate on attribute 0, if any) and the rest. Only attribute 0
// is monotone in clustered order, so only it can prune blocks by fence.
func boundOf(preds []Pred) (bound *Pred, rest []Pred) {
	for i := range preds {
		if preds[i].Attr == 0 && bound == nil {
			bound = &preds[i]
			continue
		}
		rest = append(rest, preds[i])
	}
	return bound, rest
}

// countCandidates counts candidate blocks in positions [from, n): the
// blocks a fence break skips without visiting.
func countCandidates(sn *blockstore.Snapshot, cand map[storage.PageID]struct{}, from, n int) int {
	if cand == nil {
		return n - from
	}
	c := 0
	for i := from; i < n; i++ {
		if _, ok := cand[sn.Block(i)]; ok {
			c++
		}
	}
	return c
}

// foldStats adds a pass's counters into the store's pre-resolved exec
// instruments: one atomic add per counter, no locks, nothing when the
// store has no registry.
func foldStats(sn *blockstore.Snapshot, st Stats) {
	m := sn.Metrics()
	if m == nil {
		return
	}
	m.BlocksRead.Add(int64(st.BlocksRead))
	m.BlocksPruned.Add(int64(st.BlocksPruned))
	m.CacheHits.Add(int64(st.CacheHits))
	m.Rows.Add(int64(st.Matches))
	m.ArenaReuses.Add(int64(st.ArenaReuses))
	m.SlabBytes.Add(int64(st.SlabBytes))
	m.BatchBlocks.Add(int64(st.BatchBlocks))
	m.SlabRows.Add(int64(st.SlabRows))
}

// RunBatch streams the snapshot's qualifying rows to kernel as per-block
// φ slabs (stride Limbs().K), in φ order. Each slab holds exactly the
// rows matching plan.Preds — the clustering bound clips by binary search
// on limb 0, residual conjuncts compact the slab in place — and is valid
// only until kernel returns: the backing arena is reset for the next
// block, so a kernel must copy anything it keeps. kernel returning false
// stops the pass early. Cancellation is checked at every block boundary,
// before the next decode. On return (any path) the pass's Stats fold into
// the snapshot's ExecMetrics; they are valid on error too.
func RunBatch(ctx context.Context, sn *blockstore.Snapshot, plan Plan, kernel func(phis []uint64) bool) (Stats, error) {
	st, err := runBatch(ctx, sn, plan, kernel)
	foldStats(sn, st)
	return st, err
}

// batchPred is one residual conjunct compiled to digit arithmetic, with
// the extraction strength-reduced at plan time.
type batchPred struct {
	dig    core.DigitExtractor
	lo, hi uint64
}

func runBatch(ctx context.Context, sn *blockstore.Snapshot, plan Plan, kernel func(phis []uint64) bool) (st Stats, err error) {
	st.BlocksTotal = sn.NumBlocks()
	s := sn.Schema()
	l := s.Limbs()
	k := l.K
	bound, rest := boundOf(plan.Preds)
	var loPhi, hiPhi uint64
	if bound != nil {
		// The clustering bound [lo, hi] on attribute 0 is the limb-0
		// interval [lo*w0, hi*w0 + (w0-1)] whatever the other digits are.
		// Clamp hi to the domain first so the products stay below the
		// limb's radix; a range starting past the domain matches nothing.
		w0 := l.Weight[0]
		hi := bound.Hi
		if limit := l.Size[0] - 1; hi > limit {
			hi = limit
		}
		if bound.Lo > hi {
			st.BlocksPruned = countCandidates(sn, plan.Candidates, 0, sn.NumBlocks())
			return st, nil
		}
		loPhi, hiPhi = bound.Lo*w0, hi*w0+(w0-1)
	}
	residual := make([]batchPred, len(rest))
	for i, p := range rest {
		residual[i] = batchPred{dig: core.NewDigitExtractor(s, p.Attr), lo: p.Lo, hi: p.Hi}
	}

	a := core.GetArena()
	defer core.PutArena(a)
	defer func() { st.SlabBytes += a.SlabBytes() }()
	n := sn.NumBlocks()
	for i := 0; i < n; i++ {
		if err := ctx.Err(); err != nil {
			return st, err
		}
		if plan.Candidates != nil {
			if _, ok := plan.Candidates[sn.Block(i)]; !ok {
				continue
			}
		}
		f := sn.Fence(i)
		known := f.Known()
		if bound != nil && known {
			// Blocks are clustered and non-overlapping: once a block starts
			// beyond the range, every later block does too.
			if f.First[0] > bound.Hi {
				st.BlocksPruned += countCandidates(sn, plan.Candidates, i, n)
				return st, nil
			}
			if f.Last[0] < bound.Lo {
				st.BlocksPruned++
				continue
			}
		}
		if a.SlabBytes() > 0 {
			st.ArenaReuses++
		}
		a.Reset()
		phis, hit, err := sn.ReadPhis(i, a)
		if err != nil {
			return st, err
		}
		if hit {
			st.CacheHits++
		} else {
			st.BlocksRead++
		}
		st.BatchBlocks++
		st.SlabRows += len(phis) / k
		if bound != nil {
			if len(phis) > 0 && phis[0] > hiPhi {
				// Only reachable with an unknown fence; nothing here or later
				// qualifies (blocks are clustered).
				return st, nil
			}
			from, to := core.SlabSpan(phis, k, loPhi, hiPhi)
			phis = phis[from*k : to*k]
		}
		if len(residual) > 0 {
			keep := 0
		rows:
			for r := 0; r < len(phis); r += k {
				for _, p := range residual {
					if d := p.dig.Digit(phis[r+p.dig.Limb]); d < p.lo || d > p.hi {
						continue rows
					}
				}
				copy(phis[keep:keep+k], phis[r:r+k])
				keep += k
			}
			phis = phis[:keep]
		}
		st.Matches += len(phis) / k
		if len(phis) > 0 && !kernel(phis) {
			return st, nil
		}
		if bound != nil && known && f.Last[0] > bound.Hi {
			// The range ends inside this block; the remainder is prunable.
			st.BlocksPruned += countCandidates(sn, plan.Candidates, i+1, n)
			return st, nil
		}
	}
	return st, nil
}

// RunContext is RunBatch for tuple results: it streams the snapshot's
// rows matching the plan to emit as tuples, in φ order. Only rows that
// pass every predicate are inverted from their limbs, each block's into
// one fresh allocation, so emitted tuples are safe to retain. emit
// returning false stops the pass early; Matches then counts the rows
// emitted up to the stop.
func RunContext(ctx context.Context, sn *blockstore.Snapshot, plan Plan, emit func(relation.Tuple) bool) (Stats, error) {
	s := sn.Schema()
	n, k := s.NumAttrs(), s.Limbs().K
	var err error
	emitted := 0
	st, rerr := runBatch(ctx, sn, plan, func(phis []uint64) bool {
		rows := len(phis) / k
		vals := make([]uint64, rows*n)
		for r := 0; r < rows; r++ {
			tu := relation.Tuple(vals[r*n : (r+1)*n : (r+1)*n])
			if _, err = ordinal.PhiInverseLimbs(s, tu, phis[r*k:(r+1)*k]); err != nil {
				return false
			}
			emitted++
			if !emit(tu) {
				return false
			}
		}
		return true
	})
	st.Matches = emitted
	foldStats(sn, st)
	if rerr != nil {
		return st, rerr
	}
	return st, err
}
