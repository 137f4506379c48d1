// Package exec is the streaming executor: the single read path behind
// every table-level query (scans, range and point selections, aggregates,
// group-by, cursors, and joins). It walks a blockstore snapshot in
// clustered order, prunes blocks whose φ-fence cannot intersect the
// predicate, and partially decodes blocks that only straddle the range
// boundary — the paper's localized-access claim (Sections 3.4 and 5)
// realized as an engine instead of per-query block loops.
//
// The executor never touches the live store: it operates on a pinned
// blockstore.Snapshot, so a pass keeps streaming its pre-mutation view
// while writers rewrite blocks underneath it.
package exec

import (
	"context"

	"repro/internal/blockstore"
	"repro/internal/core"
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

// matches reports whether tu satisfies the predicate.
func (p Pred) matches(tu relation.Tuple) bool {
	return tu[p.Attr] >= p.Lo && tu[p.Attr] <= p.Hi
}

// Plan describes one streaming pass over a snapshot.
type Plan struct {
	// Preds is the conjunction every emitted tuple must satisfy. A
	// predicate on attribute 0 (the clustering prefix) additionally bounds
	// the pass: φ-fences prune non-intersecting blocks, and blocks that
	// straddle the range boundary are decoded partially.
	Preds []Pred
	// Candidates, when non-nil, restricts the pass to the listed blocks —
	// the secondary-index prefilter. Nil means every block is a candidate.
	Candidates map[storage.PageID]struct{}
	// NoPartial forces full block decodes even on straddling blocks; the
	// differential tests use it to pit the two decode paths against each
	// other.
	NoPartial bool
	// Transient declares that emit never retains a tuple (or sub-slice of
	// one) past the call: the executor then decodes every block into one
	// pooled arena that is Reset between blocks, making the steady-state
	// pass allocation-free. Aggregation-style passes (count, sum, group
	// keys copied out) set it; materializing selections must not.
	Transient bool
}

// Stats reports what a pass cost. BlocksRead counts pages actually
// fetched (full or partial decode); cache hits are reported separately so
// the paper's N (Section 5.3.3) stays an I/O count.
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
	// PartialDecodes counts blocks where only the qualifying span was
	// decoded; FullDecodes counts whole-block decodes.
	PartialDecodes int
	FullDecodes    int
	// Matches counts tuples passed to emit.
	Matches int
	// ArenaReuses counts blocks decoded into an arena whose slab capacity
	// was carried over from an earlier block (Transient passes only).
	ArenaReuses int
	// SlabBytes is the arena slab capacity backing the pass: the pooled
	// arena's final footprint for Transient passes, the sum of per-block
	// arena footprints otherwise.
	SlabBytes int
	// FlatPathHits counts straddling blocks whose span was located by the
	// flat-ordinal (single-uint64 φ) walk instead of chain-probe search.
	FlatPathHits int
	// BatchBlocks counts blocks the columnar batch path decoded as whole
	// φ-ordinal slabs; SlabRows is the total rows those slabs carried
	// before predicate compaction.
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

// RunContext streams the snapshot's tuples matching the plan to emit, in
// φ order. emit returning false stops the pass early. The returned Stats
// are valid on error too, reflecting the work done up to it.
// Cancellation is checked at every block boundary — before the next
// decode — so an aborted pass returns promptly with no frames pinned; the
// partial Stats describe the work done up to the abort. On return (any path) the pass's Stats are folded
// into the snapshot's ExecMetrics when the store carries a registry.
func RunContext(ctx context.Context, sn *blockstore.Snapshot, plan Plan, emit func(relation.Tuple) bool) (Stats, error) {
	st, err := runContext(ctx, sn, plan, emit)
	foldStats(sn, st)
	return st, err
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
	m.PartialDecodes.Add(int64(st.PartialDecodes))
	m.FullDecodes.Add(int64(st.FullDecodes))
	m.Rows.Add(int64(st.Matches))
	if m.ArenaReuses != nil {
		m.ArenaReuses.Add(int64(st.ArenaReuses))
		m.SlabBytes.Add(int64(st.SlabBytes))
		m.FlatHits.Add(int64(st.FlatPathHits))
	}
	if m.BatchBlocks != nil {
		m.BatchBlocks.Add(int64(st.BatchBlocks))
		m.SlabRows.Add(int64(st.SlabRows))
	}
}

// pass carries one streaming pass's per-block scratch: the stats being
// accumulated, the pooled arena for Transient plans, and the reusable
// stream buffer the partial path reads coded blocks into.
type pass struct {
	sn        *blockstore.Snapshot
	st        Stats
	pooled    *core.Arena // non-nil iff the plan is Transient
	streamBuf []byte      // partial path: coded-stream copy, reused per block
}

// arena returns the arena the next block decodes into: the pooled one,
// Reset (its slab capacity surviving), for Transient plans; a fresh arena
// otherwise, since the caller may retain the emitted tuples indefinitely.
func (p *pass) arena() *core.Arena {
	if p.pooled != nil {
		if p.pooled.SlabBytes() > 0 {
			p.st.ArenaReuses++
		}
		p.pooled.Reset()
		return p.pooled
	}
	return core.NewArena()
}

func runContext(ctx context.Context, sn *blockstore.Snapshot, plan Plan, emit func(relation.Tuple) bool) (Stats, error) {
	p := &pass{sn: sn, st: Stats{BlocksTotal: sn.NumBlocks()}}
	if plan.Transient {
		p.pooled = core.GetArena()
		defer core.PutArena(p.pooled)
	}
	err := p.run(ctx, plan, emit)
	if p.pooled != nil {
		p.st.SlabBytes += p.pooled.SlabBytes()
	}
	return p.st, err
}

func (p *pass) run(ctx context.Context, plan Plan, emit func(relation.Tuple) bool) error {
	sn, st := p.sn, &p.st
	bound, rest := boundOf(plan.Preds)
	// Packed blocks have no per-tuple chain entry points worth walking; a
	// span decode degenerates to a full decode, so skip the partial path.
	partialOK := !plan.NoPartial && sn.Codec() != core.CodecPacked
	n := sn.NumBlocks()
	for i := 0; i < n; i++ {
		if err := ctx.Err(); err != nil {
			return err
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
				return nil
			}
			if f.Last[0] < bound.Lo {
				st.BlocksPruned++
				continue
			}
		}
		straddle := bound != nil && known &&
			(f.First[0] < bound.Lo || f.Last[0] > bound.Hi)
		var stop bool
		var err error
		if straddle && partialOK {
			stop, err = p.runPartial(i, *bound, rest, emit)
		} else {
			stop, err = p.runFull(i, plan.Preds, bound, emit)
		}
		if err != nil {
			return err
		}
		if stop {
			return nil
		}
		if bound != nil && known && f.Last[0] > bound.Hi {
			// The range ends inside this block; the remainder is prunable.
			st.BlocksPruned += countCandidates(sn, plan.Candidates, i+1, n)
			return nil
		}
	}
	return nil
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

// runPartial decodes only the qualifying span of a straddling block. On a
// flat schema the span boundaries come from one ordinal-space walk
// (core.PhiSpan): the block's φ sequence is scanned as plain uint64s, so
// the bound is evaluated before any tuple is materialized. Otherwise
// binary search on the clustering attribute finds the boundaries with
// O(log u) partial-decode probes. Either way one span decode then
// materializes exactly the qualifying run; tuples in the span satisfy the
// bound by construction and only the residual conjuncts filter.
func (p *pass) runPartial(i int, bound Pred, rest []Pred, emit func(relation.Tuple) bool) (stop bool, err error) {
	sn, st := p.sn, &p.st
	stream, err := sn.ReadStreamInto(i, p.streamBuf[:0])
	if err != nil {
		return false, err
	}
	p.streamBuf = stream
	st.BlocksRead++
	st.PartialDecodes++
	s := sn.Schema()
	a := p.arena()
	var start, end int
	if w, ok := s.FlatWeights(); ok {
		// The clustering bound [lo, hi] on attribute 0 is exactly the φ
		// interval [lo*w0, hi*w0 + (w0-1)]: every tuple with A_0 in range
		// lands there regardless of its remaining digits. Clamp hi to the
		// domain first so the products stay inside the (64-bit) space.
		hi := bound.Hi
		if limit := s.Domain(0).Size - 1; hi > limit {
			hi = limit
		}
		start, end, err = core.PhiSpan(s, stream, bound.Lo*w[0], hi*w[0]+(w[0]-1), a)
		if err != nil {
			return false, err
		}
		st.FlatPathHits++
	} else {
		start, err = core.SearchBlockArena(s, stream, func(tu relation.Tuple) bool { return tu[0] >= bound.Lo }, a)
		if err != nil {
			return false, err
		}
		end, err = core.SearchBlockArena(s, stream, func(tu relation.Tuple) bool { return tu[0] > bound.Hi }, a)
		if err != nil {
			return false, err
		}
	}
	if start >= end {
		return false, nil
	}
	span, err := core.DecodeTupleSpanArena(s, stream, start, end, a)
	if err != nil {
		return false, err
	}
	if p.pooled == nil {
		st.SlabBytes += a.SlabBytes()
	}
	for _, tu := range span {
		if !matchesAll(rest, tu) {
			continue
		}
		st.Matches++
		if !emit(tu) {
			return true, nil
		}
	}
	return false, nil
}

// runFull decodes the whole block (through the decoded-block cache) and
// filters every conjunct. With an unknown fence it also applies the
// clustered stop rule: a block starting beyond the bound ends the pass.
func (p *pass) runFull(i int, preds []Pred, bound *Pred, emit func(relation.Tuple) bool) (stop bool, err error) {
	sn, st := p.sn, &p.st
	a := p.arena()
	tuples, hit, err := sn.ReadBlockArena(i, a)
	if err != nil {
		return false, err
	}
	if hit {
		st.CacheHits++
	} else {
		st.BlocksRead++
	}
	st.FullDecodes++
	if p.pooled == nil {
		st.SlabBytes += a.SlabBytes()
	}
	if bound != nil && len(tuples) > 0 && tuples[0][0] > bound.Hi {
		// Only reachable with an unknown fence; nothing here qualifies and
		// neither does anything later.
		return true, nil
	}
	for _, tu := range tuples {
		if !matchesAll(preds, tu) {
			continue
		}
		st.Matches++
		if !emit(tu) {
			return true, nil
		}
	}
	return false, nil
}

// matchesAll reports whether tu satisfies every conjunct.
func matchesAll(preds []Pred, tu relation.Tuple) bool {
	for _, p := range preds {
		if !p.matches(tu) {
			return false
		}
	}
	return true
}
