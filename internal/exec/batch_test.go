package exec

import (
	"context"
	"testing"

	"repro/internal/blockstore"
	"repro/internal/core"
	"repro/internal/ordinal"
	"repro/internal/relation"
)

// phisOf computes the stride-K φ slab of tuples, checking each row
// against the big.Int reference along the way — the slab differential's
// oracle.
func phisOf(t *testing.T, s *relation.Schema, tuples []relation.Tuple) []uint64 {
	t.Helper()
	l := s.Limbs()
	out := make([]uint64, 0, len(tuples)*l.K)
	for _, tu := range tuples {
		row := ordinal.PhiLimbs(s, make([]uint64, l.K), tu)
		back, err := ordinal.PhiInverse(s, ordinal.Phi(s, tu))
		if err != nil || s.Compare(back, tu) != 0 {
			t.Fatalf("phi(%v) does not round-trip through the big.Int reference", tu)
		}
		inv, err := ordinal.PhiInverseLimbs(s, make(relation.Tuple, s.NumAttrs()), row)
		if err != nil || s.Compare(inv, tu) != 0 {
			t.Fatalf("limbs %v of %v invert to %v (%v)", row, tu, inv, err)
		}
		out = append(out, row...)
	}
	return out
}

// sameSlab fails the test unless got and want hold the same rows.
func sameSlab(t *testing.T, what string, got, want []uint64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d words, want %d", what, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: word %d = %d, want %d", what, i, got[i], want[i])
		}
	}
}

// TestRunBatchMatchesRun pins the slab pass to the tuple pass and to the
// decode-all oracle on every codec, plan shape, and limb count: same
// snapshot, same plan, the concatenated slabs must be exactly the limb
// form of the tuples Run emits.
func TestRunBatchMatchesRun(t *testing.T) {
	ctx := context.Background()
	tuples := randomTuples(t, 1500, 21)
	plans := []Plan{
		{},
		{Preds: []Pred{{Attr: 0, Lo: 2, Hi: 5}}},
		{Preds: []Pred{{Attr: 0, Lo: 3, Hi: 3}}},
		{Preds: []Pred{{Attr: 0, Lo: 0, Hi: 0}}},
		{Preds: []Pred{{Attr: 2, Lo: 10, Hi: 40}}},
		{Preds: []Pred{{Attr: 0, Lo: 1, Hi: 6}, {Attr: 3, Lo: 100, Hi: 3000}}},
		{Preds: []Pred{{Attr: 1, Lo: 4, Hi: 9}, {Attr: 2, Lo: 0, Hi: 31}}},
		{Preds: []Pred{{Attr: 0, Lo: 7, Hi: 20}}},
	}
	for _, codec := range allCodecs() {
		t.Run(codec.String(), func(t *testing.T) {
			for _, s := range schemas(t) {
				store := newStoreFor(t, s, codec, 512)
				if _, err := store.BulkLoadContext(ctx, tuples); err != nil {
					t.Fatal(err)
				}
				sn := store.Snapshot()
				for pi, plan := range plans {
					ref, _ := collect(t, sn, plan)
					want := phisOf(t, s, naiveSelect(tuples, plan.Preds))
					sameSlab(t, "tuple pass", phisOf(t, s, ref), want)
					var got []uint64
					st, err := RunBatch(ctx, sn, plan, func(phis []uint64) bool {
						got = append(got, phis...)
						return true
					})
					if err != nil {
						t.Fatalf("plan %d: %v", pi, err)
					}
					sameSlab(t, "slab pass", got, want)
					if st.Matches != len(ref) {
						t.Errorf("plan %d: Matches = %d, want %d", pi, st.Matches, len(ref))
					}
					if len(ref) > 0 && st.BatchBlocks == 0 {
						t.Errorf("plan %d: BatchBlocks = 0 on a matching pass", pi)
					}
					if st.SlabRows < len(ref) {
						t.Errorf("plan %d: SlabRows = %d < %d matches", pi, st.SlabRows, len(ref))
					}
				}
				sn.Release()
			}
		})
	}
}

// TestRunBatchPrunesAndStops: fences must prune non-intersecting blocks,
// and a false-returning kernel must stop the pass after one slab.
func TestRunBatchPrunesAndStops(t *testing.T) {
	ctx := context.Background()
	store := newStore(t, core.CodecAVQ, 512)
	if _, err := store.BulkLoadContext(ctx, randomTuples(t, 3000, 7)); err != nil {
		t.Fatal(err)
	}
	sn := store.Snapshot()
	defer sn.Release()

	plan := Plan{Preds: []Pred{{Attr: 0, Lo: 3, Hi: 3}}}
	st, err := RunBatch(ctx, sn, plan, func([]uint64) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	if st.BlocksPruned == 0 {
		t.Error("narrow bound pruned no blocks")
	}
	if st.BlocksPruned+st.BatchBlocks != st.BlocksTotal {
		t.Errorf("pruned %d + visited %d != total %d", st.BlocksPruned, st.BatchBlocks, st.BlocksTotal)
	}

	st, err = RunBatch(ctx, sn, Plan{}, func([]uint64) bool { return false })
	if err != nil {
		t.Fatal(err)
	}
	if st.BatchBlocks != 1 {
		t.Errorf("early-stopped pass visited %d blocks, want 1", st.BatchBlocks)
	}
}

// TestRunBatchNonFlat: a schema whose space exceeds 64 bits — here two
// 40-bit attributes, one limb each — runs through the same slab pass,
// with clustering bounds and residual predicates on either limb.
func TestRunBatchNonFlat(t *testing.T) {
	ctx := context.Background()
	wide := relation.MustSchema(
		relation.Domain{Name: "a", Size: 1 << 40},
		relation.Domain{Name: "b", Size: 1 << 40},
	)
	tuples := []relation.Tuple{{1, 2}, {1, 1<<40 - 1}, {3, 4}, {1 << 39, 0}, {1<<40 - 1, 1<<40 - 1}}
	store := newStoreFor(t, wide, core.CodecAVQ, 512)
	if _, err := store.BulkLoadContext(ctx, tuples); err != nil {
		t.Fatal(err)
	}
	sn := store.Snapshot()
	defer sn.Release()
	for _, plan := range []Plan{
		{},
		{Preds: []Pred{{Attr: 0, Lo: 1, Hi: 3}}},
		{Preds: []Pred{{Attr: 1, Lo: 4, Hi: 1<<40 - 1}}},
		{Preds: []Pred{{Attr: 0, Lo: 2, Hi: 1<<40 - 1}, {Attr: 1, Lo: 0, Hi: 4}}},
	} {
		var got []uint64
		if _, err := RunBatch(ctx, sn, plan, func(phis []uint64) bool {
			got = append(got, phis...)
			return true
		}); err != nil {
			t.Fatal(err)
		}
		sameSlab(t, "non-flat slab pass", got, phisOf(t, wide, naiveSelect(tuples, plan.Preds)))
	}
}

// drainPhis collects every remaining word from a PhiStream.
func drainPhis(t *testing.T, ps PhiStream) []uint64 {
	t.Helper()
	var out []uint64
	for {
		phis, err := ps.NextPhis()
		if err != nil {
			t.Fatal(err)
		}
		if phis == nil {
			return out
		}
		out = append(out, phis...)
	}
}

// iterateBlocks is the reference iterator: every block of the snapshot
// decoded to tuples, in clustered order.
func iterateBlocks(t *testing.T, sn *blockstore.Snapshot) []relation.Tuple {
	t.Helper()
	var out []relation.Tuple
	for i := 0; i < sn.NumBlocks(); i++ {
		ts, _, err := sn.ReadBlock(i)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, ts...)
	}
	return out
}

// TestBatchIteratorMatchesIterator: the slab stream's concatenation must
// be the limb form of the reference block iterator's tuples, for every
// codec and limb count.
func TestBatchIteratorMatchesIterator(t *testing.T) {
	ctx := context.Background()
	tuples := randomTuples(t, 2000, 77)
	for _, codec := range allCodecs() {
		t.Run(codec.String(), func(t *testing.T) {
			for _, s := range schemas(t) {
				store := newStoreFor(t, s, codec, 512)
				if _, err := store.BulkLoadContext(ctx, tuples); err != nil {
					t.Fatal(err)
				}
				sn := store.Snapshot()
				want := phisOf(t, s, iterateBlocks(t, sn))
				sameSlab(t, "reference iterator", want, phisOf(t, s, tuples))
				it := NewBatchIterator(ctx, sn)
				sameSlab(t, "slab stream", drainPhis(t, it), want)
				it.Release()
			}
		})
	}
}

// headsAtLeast keeps the rows of a stride-k slab whose limb 0 is >=
// target.
func headsAtLeast(phis []uint64, k int, target uint64) []uint64 {
	var out []uint64
	for r := 0; r < len(phis); r += k {
		if phis[r] >= target {
			out = append(out, phis[r:r+k]...)
		}
	}
	return out
}

// TestBatchIteratorSeekPhi: after SeekPhi(target) the stream must still
// deliver every row whose limb 0 is >= target (the first slab may carry
// a smaller prefix — consumers clip in-slab), and fence-known seeks must
// prune.
func TestBatchIteratorSeekPhi(t *testing.T) {
	ctx := context.Background()
	tuples := randomTuples(t, 3000, 13)
	for _, s := range schemas(t) {
		k := s.Limbs().K
		store := newStoreFor(t, s, core.CodecAVQ, 512)
		if _, err := store.BulkLoadContext(ctx, tuples); err != nil {
			t.Fatal(err)
		}
		all := phisOf(t, s, tuples)
		rows := len(all) / k
		for _, at := range []int{0, 1, rows / 3, rows / 2, rows - 1} {
			target := all[at*k]
			it := NewBatchIterator(ctx, store.Snapshot())
			if err := it.SeekPhi(target); err != nil {
				t.Fatal(err)
			}
			sameSlab(t, "seek tail", headsAtLeast(drainPhis(t, it), k, target), headsAtLeast(all, k, target))
			if at > rows/3 && it.Stats.BlocksPruned == 0 {
				t.Errorf("%v: seek to row %d pruned no blocks", s, at)
			}
			it.Release()
		}

		// Seeking past the end terminates the stream.
		it := NewBatchIterator(ctx, store.Snapshot())
		if err := it.SeekPhi(all[(rows-1)*k] + 1); err != nil {
			t.Fatal(err)
		}
		if got := drainPhis(t, it); len(got) != 0 {
			t.Errorf("%v: seek past end returned %d words", s, len(got))
		}
		it.Release()
	}
}

// TestChainPhiStreams emulates φ-range shards: two stores holding
// disjoint attribute-0 ranges, chained, must stream as one table — and a
// seek raised in the first shard's range must carry into the second.
func TestChainPhiStreams(t *testing.T) {
	ctx := context.Background()
	tuples := randomTuples(t, 2000, 5)
	var low, high []relation.Tuple
	for _, tu := range tuples {
		if tu[0] < 4 {
			low = append(low, tu)
		} else {
			high = append(high, tu)
		}
	}
	for _, s := range schemas(t) {
		l := s.Limbs()
		storeA, storeB := newStoreFor(t, s, core.CodecAVQ, 512), newStoreFor(t, s, core.CodecAVQ, 512)
		if _, err := storeA.BulkLoadContext(ctx, low); err != nil {
			t.Fatal(err)
		}
		if _, err := storeB.BulkLoadContext(ctx, high); err != nil {
			t.Fatal(err)
		}
		itA := NewBatchIterator(ctx, storeA.Snapshot())
		itB := NewBatchIterator(ctx, storeB.Snapshot())
		chain := ChainPhiStreams(itA, itB)
		target := 5 * l.Weight[0] // inside the second store's range
		if err := chain.SeekPhi(target); err != nil {
			t.Fatal(err)
		}
		got := headsAtLeast(drainPhis(t, chain), l.K, target)
		sameSlab(t, "chained seek", got, headsAtLeast(phisOf(t, s, tuples), l.K, target))
		// The high-water seek must have pruned within the second shard too.
		if itB.Stats.BlocksPruned == 0 {
			t.Errorf("%v: seek into the second shard's range pruned none of its blocks", s)
		}
		itA.Release()
		itB.Release()
	}
}

// TestMergeJoinPhis pins the φ-space merge join to a nested-loop
// reference on the attribute-0 key, for every codec (same codec both
// sides is representative; the streams are codec-blind once decoded), on
// a one-limb and a two-limb schema — including a join across the two.
func TestMergeJoinPhis(t *testing.T) {
	ctx := context.Background()
	left := randomTuples(t, 900, 31)
	right := randomTuples(t, 700, 32)
	// Reference: pairs per key.
	wantPairs := map[uint64]int{}
	leftPer, rightPer := map[uint64]int{}, map[uint64]int{}
	for _, tu := range left {
		leftPer[tu[0]]++
	}
	for _, tu := range right {
		rightPer[tu[0]]++
	}
	for k, nl := range leftPer {
		if nr := rightPer[k]; nr > 0 {
			wantPairs[k] = nl * nr
		}
	}
	for _, codec := range allCodecs() {
		t.Run(codec.String(), func(t *testing.T) {
			for _, pair := range [][2]*relation.Schema{
				{testSchema(t), testSchema(t)},
				{wideSchema(t), wideSchema(t)},
				{testSchema(t), wideSchema(t)},
			} {
				lsch, rsch := pair[0], pair[1]
				ls, rs := newStoreFor(t, lsch, codec, 512), newStoreFor(t, rsch, codec, 512)
				if _, err := ls.BulkLoadContext(ctx, left); err != nil {
					t.Fatal(err)
				}
				if _, err := rs.BulkLoadContext(ctx, right); err != nil {
					t.Fatal(err)
				}
				li := NewBatchIterator(ctx, ls.Snapshot())
				ri := NewBatchIterator(ctx, rs.Snapshot())
				keysOK := func(s *relation.Schema, key uint64, g []uint64) {
					l := s.Limbs()
					for r := 0; r < len(g); r += l.K {
						if g[r]/l.Weight[0] != key {
							t.Fatalf("group for key %d holds row %v", key, g[r:r+l.K])
						}
					}
				}
				gotPairs := map[uint64]int{}
				err := MergeJoinPhis(li, ri, lsch, rsch, func(key uint64, lg, rg []uint64) bool {
					keysOK(lsch, key, lg)
					keysOK(rsch, key, rg)
					if _, dup := gotPairs[key]; dup {
						t.Fatalf("key %d emitted twice", key)
					}
					gotPairs[key] = len(lg) / lsch.Limbs().K * (len(rg) / rsch.Limbs().K)
					return true
				})
				li.Release()
				ri.Release()
				if err != nil {
					t.Fatal(err)
				}
				if len(gotPairs) != len(wantPairs) {
					t.Fatalf("join emitted %d keys, want %d", len(gotPairs), len(wantPairs))
				}
				for k, n := range wantPairs {
					if gotPairs[k] != n {
						t.Errorf("key %d: %d pairs, want %d", k, gotPairs[k], n)
					}
				}
			}
		})
	}
}

// TestMergeJoinPhisEdgeCases: an empty side joins to nothing, and a
// false-returning emit stops after one group.
func TestMergeJoinPhisEdgeCases(t *testing.T) {
	ctx := context.Background()
	s := testSchema(t)
	full := newStore(t, core.CodecAVQ, 512)
	if _, err := full.BulkLoadContext(ctx, randomTuples(t, 500, 3)); err != nil {
		t.Fatal(err)
	}
	empty := newStore(t, core.CodecAVQ, 512)

	fi := NewBatchIterator(ctx, full.Snapshot())
	defer fi.Release()
	ei := NewBatchIterator(ctx, empty.Snapshot())
	defer ei.Release()
	calls := 0
	if err := MergeJoinPhis(fi, ei, s, s, func(uint64, []uint64, []uint64) bool {
		calls++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if calls != 0 {
		t.Errorf("join against empty stream emitted %d groups", calls)
	}

	ai := NewBatchIterator(ctx, full.Snapshot())
	defer ai.Release()
	bi := NewBatchIterator(ctx, full.Snapshot())
	defer bi.Release()
	calls = 0
	if err := MergeJoinPhis(ai, bi, s, s, func(uint64, []uint64, []uint64) bool {
		calls++
		return false
	}); err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Errorf("early-stopped join emitted %d groups, want 1", calls)
	}
}

// TestBatchIteratorZeroAllocSteadyState holds the slab read to the same
// guarantee as the decode kernels: with the decoded-block cache warm and
// the pooled arena sized, NextPhis performs zero heap allocations per
// block, on a one-limb and a two-limb schema.
func TestBatchIteratorZeroAllocSteadyState(t *testing.T) {
	ctx := context.Background()
	for _, s := range schemas(t) {
		store := newStoreFor(t, s, core.CodecAVQ, 512)
		store.Configure(blockstore.Config{CacheBlocks: 1024})
		if _, err := store.BulkLoadContext(ctx, randomTuples(t, 6000, 91)); err != nil {
			t.Fatal(err)
		}
		// One full drain fills the decoded-block cache (slab misses populate
		// it) and sizes the pooled arena.
		warm := NewBatchIterator(ctx, store.Snapshot())
		drainPhis(t, warm)
		warm.Release()

		it := NewBatchIterator(ctx, store.Snapshot())
		blocks := it.Stats.BlocksTotal
		const runs = 20
		if blocks < runs+3 {
			t.Fatalf("layout has only %d blocks; need > %d for a steady-state window", blocks, runs+3)
		}
		if _, err := it.NextPhis(); err != nil { // first fill outside the window
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(runs, func() {
			phis, err := it.NextPhis()
			if err != nil {
				t.Fatal(err)
			}
			if phis == nil {
				t.Fatal("stream ended inside the measurement window")
			}
		})
		if allocs != 0 {
			t.Errorf("%v: NextPhis allocates %.1f objects/block steady-state, want 0", s, allocs)
		}
		if it.Stats.CacheHits == 0 {
			t.Errorf("%v: measurement window never hit the decoded-block cache", s)
		}
		it.Release()
	}
}

// TestRunBatchAllocsBounded: a slab pass does O(1) bookkeeping, nothing
// per block or per row.
func TestRunBatchAllocsBounded(t *testing.T) {
	ctx := context.Background()
	for _, s := range schemas(t) {
		store := newStoreFor(t, s, core.CodecAVQ, 512)
		if _, err := store.BulkLoadContext(ctx, randomTuples(t, 3000, 35)); err != nil {
			t.Fatal(err)
		}
		sn := store.Snapshot()
		plan := Plan{Preds: []Pred{{Attr: 0, Lo: 1, Hi: 6}, {Attr: 3, Lo: 5, Hi: 4000}}}
		kernel := func([]uint64) bool { return true }
		run := func() {
			if _, err := RunBatch(ctx, sn, plan, kernel); err != nil {
				t.Fatal(err)
			}
		}
		run()
		allocs := testing.AllocsPerRun(50, run)
		if allocs > 16 {
			t.Errorf("%v: slab pass allocates %.1f objects/op over %d blocks; want O(1)", s, allocs, sn.NumBlocks())
		}
		sn.Release()
	}
}
