package exec

import (
	"context"
	"errors"
	"testing"

	"repro/internal/blockstore"
	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/ordinal"
	"repro/internal/relation"
	"repro/internal/storage"
)

// phisOf computes the φ sequence of the tuple path's output, checking
// each ordinal against the big.Int reference along the way — the batch
// path's differential oracle.
func phisOf(t *testing.T, s *relation.Schema, tuples []relation.Tuple) []uint64 {
	t.Helper()
	out := make([]uint64, len(tuples))
	for i, tu := range tuples {
		out[i] = ordinal.PhiU64(s, tu)
		if big := ordinal.Phi(s, tu); !big.IsUint64() || big.Uint64() != out[i] {
			t.Fatalf("phi(%v) = %d disagrees with big.Int reference %v", tu, out[i], big)
		}
	}
	return out
}

// TestRunBatchMatchesRun pins the batch pass to the tuple path on every
// codec and plan shape: same snapshot, same plan, the concatenated slabs
// must be exactly the φ sequence of the tuples Run emits.
func TestRunBatchMatchesRun(t *testing.T) {
	ctx := context.Background()
	s := testSchema(t)
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
			store := newStore(t, codec, 512)
			if _, err := store.BulkLoadContext(ctx, tuples); err != nil {
				t.Fatal(err)
			}
			sn := store.Snapshot()
			defer sn.Release()
			for pi, plan := range plans {
				ref, _ := collect(t, sn, plan)
				want := phisOf(t, s, ref)
				var got []uint64
				st, err := RunBatch(ctx, sn, plan, func(phis []uint64) bool {
					got = append(got, phis...)
					return true
				})
				if err != nil {
					t.Fatalf("plan %d: %v", pi, err)
				}
				if len(got) != len(want) {
					t.Fatalf("plan %d: batch returned %d rows, tuple path %d", pi, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("plan %d: φ[%d] = %d, want %d", pi, i, got[i], want[i])
					}
				}
				if st.Matches != len(want) {
					t.Errorf("plan %d: Matches = %d, want %d", pi, st.Matches, len(want))
				}
				if len(want) > 0 && st.BatchBlocks == 0 {
					t.Errorf("plan %d: BatchBlocks = 0 on a matching pass", pi)
				}
				if st.SlabRows < len(want) {
					t.Errorf("plan %d: SlabRows = %d < %d matches", pi, st.SlabRows, len(want))
				}
			}
		})
	}
}

// TestRunBatchPrunesAndStops: fences must prune non-intersecting blocks
// exactly as the tuple path does, and a false-returning kernel must stop
// the pass after one slab.
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

// TestRunBatchNonFlat: a schema space beyond 64 bits must be refused with
// ErrNotFlat so callers fall back to the tuple path.
func TestRunBatchNonFlat(t *testing.T) {
	ctx := context.Background()
	wide := relation.MustSchema(
		relation.Domain{Name: "a", Size: 1 << 40},
		relation.Domain{Name: "b", Size: 1 << 40},
	)
	pager, err := storage.NewMemPager(512)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := buffer.New(pager, nil, 16)
	if err != nil {
		t.Fatal(err)
	}
	store, err := blockstore.New(wide, core.CodecAVQ, pool)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := store.BulkLoadContext(ctx, []relation.Tuple{{1, 2}, {3, 4}}); err != nil {
		t.Fatal(err)
	}
	sn := store.Snapshot()
	defer sn.Release()
	if _, err := RunBatch(ctx, sn, Plan{}, func([]uint64) bool { return true }); !errors.Is(err, ErrNotFlat) {
		t.Errorf("RunBatch on non-flat schema: err = %v, want ErrNotFlat", err)
	}
	if _, err := NewBatchIterator(ctx, store.Snapshot()); !errors.Is(err, ErrNotFlat) {
		t.Errorf("NewBatchIterator on non-flat schema: err = %v, want ErrNotFlat", err)
	}
}

// drainPhis collects every remaining ordinal from a PhiStream.
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

// TestBatchIteratorMatchesIterator: the slab stream's concatenation must
// be the tuple iterator's φ sequence, for every codec.
func TestBatchIteratorMatchesIterator(t *testing.T) {
	ctx := context.Background()
	s := testSchema(t)
	tuples := randomTuples(t, 2000, 77)
	for _, codec := range allCodecs() {
		t.Run(codec.String(), func(t *testing.T) {
			store := newStore(t, codec, 512)
			if _, err := store.BulkLoadContext(ctx, tuples); err != nil {
				t.Fatal(err)
			}
			want := phisOf(t, s, tuples)
			it, err := NewBatchIterator(ctx, store.Snapshot())
			if err != nil {
				t.Fatal(err)
			}
			defer it.Release()
			got := drainPhis(t, it)
			if len(got) != len(want) {
				t.Fatalf("stream returned %d ordinals, want %d", len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("φ[%d] = %d, want %d", i, got[i], want[i])
				}
			}
		})
	}
}

// TestBatchIteratorSeekPhi: after SeekPhi(target) the stream must still
// deliver every ordinal >= target (the first slab may carry a smaller
// prefix — consumers clip in-slab), and fence-known seeks must prune.
func TestBatchIteratorSeekPhi(t *testing.T) {
	ctx := context.Background()
	s := testSchema(t)
	tuples := randomTuples(t, 3000, 13)
	store := newStore(t, core.CodecAVQ, 512)
	if _, err := store.BulkLoadContext(ctx, tuples); err != nil {
		t.Fatal(err)
	}
	all := phisOf(t, s, tuples)
	for _, at := range []int{0, 1, len(all) / 3, len(all) / 2, len(all) - 1} {
		target := all[at]
		it, err := NewBatchIterator(ctx, store.Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		if err := it.SeekPhi(target); err != nil {
			t.Fatal(err)
		}
		got := drainPhis(t, it)
		var tail []uint64
		for _, phi := range got {
			if phi >= target {
				tail = append(tail, phi)
			}
		}
		// all is sorted; the expected tail starts at the first φ == target
		// (at itself may not be the first occurrence of a duplicate).
		first := 0
		for first < len(all) && all[first] < target {
			first++
		}
		wantTail := all[first:]
		if len(tail) != len(wantTail) {
			t.Fatalf("seek %d: %d ordinals >= target, want %d", target, len(tail), len(wantTail))
		}
		for i := range tail {
			if tail[i] != wantTail[i] {
				t.Fatalf("seek %d: φ[%d] = %d, want %d", target, i, tail[i], wantTail[i])
			}
		}
		if at > len(all)/3 && it.Stats.BlocksPruned == 0 {
			t.Errorf("seek to position %d pruned no blocks", at)
		}
		it.Release()
	}

	// Seeking past the end terminates the stream.
	it, err := NewBatchIterator(ctx, store.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	defer it.Release()
	if err := it.SeekPhi(all[len(all)-1] + 1); err != nil {
		t.Fatal(err)
	}
	if got := drainPhis(t, it); len(got) != 0 {
		t.Errorf("seek past end returned %d ordinals", len(got))
	}
}

// TestChainPhiStreams emulates φ-range shards: two stores holding
// disjoint attribute-0 ranges, chained, must stream as one table — and a
// seek raised in the first shard's range must carry into the second.
func TestChainPhiStreams(t *testing.T) {
	ctx := context.Background()
	s := testSchema(t)
	tuples := randomTuples(t, 2000, 5)
	var low, high []relation.Tuple
	for _, tu := range tuples {
		if tu[0] < 4 {
			low = append(low, tu)
		} else {
			high = append(high, tu)
		}
	}
	storeA, storeB := newStore(t, core.CodecAVQ, 512), newStore(t, core.CodecAVQ, 512)
	if _, err := storeA.BulkLoadContext(ctx, low); err != nil {
		t.Fatal(err)
	}
	if _, err := storeB.BulkLoadContext(ctx, high); err != nil {
		t.Fatal(err)
	}
	itA, err := NewBatchIterator(ctx, storeA.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	defer itA.Release()
	itB, err := NewBatchIterator(ctx, storeB.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	defer itB.Release()

	chain := ChainPhiStreams(itA, itB)
	w, _ := s.FlatWeights()
	target := 5 * w[0] // inside the second store's range
	if err := chain.SeekPhi(target); err != nil {
		t.Fatal(err)
	}
	got := drainPhis(t, chain)
	var want []uint64
	for _, phi := range phisOf(t, s, tuples) {
		if phi >= target {
			want = append(want, phi)
		}
	}
	var kept []uint64
	for _, phi := range got {
		if phi >= target {
			kept = append(kept, phi)
		}
	}
	if len(kept) != len(want) {
		t.Fatalf("chained seek kept %d ordinals, want %d", len(kept), len(want))
	}
	for i := range kept {
		if kept[i] != want[i] {
			t.Fatalf("φ[%d] = %d, want %d", i, kept[i], want[i])
		}
	}
	// The high-water seek must have pruned within the second shard too.
	if itB.Stats.BlocksPruned == 0 {
		t.Error("seek into the second shard's range pruned none of its blocks")
	}
}

// TestMergeJoinPhis pins the φ-space merge join to a nested-loop
// reference on the attribute-0 key, for every codec pair combination of
// interest (same codec both sides is representative; the streams are
// codec-blind once decoded).
func TestMergeJoinPhis(t *testing.T) {
	ctx := context.Background()
	s := testSchema(t)
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
			ls, rs := newStore(t, codec, 512), newStore(t, codec, 512)
			if _, err := ls.BulkLoadContext(ctx, left); err != nil {
				t.Fatal(err)
			}
			if _, err := rs.BulkLoadContext(ctx, right); err != nil {
				t.Fatal(err)
			}
			li, err := NewBatchIterator(ctx, ls.Snapshot())
			if err != nil {
				t.Fatal(err)
			}
			defer li.Release()
			ri, err := NewBatchIterator(ctx, rs.Snapshot())
			if err != nil {
				t.Fatal(err)
			}
			defer ri.Release()
			w, _ := s.FlatWeights()
			gotPairs := map[uint64]int{}
			err = MergeJoinPhis(li, ri, w[0], w[0], func(key uint64, lg, rg []uint64) bool {
				for _, phi := range lg {
					if phi/w[0] != key {
						t.Fatalf("left group for key %d holds φ %d (key %d)", key, phi, phi/w[0])
					}
				}
				for _, phi := range rg {
					if phi/w[0] != key {
						t.Fatalf("right group for key %d holds φ %d (key %d)", key, phi, phi/w[0])
					}
				}
				if _, dup := gotPairs[key]; dup {
					t.Fatalf("key %d emitted twice", key)
				}
				gotPairs[key] = len(lg) * len(rg)
				return true
			})
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
		})
	}
}

// TestMergeJoinPhisEdgeCases: an empty side joins to nothing, and a
// false-returning emit stops after one group.
func TestMergeJoinPhisEdgeCases(t *testing.T) {
	ctx := context.Background()
	s := testSchema(t)
	w, _ := s.FlatWeights()
	full := newStore(t, core.CodecAVQ, 512)
	if _, err := full.BulkLoadContext(ctx, randomTuples(t, 500, 3)); err != nil {
		t.Fatal(err)
	}
	empty := newStore(t, core.CodecAVQ, 512)

	fi, err := NewBatchIterator(ctx, full.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	defer fi.Release()
	ei, err := NewBatchIterator(ctx, empty.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	defer ei.Release()
	calls := 0
	if err := MergeJoinPhis(fi, ei, w[0], w[0], func(uint64, []uint64, []uint64) bool {
		calls++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if calls != 0 {
		t.Errorf("join against empty stream emitted %d groups", calls)
	}

	ai, err := NewBatchIterator(ctx, full.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	defer ai.Release()
	bi, err := NewBatchIterator(ctx, full.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	defer bi.Release()
	calls = 0
	if err := MergeJoinPhis(ai, bi, w[0], w[0], func(uint64, []uint64, []uint64) bool {
		calls++
		return false
	}); err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Errorf("early-stopped join emitted %d groups, want 1", calls)
	}
}

// TestBatchIteratorZeroAllocSteadyState holds the batch read to the same
// guarantee as the decode kernels: with the decoded-block cache warm (the
// Horner fold path) and the pooled arena sized, NextPhis performs zero
// heap allocations per block.
func TestBatchIteratorZeroAllocSteadyState(t *testing.T) {
	ctx := context.Background()
	store := newStore(t, core.CodecAVQ, 512)
	store.Configure(blockstore.Config{CacheBlocks: 512})
	if _, err := store.BulkLoadContext(ctx, randomTuples(t, 6000, 91)); err != nil {
		t.Fatal(err)
	}
	// Warm the decoded-block cache via the tuple path (batch misses do not
	// populate it) and size the pooled arena with one full batch drain.
	sn := store.Snapshot()
	if _, err := RunContext(ctx, sn, Plan{Transient: true}, func(relation.Tuple) bool { return true }); err != nil {
		t.Fatal(err)
	}
	sn.Release()
	warm, err := NewBatchIterator(ctx, store.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	drainPhis(t, warm)
	warm.Release()

	it, err := NewBatchIterator(ctx, store.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	defer it.Release()
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
		t.Errorf("NextPhis allocates %.1f objects/block steady-state, want 0", allocs)
	}
	if it.Stats.CacheHits == 0 {
		t.Error("measurement window never hit the decoded-block cache")
	}
}

// TestRunBatchAllocsBounded mirrors TestTransientPassAllocs for the batch
// pass: O(1) bookkeeping per pass, nothing per block or per row.
func TestRunBatchAllocsBounded(t *testing.T) {
	ctx := context.Background()
	store := newStore(t, core.CodecAVQ, 512)
	if _, err := store.BulkLoadContext(ctx, randomTuples(t, 3000, 35)); err != nil {
		t.Fatal(err)
	}
	sn := store.Snapshot()
	defer sn.Release()
	plan := Plan{Preds: []Pred{{Attr: 0, Lo: 1, Hi: 6}}}
	kernel := func([]uint64) bool { return true }
	run := func() {
		if _, err := RunBatch(ctx, sn, plan, kernel); err != nil {
			t.Fatal(err)
		}
	}
	run()
	allocs := testing.AllocsPerRun(50, run)
	if allocs > 16 {
		t.Errorf("batch pass allocates %.1f objects/op over %d blocks; want O(1)", allocs, sn.NumBlocks())
	}
}
