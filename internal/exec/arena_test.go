package exec

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/relation"
)

// TestTransientMatchesNonTransient is the arena-policy differential: a
// Transient pass (pooled arena, Reset per block) must stream exactly the
// same tuple values as the default pass, for every codec and plan shape.
func TestTransientMatchesNonTransient(t *testing.T) {
	ctx := context.Background()
	tuples := randomTuples(t, 1200, 33)
	plans := []Plan{
		{},
		{Preds: []Pred{{Attr: 0, Lo: 2, Hi: 5}}},
		{Preds: []Pred{{Attr: 0, Lo: 3, Hi: 3}}},
		{Preds: []Pred{{Attr: 2, Lo: 10, Hi: 40}}},
		{Preds: []Pred{{Attr: 0, Lo: 1, Hi: 6}, {Attr: 3, Lo: 100, Hi: 3000}}},
		{Preds: []Pred{{Attr: 0, Lo: 2, Hi: 5}}, NoPartial: true},
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
				want, wantStats := collect(t, sn, plan)
				tp := plan
				tp.Transient = true
				// Fold values instead of retaining tuples: the transient
				// contract.
				var gotSums []uint64
				st, err := RunContext(ctx, sn, tp, func(tu relation.Tuple) bool {
					var sum uint64
					for _, v := range tu {
						sum = sum*31 + v
					}
					gotSums = append(gotSums, sum)
					return true
				})
				if err != nil {
					t.Fatalf("plan %d: transient run: %v", pi, err)
				}
				if len(gotSums) != len(want) {
					t.Fatalf("plan %d: transient emitted %d tuples, want %d", pi, len(gotSums), len(want))
				}
				for i, tu := range want {
					var sum uint64
					for _, v := range tu {
						sum = sum*31 + v
					}
					if gotSums[i] != sum {
						t.Fatalf("plan %d: tuple %d differs under transient pass", pi, i)
					}
				}
				if st.Matches != wantStats.Matches {
					t.Fatalf("plan %d: transient Matches = %d, want %d", pi, st.Matches, wantStats.Matches)
				}
			}
		})
	}
}

// TestTransientStats checks the new accounting: a multi-block transient
// pass reuses its pooled arena, and a straddling clustered bound on a
// flat schema takes the flat-ordinal span path.
func TestTransientStats(t *testing.T) {
	ctx := context.Background()
	tuples := randomTuples(t, 1500, 34)
	store := newStore(t, core.CodecAVQ, 512)
	if _, err := store.BulkLoadContext(ctx, tuples); err != nil {
		t.Fatal(err)
	}
	sn := store.Snapshot()
	defer sn.Release()

	st, err := RunContext(ctx, sn, Plan{Transient: true}, func(relation.Tuple) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	if st.FullDecodes < 2 {
		t.Skipf("need >= 2 blocks for reuse accounting, got %d", st.FullDecodes)
	}
	if st.ArenaReuses < st.FullDecodes-1 {
		t.Errorf("ArenaReuses = %d over %d blocks; pooled arena not reused", st.ArenaReuses, st.FullDecodes)
	}
	if st.SlabBytes == 0 {
		t.Error("SlabBytes = 0 after a decoding pass")
	}

	// A clustered bound that straddles block boundaries must use the flat
	// path (the test schema's space fits a uint64).
	if _, ok := sn.Schema().FlatWeights(); !ok {
		t.Fatal("test schema unexpectedly non-flat")
	}
	st, err = RunContext(ctx, sn, Plan{Preds: []Pred{{Attr: 0, Lo: 2, Hi: 5}}}, func(relation.Tuple) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	if st.PartialDecodes > 0 && st.FlatPathHits != st.PartialDecodes {
		t.Errorf("FlatPathHits = %d, PartialDecodes = %d; flat schema should route every partial through PhiSpan",
			st.FlatPathHits, st.PartialDecodes)
	}
	if st.PartialDecodes == 0 {
		t.Log("no straddling blocks in this layout; flat path not exercised")
	}
}

// TestTransientPassAllocs bounds the per-pass allocation count of a
// transient pass: independent of block count, since every block reuses
// the pooled arena and the stream buffer.
func TestTransientPassAllocs(t *testing.T) {
	ctx := context.Background()
	tuples := randomTuples(t, 3000, 35)
	store := newStore(t, core.CodecAVQ, 512)
	if _, err := store.BulkLoadContext(ctx, tuples); err != nil {
		t.Fatal(err)
	}
	sn := store.Snapshot()
	defer sn.Release()
	plan := Plan{Preds: []Pred{{Attr: 0, Lo: 1, Hi: 6}}, Transient: true}
	run := func() {
		if _, err := RunContext(ctx, sn, plan, func(relation.Tuple) bool { return true }); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm the arena pool and size its slabs
	allocs := testing.AllocsPerRun(50, run)
	// The pass allocates O(1) bookkeeping (pass struct, bound split,
	// stream buffer on first use) but nothing per block or per tuple.
	if allocs > 16 {
		t.Errorf("transient pass allocates %.1f objects/op over %d blocks; want O(1)", allocs, sn.NumBlocks())
	}
}
