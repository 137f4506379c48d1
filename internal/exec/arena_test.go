package exec

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/relation"
)

// rowHash folds a row's attribute values; both sides of an arena-policy
// comparison hash the same way.
func rowHash(vals func(i int) uint64, n int) uint64 {
	var sum uint64
	for i := 0; i < n; i++ {
		sum = sum*31 + vals(i)
	}
	return sum
}

// TestTransientMatchesNonTransient is the arena-policy differential: the
// executor decodes every block into one pooled arena that is Reset
// between blocks, so a kernel reading slabs transiently (folding values
// during the call) and a consumer retaining the tuples RunContext emits
// (reading them after the pass, once the arena has been recycled) must
// see exactly the same rows, for every codec, plan shape, and limb count.
func TestTransientMatchesNonTransient(t *testing.T) {
	ctx := context.Background()
	tuples := randomTuples(t, 1200, 33)
	plans := []Plan{
		{},
		{Preds: []Pred{{Attr: 0, Lo: 2, Hi: 5}}},
		{Preds: []Pred{{Attr: 0, Lo: 3, Hi: 3}}},
		{Preds: []Pred{{Attr: 2, Lo: 10, Hi: 40}}},
		{Preds: []Pred{{Attr: 0, Lo: 1, Hi: 6}, {Attr: 3, Lo: 100, Hi: 3000}}},
	}
	for _, codec := range allCodecs() {
		t.Run(codec.String(), func(t *testing.T) {
			for _, s := range schemas(t) {
				store := newStoreFor(t, s, codec, 512)
				if _, err := store.BulkLoadContext(ctx, tuples); err != nil {
					t.Fatal(err)
				}
				sn := store.Snapshot()
				n, k := s.NumAttrs(), s.Limbs().K
				digs := make([]core.DigitExtractor, n)
				for i := range digs {
					digs[i] = core.NewDigitExtractor(s, i)
				}
				for pi, plan := range plans {
					retained, _ := collect(t, sn, plan)
					var folded []uint64
					st, err := RunBatch(ctx, sn, plan, func(phis []uint64) bool {
						for r := 0; r < len(phis); r += k {
							folded = append(folded, rowHash(func(i int) uint64 {
								return digs[i].Digit(phis[r+digs[i].Limb])
							}, n))
						}
						return true
					})
					if err != nil {
						t.Fatalf("%v plan %d: %v", s, pi, err)
					}
					if len(folded) != len(retained) || st.Matches != len(retained) {
						t.Fatalf("%v plan %d: slab pass saw %d rows (Matches %d), retained %d", s, pi, len(folded), st.Matches, len(retained))
					}
					for i, tu := range retained {
						if folded[i] != rowHash(func(j int) uint64 { return tu[j] }, n) {
							t.Fatalf("%v plan %d: row %d differs between slab and retained tuple", s, pi, i)
						}
					}
				}
				sn.Release()
			}
		})
	}
}

// TestTransientStats checks the pooled-arena accounting of a multi-block
// pass: every block after the first reuses the arena's slab, and the
// pass reports the arena's footprint.
func TestTransientStats(t *testing.T) {
	ctx := context.Background()
	tuples := randomTuples(t, 1500, 34)
	for _, s := range schemas(t) {
		store := newStoreFor(t, s, core.CodecAVQ, 512)
		if _, err := store.BulkLoadContext(ctx, tuples); err != nil {
			t.Fatal(err)
		}
		sn := store.Snapshot()
		st, err := RunContext(ctx, sn, Plan{}, func(relation.Tuple) bool { return true })
		if err != nil {
			t.Fatal(err)
		}
		if st.BatchBlocks < 2 {
			t.Fatalf("%v: need >= 2 blocks for reuse accounting, got %d", s, st.BatchBlocks)
		}
		if st.ArenaReuses < st.BatchBlocks-1 {
			t.Errorf("%v: ArenaReuses = %d over %d blocks; pooled arena not reused", s, st.ArenaReuses, st.BatchBlocks)
		}
		if st.SlabBytes == 0 {
			t.Errorf("%v: SlabBytes = 0 after a decoding pass", s)
		}
		if st.SlabRows != len(tuples) {
			t.Errorf("%v: SlabRows %d over %d rows", s, st.SlabRows, len(tuples))
		}
		sn.Release()
	}
}

// TestTransientPassAllocs bounds what a tuple-result pass allocates: the
// slab decode reuses the pooled arena, and the qualifying rows of each
// block are inverted into one fresh allocation — nothing per row.
func TestTransientPassAllocs(t *testing.T) {
	ctx := context.Background()
	tuples := randomTuples(t, 3000, 35)
	for _, s := range schemas(t) {
		store := newStoreFor(t, s, core.CodecAVQ, 512)
		if _, err := store.BulkLoadContext(ctx, tuples); err != nil {
			t.Fatal(err)
		}
		sn := store.Snapshot()
		plan := Plan{Preds: []Pred{{Attr: 0, Lo: 1, Hi: 6}}}
		var st Stats
		run := func() {
			var err error
			if st, err = RunContext(ctx, sn, plan, func(relation.Tuple) bool { return true }); err != nil {
				t.Fatal(err)
			}
		}
		run() // warm the arena pool and size its slabs
		allocs := testing.AllocsPerRun(50, run)
		if limit := float64(st.BatchBlocks + 16); allocs > limit {
			t.Errorf("%v: tuple pass allocates %.1f objects/op for %d rows over %d blocks; want <= %.0f",
				s, allocs, st.Matches, st.BatchBlocks, limit)
		}
		sn.Release()
	}
}
