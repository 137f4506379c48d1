package exec

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/blockstore"
	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/relation"
	"repro/internal/storage"
)

func testSchema(t testing.TB) *relation.Schema {
	t.Helper()
	return relation.MustSchema(
		relation.Domain{Name: "dept", Size: 8},
		relation.Domain{Name: "job", Size: 16},
		relation.Domain{Name: "years", Size: 64},
		relation.Domain{Name: "empno", Size: 4096},
	)
}

// wideSchema is testSchema with a 2^62-value last attribute: the space
// is 2^75, so φ takes two limbs (attributes 0-2, then 3). Every tuple of
// randomTuples is valid in both schemas.
func wideSchema(t testing.TB) *relation.Schema {
	t.Helper()
	return relation.MustSchema(
		relation.Domain{Name: "dept", Size: 8},
		relation.Domain{Name: "job", Size: 16},
		relation.Domain{Name: "years", Size: 64},
		relation.Domain{Name: "empno", Size: 1 << 62},
	)
}

// schemas returns the one-limb and the two-limb test schema.
func schemas(t testing.TB) []*relation.Schema {
	return []*relation.Schema{testSchema(t), wideSchema(t)}
}

func newStore(t testing.TB, codec core.Codec, pageSize int) *blockstore.Store {
	t.Helper()
	return newStoreFor(t, testSchema(t), codec, pageSize)
}

func newStoreFor(t testing.TB, s *relation.Schema, codec core.Codec, pageSize int) *blockstore.Store {
	t.Helper()
	pager, err := storage.NewMemPager(pageSize)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := buffer.New(pager, nil, 64)
	if err != nil {
		t.Fatal(err)
	}
	store, err := blockstore.New(s, codec, pool)
	if err != nil {
		t.Fatal(err)
	}
	return store
}

func randomTuples(t testing.TB, n int, seed int64) []relation.Tuple {
	t.Helper()
	s := testSchema(t)
	rng := rand.New(rand.NewSource(seed))
	tuples := make([]relation.Tuple, n)
	for i := range tuples {
		tuples[i] = relation.Tuple{
			uint64(rng.Intn(8)), uint64(rng.Intn(16)),
			uint64(rng.Intn(64)), uint64(rng.Intn(4096)),
		}
	}
	s.SortTuples(tuples)
	return tuples
}

func allCodecs() []core.Codec {
	return []core.Codec{core.CodecRaw, core.CodecAVQ, core.CodecRepOnly, core.CodecDeltaChain, core.CodecPacked}
}

// naiveSelect is the decode-all-then-filter reference: every loaded
// tuple, linearly filtered by the conjunction.
func naiveSelect(tuples []relation.Tuple, preds []Pred) []relation.Tuple {
	var out []relation.Tuple
next:
	for _, tu := range tuples {
		for _, p := range preds {
			if tu[p.Attr] < p.Lo || tu[p.Attr] > p.Hi {
				continue next
			}
		}
		out = append(out, tu)
	}
	return out
}

func collect(t *testing.T, sn *blockstore.Snapshot, plan Plan) ([]relation.Tuple, Stats) {
	t.Helper()
	var out []relation.Tuple
	st, err := RunContext(context.Background(), sn, plan, func(tu relation.Tuple) bool {
		out = append(out, tu)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	return out, st
}

// TestRunMatchesNaive is the executor's differential test: on every
// codec and on a one-limb and a two-limb schema, for clustered bounds,
// non-clustering predicates, and conjunctions, Run must return exactly
// the tuples the decode-all-then-filter reference produces, in φ order.
func TestRunMatchesNaive(t *testing.T) {
	tuples := randomTuples(t, 1500, 21)
	plans := []Plan{
		{},
		{Preds: []Pred{{Attr: 0, Lo: 2, Hi: 5}}},
		{Preds: []Pred{{Attr: 0, Lo: 3, Hi: 3}}},
		{Preds: []Pred{{Attr: 0, Lo: 7, Hi: 7}}},
		{Preds: []Pred{{Attr: 0, Lo: 0, Hi: 0}}},
		{Preds: []Pred{{Attr: 2, Lo: 10, Hi: 40}}},
		{Preds: []Pred{{Attr: 0, Lo: 1, Hi: 6}, {Attr: 3, Lo: 100, Hi: 3000}}},
		{Preds: []Pred{{Attr: 1, Lo: 4, Hi: 9}, {Attr: 2, Lo: 0, Hi: 31}}},
	}
	for _, codec := range allCodecs() {
		t.Run(codec.String(), func(t *testing.T) {
			for _, s := range schemas(t) {
				store := newStoreFor(t, s, codec, 512)
				if _, err := store.BulkLoadContext(context.Background(), tuples); err != nil {
					t.Fatal(err)
				}
				sn := store.Snapshot()
				for pi, plan := range plans {
					want := naiveSelect(tuples, plan.Preds)
					got, st := collect(t, sn, plan)
					if len(got) != len(want) {
						t.Fatalf("%v plan %d: %d matches, want %d", s, pi, len(got), len(want))
					}
					for i := range got {
						if s.Compare(got[i], want[i]) != 0 {
							t.Fatalf("%v plan %d: tuple %d = %v, want %v", s, pi, i, got[i], want[i])
						}
					}
					if st.Matches != len(want) {
						t.Fatalf("%v plan %d: Matches=%d, want %d", s, pi, st.Matches, len(want))
					}
					if st.BlocksRead+st.CacheHits+st.BlocksPruned > st.BlocksTotal {
						t.Fatalf("%v plan %d: accounting exceeds total: %+v", s, pi, st)
					}
				}
				sn.Release()
			}
		})
	}
}

// TestRunPrunes: a selective clustered range must skip non-intersecting
// blocks on their fences alone, on one-limb and two-limb schemas.
func TestRunPrunes(t *testing.T) {
	tuples := randomTuples(t, 4000, 22)
	for _, s := range schemas(t) {
		store := newStoreFor(t, s, core.CodecAVQ, 512)
		if _, err := store.BulkLoadContext(context.Background(), tuples); err != nil {
			t.Fatal(err)
		}
		sn := store.Snapshot()
		got, st := collect(t, sn, Plan{Preds: []Pred{{Attr: 0, Lo: 3, Hi: 3}}})
		want := naiveSelect(tuples, []Pred{{Attr: 0, Lo: 3, Hi: 3}})
		if len(got) != len(want) {
			t.Fatalf("%v: %d matches, want %d", s, len(got), len(want))
		}
		if st.BlocksPruned == 0 {
			t.Fatalf("%v: no blocks pruned on a 1-of-8 clustered range: %+v", s, st)
		}
		if st.BlocksRead >= st.BlocksTotal {
			t.Fatalf("%v: pruning read every block: %+v", s, st)
		}
		if st.BlocksPruned+st.BlocksRead+st.CacheHits != st.BlocksTotal {
			t.Fatalf("%v: every block must be pruned or visited: %+v", s, st)
		}
		sn.Release()
	}
}

// TestRunCandidates: a candidate set must restrict reads to its blocks.
func TestRunCandidates(t *testing.T) {
	store := newStore(t, core.CodecAVQ, 512)
	tuples := randomTuples(t, 2000, 23)
	if _, err := store.BulkLoadContext(context.Background(), tuples); err != nil {
		t.Fatal(err)
	}
	sn := store.Snapshot()
	defer sn.Release()
	cand := map[storage.PageID]struct{}{
		sn.Block(0):                  {},
		sn.Block(sn.NumBlocks() / 2): {},
	}
	_, st := collect(t, sn, Plan{Preds: []Pred{{Attr: 2, Lo: 0, Hi: 63}}, Candidates: cand})
	if st.BlocksRead+st.CacheHits != len(cand) {
		t.Fatalf("read %d blocks for %d candidates", st.BlocksRead+st.CacheHits, len(cand))
	}
}

// TestRunEarlyStop: emit returning false must end the pass immediately.
func TestRunEarlyStop(t *testing.T) {
	ctx := context.Background()
	store := newStore(t, core.CodecAVQ, 512)
	if _, err := store.BulkLoadContext(ctx, randomTuples(t, 2000, 24)); err != nil {
		t.Fatal(err)
	}
	sn := store.Snapshot()
	defer sn.Release()
	seen := 0
	st, err := RunContext(ctx, sn, Plan{}, func(relation.Tuple) bool {
		seen++
		return seen < 5
	})
	if err != nil {
		t.Fatal(err)
	}
	if seen != 5 || st.Matches != 5 {
		t.Fatalf("early stop after %d tuples (Matches=%d)", seen, st.Matches)
	}
	if st.BatchBlocks != 1 {
		t.Fatalf("early stop decoded %d blocks", st.BatchBlocks)
	}
}

// TestRunSeesSnapshot: a pass over a snapshot taken before a mutation
// must return the pre-mutation contents.
func TestRunSeesSnapshot(t *testing.T) {
	s := testSchema(t)
	store := newStore(t, core.CodecAVQ, 512)
	tuples := randomTuples(t, 800, 26)
	if _, err := store.BulkLoadContext(context.Background(), tuples); err != nil {
		t.Fatal(err)
	}
	sn := store.Snapshot()
	defer sn.Release()
	extra := relation.Tuple{3, 3, 3, 3}
	if _, err := store.InsertIntoBlock(store.Blocks()[sn.NumBlocks()/2], extra); err != nil {
		t.Fatal(err)
	}
	got, _ := collect(t, sn, Plan{})
	if len(got) != len(tuples) {
		t.Fatalf("snapshot pass saw %d tuples, pre-mutation had %d", len(got), len(tuples))
	}
	for i := range got {
		if s.Compare(got[i], tuples[i]) != 0 {
			t.Fatalf("snapshot tuple %d mutated", i)
		}
	}
	// The live store sees the insert.
	live := store.Snapshot()
	defer live.Release()
	gotLive, _ := collect(t, live, Plan{})
	if len(gotLive) != len(tuples)+1 {
		t.Fatalf("live pass saw %d tuples, want %d", len(gotLive), len(tuples)+1)
	}
}
