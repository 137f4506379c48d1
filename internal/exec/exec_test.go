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

func newStore(t testing.TB, codec core.Codec, pageSize int) *blockstore.Store {
	t.Helper()
	pager, err := storage.NewMemPager(pageSize)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := buffer.New(pager, nil, 64)
	if err != nil {
		t.Fatal(err)
	}
	s, err := blockstore.New(testSchema(t), codec, pool)
	if err != nil {
		t.Fatal(err)
	}
	return s
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

// naiveSelect is the reference: full decode of every block, linear filter.
func naiveSelect(tuples []relation.Tuple, preds []Pred) []relation.Tuple {
	var out []relation.Tuple
	for _, tu := range tuples {
		if matchesAll(preds, tu) {
			out = append(out, tu)
		}
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
// codec, for clustered bounds, non-clustering predicates, conjunctions,
// and both decode paths, Run must return exactly the tuples a full
// decode-and-filter reference produces, in φ order.
func TestRunMatchesNaive(t *testing.T) {
	s := testSchema(t)
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
			store := newStore(t, codec, 512)
			if _, err := store.BulkLoadContext(context.Background(), tuples); err != nil {
				t.Fatal(err)
			}
			sn := store.Snapshot()
			defer sn.Release()
			for pi, plan := range plans {
				want := naiveSelect(tuples, plan.Preds)
				for _, noPartial := range []bool{false, true} {
					plan.NoPartial = noPartial
					got, st := collect(t, sn, plan)
					if len(got) != len(want) {
						t.Fatalf("plan %d noPartial=%v: %d matches, want %d", pi, noPartial, len(got), len(want))
					}
					for i := range got {
						if s.Compare(got[i], want[i]) != 0 {
							t.Fatalf("plan %d noPartial=%v: tuple %d = %v, want %v", pi, noPartial, i, got[i], want[i])
						}
					}
					if st.Matches != len(want) {
						t.Fatalf("plan %d: Matches=%d, want %d", pi, st.Matches, len(want))
					}
					if st.BlocksRead+st.CacheHits+st.BlocksPruned > st.BlocksTotal {
						t.Fatalf("plan %d: accounting exceeds total: %+v", pi, st)
					}
				}
			}
		})
	}
}

// TestRunPrunesAndPartialDecodes: a selective clustered range must skip
// non-intersecting blocks on their fences alone and decode boundary
// blocks partially.
func TestRunPrunesAndPartialDecodes(t *testing.T) {
	store := newStore(t, core.CodecAVQ, 512)
	tuples := randomTuples(t, 4000, 22)
	if _, err := store.BulkLoadContext(context.Background(), tuples); err != nil {
		t.Fatal(err)
	}
	sn := store.Snapshot()
	defer sn.Release()
	got, st := collect(t, sn, Plan{Preds: []Pred{{Attr: 0, Lo: 3, Hi: 3}}})
	want := naiveSelect(tuples, []Pred{{Attr: 0, Lo: 3, Hi: 3}})
	if len(got) != len(want) {
		t.Fatalf("%d matches, want %d", len(got), len(want))
	}
	if st.BlocksPruned == 0 {
		t.Fatalf("no blocks pruned on a 1-of-8 clustered range: %+v", st)
	}
	if st.PartialDecodes == 0 {
		t.Fatalf("no partial decodes on a straddling range: %+v", st)
	}
	if st.BlocksRead >= st.BlocksTotal {
		t.Fatalf("pruning read every block: %+v", st)
	}
	if st.BlocksPruned+st.BlocksRead+st.CacheHits != st.BlocksTotal {
		t.Fatalf("every block must be pruned or visited: %+v", st)
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
	if st.FullDecodes != 1 {
		t.Fatalf("early stop decoded %d blocks", st.FullDecodes)
	}
}

// TestIteratorSeekAndNext: the iterator must stream every tuple in φ
// order and Seek must land on the first tuple >= target, finding the
// block by fence binary search without reading the skipped prefix.
func TestIteratorSeekAndNext(t *testing.T) {
	ctx := context.Background()
	s := testSchema(t)
	tuples := randomTuples(t, 1500, 25)
	for _, codec := range allCodecs() {
		store := newStore(t, codec, 512)
		if _, err := store.BulkLoadContext(ctx, tuples); err != nil {
			t.Fatal(err)
		}
		sn := store.Snapshot()
		it := NewIteratorContext(ctx, sn)
		for i := 0; ; i++ {
			tu, ok, err := it.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				if i != len(tuples) {
					t.Fatalf("%v: iterator ended after %d of %d", codec, i, len(tuples))
				}
				break
			}
			if s.Compare(tu, tuples[i]) != 0 {
				t.Fatalf("%v: tuple %d = %v, want %v", codec, i, tu, tuples[i])
			}
		}
		// Seek to a mid-table target.
		target := tuples[len(tuples)*3/4]
		before := it.Stats.BlocksRead + it.Stats.CacheHits
		if err := it.Seek(target); err != nil {
			t.Fatal(err)
		}
		visited := it.Stats.BlocksRead + it.Stats.CacheHits - before
		if visited != 1 {
			t.Fatalf("%v: seek visited %d blocks, want 1", codec, visited)
		}
		tu, ok, err := it.Next()
		if err != nil || !ok {
			t.Fatalf("%v: seek/next: ok=%v err=%v", codec, ok, err)
		}
		if s.Compare(tu, target) < 0 {
			t.Fatalf("%v: seek landed below target", codec)
		}
		// Seek beyond everything.
		top := relation.Tuple{7, 15, 63, 4095}
		if s.Compare(tuples[len(tuples)-1], top) < 0 {
			if err := it.Seek(top); err != nil {
				t.Fatal(err)
			}
			if _, ok, _ := it.Next(); ok {
				t.Fatalf("%v: seek past the end still yields tuples", codec)
			}
		}
		sn.Release()
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
