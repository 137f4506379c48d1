package blockstore

import (
	"context"
	"math/rand"
	"testing"

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
		relation.Domain{Name: "hours", Size: 64},
		relation.Domain{Name: "empno", Size: 4096},
	)
}

func newStore(t testing.TB, codec core.Codec, pageSize int) *Store {
	t.Helper()
	pager, err := storage.NewMemPager(pageSize)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := buffer.New(pager, nil, 64)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(testSchema(t), codec, pool)
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
			uint64(rng.Intn(64)), uint64(rng.Intn(64)), uint64(rng.Intn(4096)),
		}
	}
	s.SortTuples(tuples)
	return tuples
}

func allCodecs() []core.Codec {
	return []core.Codec{core.CodecRaw, core.CodecAVQ, core.CodecRepOnly, core.CodecDeltaChain, core.CodecPacked}
}

func TestBulkLoadRoundTrip(t *testing.T) {
	ctx := context.Background()
	for _, codec := range allCodecs() {
		t.Run(codec.String(), func(t *testing.T) {
			s := newStore(t, codec, 512)
			tuples := randomTuples(t, 1000, 1)
			refs, err := s.BulkLoadContext(ctx, tuples)
			if err != nil {
				t.Fatal(err)
			}
			if len(refs) != s.NumBlocks() {
				t.Fatalf("%d refs for %d blocks", len(refs), s.NumBlocks())
			}
			if err := s.Check(); err != nil {
				t.Fatal(err)
			}
			var got []relation.Tuple
			if err := s.ScanBlocksContext(ctx, func(id storage.PageID, ts []relation.Tuple) bool {
				got = append(got, ts...)
				return true
			}); err != nil {
				t.Fatal(err)
			}
			if len(got) != len(tuples) {
				t.Fatalf("scanned %d tuples, loaded %d", len(got), len(tuples))
			}
			sch := s.Schema()
			for i := range got {
				if sch.Compare(got[i], tuples[i]) != 0 {
					t.Fatalf("tuple %d mismatch: %v vs %v", i, got[i], tuples[i])
				}
			}
			// Every ref's First must equal its block's first tuple.
			for _, ref := range refs {
				blk, err := s.ReadBlock(ref.Page)
				if err != nil {
					t.Fatal(err)
				}
				if sch.Compare(blk[0], ref.First) != 0 || len(blk) != ref.Count {
					t.Fatalf("ref %v does not describe its block", ref)
				}
			}
		})
	}
}

func TestBulkLoadRejectsUnsorted(t *testing.T) {
	s := newStore(t, core.CodecAVQ, 512)
	tuples := randomTuples(t, 10, 2)
	tuples[0], tuples[9] = tuples[9], tuples[0]
	if _, err := s.BulkLoadContext(context.Background(), tuples); err == nil {
		t.Fatal("unsorted bulk load accepted")
	}
}

func TestBulkLoadRejectsNonEmpty(t *testing.T) {
	ctx := context.Background()
	s := newStore(t, core.CodecAVQ, 512)
	tuples := randomTuples(t, 50, 3)
	if _, err := s.BulkLoadContext(ctx, tuples); err != nil {
		t.Fatal(err)
	}
	if _, err := s.BulkLoadContext(ctx, tuples); err == nil {
		t.Fatal("second bulk load accepted")
	}
}

func TestAVQUsesFewerBlocksThanRaw(t *testing.T) {
	ctx := context.Background()
	tuples := randomTuples(t, 5000, 4)
	raw := newStore(t, core.CodecRaw, 512)
	avq := newStore(t, core.CodecAVQ, 512)
	if _, err := raw.BulkLoadContext(ctx, tuples); err != nil {
		t.Fatal(err)
	}
	if _, err := avq.BulkLoadContext(ctx, tuples); err != nil {
		t.Fatal(err)
	}
	if avq.NumBlocks() >= raw.NumBlocks() {
		t.Fatalf("AVQ blocks %d >= raw blocks %d", avq.NumBlocks(), raw.NumBlocks())
	}
	t.Logf("raw=%d avq=%d blocks (%.1f%% reduction)",
		raw.NumBlocks(), avq.NumBlocks(),
		100*(1-float64(avq.NumBlocks())/float64(raw.NumBlocks())))
}

func TestInsertIntoBlock(t *testing.T) {
	ctx := context.Background()
	for _, codec := range allCodecs() {
		t.Run(codec.String(), func(t *testing.T) {
			s := newStore(t, codec, 512)
			tuples := randomTuples(t, 200, 5)
			refs, err := s.BulkLoadContext(ctx, tuples)
			if err != nil {
				t.Fatal(err)
			}
			target := refs[len(refs)/2]
			ins := target.First.Clone()
			// A tuple just above the block's first tuple lands inside it.
			ins[len(ins)-1] = (ins[len(ins)-1] + 1) % 4096
			res, err := s.InsertIntoBlock(target.Page, ins)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Blocks) == 0 {
				t.Fatal("no block refs returned")
			}
			if err := s.Check(); err != nil {
				t.Fatal(err)
			}
			count := 0
			s.ScanBlocksContext(ctx, func(id storage.PageID, ts []relation.Tuple) bool {
				count += len(ts)
				return true
			})
			if count != len(tuples)+1 {
				t.Fatalf("store has %d tuples, want %d", count, len(tuples)+1)
			}
		})
	}
}

func TestInsertForcesSplit(t *testing.T) {
	s := newStore(t, core.CodecAVQ, 256) // small page to force splits quickly
	tuples := randomTuples(t, 100, 6)
	refs, err := s.BulkLoadContext(context.Background(), tuples)
	if err != nil {
		t.Fatal(err)
	}
	before := s.NumBlocks()
	// Hammer one block until it must split. Rewrites are copy-on-write, so
	// each mutation reports the block's new page.
	rng := rand.New(rand.NewSource(7))
	target := refs[0].Page
	split := false
	for i := 0; i < 200 && !split; i++ {
		tu := refs[0].First.Clone()
		tu[4] = uint64(rng.Intn(4096))
		res, err := s.InsertIntoBlock(target, tu)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Blocks) > 1 {
			split = true
		}
		target = res.Blocks[0].Page
		if err := s.Check(); err != nil {
			t.Fatalf("after insert %d: %v", i, err)
		}
	}
	if !split {
		t.Fatal("no split after 200 inserts into one block")
	}
	if s.NumBlocks() <= before {
		t.Fatalf("block count %d did not grow from %d", s.NumBlocks(), before)
	}
}

func TestDeleteFromBlock(t *testing.T) {
	ctx := context.Background()
	s := newStore(t, core.CodecAVQ, 512)
	tuples := randomTuples(t, 300, 8)
	refs, err := s.BulkLoadContext(ctx, tuples)
	if err != nil {
		t.Fatal(err)
	}
	// Delete a tuple that exists.
	victim := tuples[137]
	var home storage.PageID
	s.ScanBlocksContext(ctx, func(id storage.PageID, ts []relation.Tuple) bool {
		for _, tu := range ts {
			if s.Schema().Compare(tu, victim) == 0 {
				home = id
				return false
			}
		}
		return true
	})
	res, found, err := s.DeleteFromBlock(home, victim)
	if err != nil || !found {
		t.Fatalf("delete: found=%v err=%v", found, err)
	}
	if res.HasRemoved {
		t.Fatal("block should not be empty yet")
	}
	if err := s.Check(); err != nil {
		t.Fatal(err)
	}
	// Delete a tuple that does not exist in this block.
	_, found, err = s.DeleteFromBlock(refs[0].Page, relation.Tuple{7, 15, 63, 63, 4095})
	if err != nil {
		t.Fatal(err)
	}
	if found {
		t.Fatal("phantom delete reported found")
	}
}

func TestDeleteEmptiesBlock(t *testing.T) {
	s := newStore(t, core.CodecAVQ, 512)
	tuples := randomTuples(t, 100, 9)
	refs, err := s.BulkLoadContext(context.Background(), tuples)
	if err != nil {
		t.Fatal(err)
	}
	first := refs[0]
	blk, err := s.ReadBlock(first.Page)
	if err != nil {
		t.Fatal(err)
	}
	before := s.NumBlocks()
	cur := first.Page
	for i, tu := range blk {
		res, found, err := s.DeleteFromBlock(cur, tu)
		if err != nil || !found {
			t.Fatalf("delete %d: found=%v err=%v", i, found, err)
		}
		if i == len(blk)-1 {
			if !res.HasRemoved || res.Removed != cur {
				t.Fatalf("last delete did not remove block: %+v", res)
			}
		} else {
			// Copy-on-write: follow the block to its new page.
			cur = res.Blocks[0].Page
		}
	}
	if s.NumBlocks() != before-1 {
		t.Fatalf("blocks = %d, want %d", s.NumBlocks(), before-1)
	}
	if err := s.Check(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ReadBlock(cur); err == nil {
		t.Fatal("removed block still readable")
	}
}

func TestNextBlock(t *testing.T) {
	s := newStore(t, core.CodecAVQ, 512)
	tuples := randomTuples(t, 500, 10)
	refs, err := s.BulkLoadContext(context.Background(), tuples)
	if err != nil {
		t.Fatal(err)
	}
	if len(refs) < 2 {
		t.Skip("need at least 2 blocks")
	}
	id := refs[0].Page
	count := 1
	for {
		next, ok := s.NextBlock(id)
		if !ok {
			break
		}
		id = next
		count++
	}
	if count != len(refs) {
		t.Fatalf("walked %d blocks, want %d", count, len(refs))
	}
	if _, ok := s.NextBlock(refs[len(refs)-1].Page); ok {
		t.Fatal("NextBlock after last returned a block")
	}
}

func TestComputeStats(t *testing.T) {
	s := newStore(t, core.CodecAVQ, 512)
	tuples := randomTuples(t, 1000, 11)
	if _, err := s.BulkLoadContext(context.Background(), tuples); err != nil {
		t.Fatal(err)
	}
	st, err := s.ComputeStats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Tuples != 1000 {
		t.Fatalf("stats tuples = %d", st.Tuples)
	}
	if st.Blocks != s.NumBlocks() {
		t.Fatalf("stats blocks = %d, want %d", st.Blocks, s.NumBlocks())
	}
	if st.RawDataBytes != 1000*s.Schema().RowSize() {
		t.Fatalf("raw bytes = %d", st.RawDataBytes)
	}
	if st.CompressionRatio() <= 0 {
		t.Fatalf("AVQ compression ratio = %.3f, want positive", st.CompressionRatio())
	}
	if st.StreamBytes > st.PageBytes {
		t.Fatalf("stream bytes %d exceed page bytes %d", st.StreamBytes, st.PageBytes)
	}
}

func TestRandomizedMutations(t *testing.T) {
	ctx := context.Background()
	for _, codec := range []core.Codec{core.CodecRaw, core.CodecAVQ} {
		t.Run(codec.String(), func(t *testing.T) {
			s := newStore(t, codec, 384)
			sch := s.Schema()
			tuples := randomTuples(t, 400, 12)
			refs, err := s.BulkLoadContext(ctx, tuples)
			if err != nil {
				t.Fatal(err)
			}
			_ = refs
			rng := rand.New(rand.NewSource(13))
			// Reference multiset of live tuples, keyed by string encoding.
			live := map[string]int{}
			for _, tu := range tuples {
				live[string(sch.EncodeTuple(nil, tu))]++
			}
			findHome := func(tu relation.Tuple) (storage.PageID, bool) {
				var home storage.PageID
				found := false
				s.ScanBlocksContext(ctx, func(id storage.PageID, ts []relation.Tuple) bool {
					for _, x := range ts {
						if sch.Compare(x, tu) == 0 {
							home, found = id, true
							return false
						}
					}
					return true
				})
				return home, found
			}
			randTuple := func() relation.Tuple {
				return relation.Tuple{
					uint64(rng.Intn(8)), uint64(rng.Intn(16)),
					uint64(rng.Intn(64)), uint64(rng.Intn(64)), uint64(rng.Intn(4096)),
				}
			}
			for op := 0; op < 300; op++ {
				if rng.Intn(2) == 0 {
					tu := randTuple()
					// Route to the clustered block: last block whose first
					// tuple is <= tu, else the first block.
					blocks := s.Blocks()
					target := blocks[0]
					for _, id := range blocks {
						blk, err := s.ReadBlock(id)
						if err != nil {
							t.Fatal(err)
						}
						if sch.Compare(blk[0], tu) <= 0 {
							target = id
						} else {
							break
						}
					}
					if _, err := s.InsertIntoBlock(target, tu); err != nil {
						t.Fatalf("op %d insert: %v", op, err)
					}
					live[string(sch.EncodeTuple(nil, tu))]++
				} else {
					tu := randTuple()
					home, found := findHome(tu)
					key := string(sch.EncodeTuple(nil, tu))
					if found != (live[key] > 0) {
						t.Fatalf("op %d: store/reference disagree on %v", op, tu)
					}
					if found {
						_, ok, err := s.DeleteFromBlock(home, tu)
						if err != nil || !ok {
							t.Fatalf("op %d delete: ok=%v err=%v", op, ok, err)
						}
						live[key]--
						if live[key] == 0 {
							delete(live, key)
						}
					}
				}
				if op%50 == 0 {
					if err := s.Check(); err != nil {
						t.Fatalf("op %d: %v", op, err)
					}
				}
			}
			// Final cross-check.
			got := map[string]int{}
			total := 0
			s.ScanBlocksContext(ctx, func(id storage.PageID, ts []relation.Tuple) bool {
				for _, tu := range ts {
					got[string(sch.EncodeTuple(nil, tu))]++
					total++
				}
				return true
			})
			want := 0
			for k, n := range live {
				want += n
				if got[k] != n {
					t.Fatalf("tuple %x: store has %d, reference %d", k, got[k], n)
				}
			}
			if total != want {
				t.Fatalf("store has %d tuples, reference %d", total, want)
			}
		})
	}
}

func TestTupleTooLargeForPage(t *testing.T) {
	pager, _ := storage.NewMemPager(8)
	pool, _ := buffer.New(pager, nil, 4)
	if _, err := New(testSchema(t), core.CodecAVQ, pool); err == nil {
		t.Fatal("page smaller than a tuple accepted")
	}
}

func TestRestore(t *testing.T) {
	ctx := context.Background()
	pager, _ := storage.NewMemPager(512)
	pool, _ := buffer.New(pager, nil, 16)
	src, err := New(testSchema(t), core.CodecAVQ, pool)
	if err != nil {
		t.Fatal(err)
	}
	tuples := randomTuples(t, 400, 20)
	if _, err := src.BulkLoadContext(ctx, tuples); err != nil {
		t.Fatal(err)
	}
	layout := src.Blocks()

	// A second store over the same pool adopts the layout.
	dst, err := New(testSchema(t), core.CodecAVQ, pool)
	if err != nil {
		t.Fatal(err)
	}
	if err := dst.Restore(layout); err != nil {
		t.Fatal(err)
	}
	if err := dst.Check(); err != nil {
		t.Fatal(err)
	}
	count := 0
	dst.ScanBlocksContext(ctx, func(id storage.PageID, ts []relation.Tuple) bool {
		count += len(ts)
		return true
	})
	if count != 400 {
		t.Fatalf("restored %d tuples", count)
	}
	// Errors: non-empty store, duplicate pages.
	if err := dst.Restore(layout); err == nil {
		t.Fatal("restore into non-empty store accepted")
	}
	dup, err := New(testSchema(t), core.CodecAVQ, pool)
	if err != nil {
		t.Fatal(err)
	}
	if err := dup.Restore([]storage.PageID{layout[0], layout[0]}); err == nil {
		t.Fatal("duplicate layout accepted")
	}
}

func TestRewriteBlockValidation(t *testing.T) {
	s := newStore(t, core.CodecAVQ, 512)
	tuples := randomTuples(t, 100, 21)
	refs, err := s.BulkLoadContext(context.Background(), tuples)
	if err != nil {
		t.Fatal(err)
	}
	blk, err := s.ReadBlock(refs[0].Page)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.RewriteBlock(storage.PageID(9999), blk); err == nil {
		t.Fatal("unknown page accepted")
	}
	if _, err := s.RewriteBlock(refs[0].Page, nil); err == nil {
		t.Fatal("empty rewrite accepted")
	}
	bad := []relation.Tuple{blk[len(blk)-1], blk[0]}
	if _, err := s.RewriteBlock(refs[0].Page, bad); err == nil {
		t.Fatal("unsorted rewrite accepted")
	}
	// A valid rewrite moves the block to a fresh page (copy-on-write).
	res, err := s.RewriteBlock(refs[0].Page, blk)
	if err != nil {
		t.Fatal(err)
	}
	if res.Blocks[0].Page == refs[0].Page {
		t.Fatal("rewrite reused the original page; expected copy-on-write")
	}
	if _, err := s.ReadBlock(refs[0].Page); err == nil {
		t.Fatal("original page still readable after COW rewrite")
	}
	if err := s.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestResetStore(t *testing.T) {
	ctx := context.Background()
	s := newStore(t, core.CodecAVQ, 512)
	if _, err := s.BulkLoadContext(ctx, randomTuples(t, 300, 22)); err != nil {
		t.Fatal(err)
	}
	if err := s.Reset(); err != nil {
		t.Fatal(err)
	}
	if s.NumBlocks() != 0 {
		t.Fatalf("blocks = %d after reset", s.NumBlocks())
	}
	// The store is reusable after Reset.
	if _, err := s.BulkLoadContext(ctx, randomTuples(t, 100, 23)); err != nil {
		t.Fatal(err)
	}
	if err := s.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestBulkLoadStreamErrors(t *testing.T) {
	s := newStore(t, core.CodecAVQ, 512)
	boom := func() (relation.Tuple, bool, error) {
		return nil, false, core.ErrCorrupt
	}
	if _, err := s.BulkLoadStreamContext(context.Background(), boom); err == nil {
		t.Fatal("stream error swallowed")
	}
}

// TestCheckDetectsCorruption flips bytes on a loaded page and verifies the
// deep checker refuses the store, for every codec.
func TestCheckDetectsCorruption(t *testing.T) {
	for _, codec := range allCodecs() {
		t.Run(codec.String(), func(t *testing.T) {
			s := newStore(t, codec, 512)
			if _, err := s.BulkLoadContext(context.Background(), randomTuples(t, 500, 7)); err != nil {
				t.Fatal(err)
			}
			if err := s.Check(); err != nil {
				t.Fatalf("clean store: %v", err)
			}
			// Corrupt the middle of the first block's coded stream, behind
			// the pool's back, and drop the cache so Check rereads it.
			id := s.Blocks()[0]
			if err := s.pool.DropAll(); err != nil {
				t.Fatal(err)
			}
			page := make([]byte, s.pool.PageSize())
			if err := s.pool.Pager().Read(id, page); err != nil {
				t.Fatal(err)
			}
			page[lenPrefix+10] ^= 0xff
			if err := s.pool.Pager().Write(id, page); err != nil {
				t.Fatal(err)
			}
			if err := s.Check(); err == nil {
				t.Fatal("Check accepted a corrupted block")
			}
		})
	}
}

// TestCheckDetectsHeaderLie rewrites the stream-length prefix to an
// impossible value and verifies the header validation catches it.
func TestCheckDetectsHeaderLie(t *testing.T) {
	s := newStore(t, core.CodecAVQ, 512)
	if _, err := s.BulkLoadContext(context.Background(), randomTuples(t, 200, 9)); err != nil {
		t.Fatal(err)
	}
	id := s.Blocks()[0]
	if err := s.pool.DropAll(); err != nil {
		t.Fatal(err)
	}
	page := make([]byte, s.pool.PageSize())
	if err := s.pool.Pager().Read(id, page); err != nil {
		t.Fatal(err)
	}
	page[0], page[1], page[2], page[3] = 0xff, 0xff, 0xff, 0xff
	if err := s.pool.Pager().Write(id, page); err != nil {
		t.Fatal(err)
	}
	if err := s.Check(); err == nil {
		t.Fatal("Check accepted an impossible stream length")
	}
}
