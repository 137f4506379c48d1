package blockstore

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/relation"
	"repro/internal/storage"
)

// pipelineStore builds a store over a fresh mem pager with the given
// concurrency configuration.
func pipelineStore(t testing.TB, codec core.Codec, pageSize, frames int, cfg Config) (*Store, *storage.MemPager, *buffer.Pool) {
	t.Helper()
	pager, err := storage.NewMemPager(pageSize)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := buffer.New(pager, nil, frames)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(pipelineSchema(t), codec, pool)
	if err != nil {
		t.Fatal(err)
	}
	s.Configure(cfg)
	return s, pager, pool
}

func pipelineSchema(t testing.TB) *relation.Schema {
	t.Helper()
	return relation.MustSchema(
		relation.Domain{Name: "a", Size: 6},
		relation.Domain{Name: "b", Size: 4000},
		relation.Domain{Name: "c", Size: 97},
		relation.Domain{Name: "d", Size: 12},
		relation.Domain{Name: "e", Size: 70000},
	)
}

func pipelineTuples(t testing.TB, n int, seed int64) []relation.Tuple {
	t.Helper()
	s := pipelineSchema(t)
	rng := rand.New(rand.NewSource(seed))
	out := make([]relation.Tuple, n)
	for i := range out {
		tu := make(relation.Tuple, s.NumAttrs())
		for a := 0; a < s.NumAttrs(); a++ {
			tu[a] = uint64(rng.Int63n(int64(s.Domain(a).Size)))
		}
		out[i] = tu
	}
	s.SortTuples(out)
	return out
}

// pageImages snapshots the raw bytes of every block page in clustered
// order, straight from the pager.
func pageImages(t *testing.T, s *Store, pager *storage.MemPager, pool *buffer.Pool) [][]byte {
	t.Helper()
	if err := pool.Flush(); err != nil {
		t.Fatal(err)
	}
	var out [][]byte
	for _, id := range s.Blocks() {
		buf := make([]byte, pager.PageSize())
		if err := pager.Read(id, buf); err != nil {
			t.Fatal(err)
		}
		out = append(out, buf)
	}
	return out
}

// TestBulkLoadParallelByteIdentical is the differential test for the
// pipeline: at every concurrency level, for every codec, a parallel bulk
// load must produce the same block boundaries, the same page ids, and the
// same page bytes as the serial reference path.
func TestBulkLoadParallelByteIdentical(t *testing.T) {
	ctx := context.Background()
	const pageSize = 512
	tuples := pipelineTuples(t, 5000, 42)
	for _, codec := range []core.Codec{core.CodecAVQ, core.CodecDeltaChain, core.CodecPacked, core.CodecRaw, core.CodecRepOnly} {
		ref, refPager, refPool := pipelineStore(t, codec, pageSize, 64, Config{})
		refRefs, err := ref.BulkLoadContext(ctx, tuples)
		if err != nil {
			t.Fatalf("%v serial: %v", codec, err)
		}
		want := pageImages(t, ref, refPager, refPool)
		for conc := 1; conc <= 8; conc++ {
			s, pager, pool := pipelineStore(t, codec, pageSize, 64, Config{Concurrency: conc})
			refs, err := s.BulkLoadContext(ctx, tuples)
			if err != nil {
				t.Fatalf("%v conc=%d: %v", codec, conc, err)
			}
			if len(refs) != len(refRefs) {
				t.Fatalf("%v conc=%d: %d blocks, serial made %d", codec, conc, len(refs), len(refRefs))
			}
			for i := range refs {
				if refs[i].Page != refRefs[i].Page || refs[i].Count != refRefs[i].Count {
					t.Fatalf("%v conc=%d block %d: ref %+v != serial %+v", codec, conc, i, refs[i], refRefs[i])
				}
			}
			got := pageImages(t, s, pager, pool)
			for i := range want {
				if !bytes.Equal(got[i], want[i]) {
					t.Fatalf("%v conc=%d: page image %d differs from serial", codec, conc, i)
				}
			}
			if err := s.Check(); err != nil {
				t.Fatalf("%v conc=%d: %v", codec, conc, err)
			}
		}
	}
}

// TestBulkLoadStreamParallelByteIdentical runs the same differential check
// through the streaming loader, with a window small enough to force many
// refill-and-chunk rounds.
func TestBulkLoadStreamParallelByteIdentical(t *testing.T) {
	ctx := context.Background()
	const pageSize = 512
	tuples := pipelineTuples(t, 4000, 7)
	streamOf := func() func() (relation.Tuple, bool, error) {
		i := 0
		return func() (relation.Tuple, bool, error) {
			if i >= len(tuples) {
				return nil, false, nil
			}
			tu := tuples[i]
			i++
			return tu, true, nil
		}
	}
	ref, refPager, refPool := pipelineStore(t, core.CodecAVQ, pageSize, 64, Config{})
	if _, err := ref.BulkLoadStreamContext(ctx, streamOf()); err != nil {
		t.Fatal(err)
	}
	want := pageImages(t, ref, refPager, refPool)
	for conc := 2; conc <= 8; conc *= 2 {
		s, pager, pool := pipelineStore(t, core.CodecAVQ, pageSize, 64, Config{Concurrency: conc})
		if _, err := s.BulkLoadStreamContext(ctx, streamOf()); err != nil {
			t.Fatalf("conc=%d: %v", conc, err)
		}
		got := pageImages(t, s, pager, pool)
		if len(got) != len(want) {
			t.Fatalf("conc=%d: %d pages, serial made %d", conc, len(got), len(want))
		}
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("conc=%d: page image %d differs from serial", conc, i)
			}
		}
	}
}

// TestScanBlocksParallelOrderAndEarlyStop verifies the parallel scan
// delivers blocks in clustered order and honors an early stop.
func TestScanBlocksParallelOrderAndEarlyStop(t *testing.T) {
	ctx := context.Background()
	s, _, _ := pipelineStore(t, core.CodecAVQ, 512, 64, Config{Concurrency: 4, CacheBlocks: 8})
	tuples := pipelineTuples(t, 3000, 11)
	if _, err := s.BulkLoadContext(ctx, tuples); err != nil {
		t.Fatal(err)
	}
	want := s.Blocks()
	if len(want) < 8 {
		t.Fatalf("want several blocks, got %d", len(want))
	}
	var got []storage.PageID
	count := 0
	if err := s.ScanBlocksContext(ctx, func(id storage.PageID, ts []relation.Tuple) bool {
		got = append(got, id)
		count += len(ts)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("visited %d blocks, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("block %d visited as %d, want %d", i, got[i], want[i])
		}
	}
	if count != len(tuples) {
		t.Fatalf("scanned %d tuples, want %d", count, len(tuples))
	}
	// Early stop after 3 blocks.
	visited := 0
	if err := s.ScanBlocksContext(ctx, func(storage.PageID, []relation.Tuple) bool {
		visited++
		return visited < 3
	}); err != nil {
		t.Fatal(err)
	}
	if visited != 3 {
		t.Fatalf("early stop visited %d blocks, want 3", visited)
	}
}

// TestScanBlocksParallelSmallPool verifies the scan fan-out is clamped so
// decode workers cannot pin every frame of a tiny pool.
func TestScanBlocksParallelSmallPool(t *testing.T) {
	ctx := context.Background()
	s, _, _ := pipelineStore(t, core.CodecAVQ, 512, 3, Config{Concurrency: 16})
	tuples := pipelineTuples(t, 2000, 3)
	if _, err := s.BulkLoadContext(ctx, tuples); err != nil {
		t.Fatal(err)
	}
	count := 0
	if err := s.ScanBlocksContext(ctx, func(_ storage.PageID, ts []relation.Tuple) bool {
		count += len(ts)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if count != len(tuples) {
		t.Fatalf("scanned %d tuples, want %d", count, len(tuples))
	}
}

// TestComputeStatsParallelMatchesSerial checks the two stats paths agree.
func TestComputeStatsParallelMatchesSerial(t *testing.T) {
	ctx := context.Background()
	tuples := pipelineTuples(t, 3000, 5)
	serial, _, _ := pipelineStore(t, core.CodecAVQ, 512, 64, Config{})
	if _, err := serial.BulkLoadContext(ctx, tuples); err != nil {
		t.Fatal(err)
	}
	want, err := serial.ComputeStats()
	if err != nil {
		t.Fatal(err)
	}
	par, _, _ := pipelineStore(t, core.CodecAVQ, 512, 64, Config{Concurrency: 6})
	if _, err := par.BulkLoadContext(ctx, tuples); err != nil {
		t.Fatal(err)
	}
	got, err := par.ComputeStats()
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("parallel stats %+v != serial %+v", got, want)
	}
}

// TestDecodedBlockCache verifies hits are served without re-decoding, that
// returned tuples are isolated copies, and that mutation invalidates.
func TestDecodedBlockCache(t *testing.T) {
	s, _, _ := pipelineStore(t, core.CodecAVQ, 512, 64, Config{CacheBlocks: 64})
	tuples := pipelineTuples(t, 2000, 9)
	if _, err := s.BulkLoadContext(context.Background(), tuples); err != nil {
		t.Fatal(err)
	}
	id := s.Blocks()[0]
	first, err := s.ReadBlock(id)
	if err != nil {
		t.Fatal(err)
	}
	if st := s.CacheStats(); st.Misses == 0 || st.Entries == 0 {
		t.Fatalf("expected a cache miss to populate the cache, stats %+v", st)
	}
	// Scribble on the returned tuples: the cache must not see it.
	for _, tu := range first {
		for i := range tu {
			tu[i] = 0
		}
	}
	again, err := s.ReadBlock(id)
	if err != nil {
		t.Fatal(err)
	}
	if st := s.CacheStats(); st.Hits == 0 {
		t.Fatalf("expected a cache hit, stats %+v", st)
	}
	if !s.Schema().TuplesSorted(again) {
		t.Fatal("cached read returned unsorted tuples")
	}
	for i, tu := range again {
		if s.Schema().Compare(tu, tuples[i]) != 0 {
			t.Fatalf("cached tuple %d = %v, want %v (cache poisoned by caller mutation?)", i, tu, tuples[i])
		}
	}

	// Mutating the block must invalidate, and the re-read must observe the
	// new contents even though the old page id may be recycled.
	res, err := s.InsertIntoBlock(id, tuples[0].Clone())
	if err != nil {
		t.Fatal(err)
	}
	if st := s.CacheStats(); st.Invalidations == 0 {
		t.Fatalf("mutation did not invalidate the cache, stats %+v", st)
	}
	fresh, err := s.ReadBlock(res.Blocks[0].Page)
	if err != nil {
		t.Fatal(err)
	}
	if len(fresh) != len(first)+1 {
		t.Fatalf("re-read block has %d tuples, want %d", len(fresh), len(first)+1)
	}
	if err := s.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestCacheRecycledPageID drives a rewrite loop that recycles freed page
// ids and verifies reads through the cache never serve stale contents.
func TestCacheRecycledPageID(t *testing.T) {
	ctx := context.Background()
	s, _, _ := pipelineStore(t, core.CodecAVQ, 512, 64, Config{CacheBlocks: 64})
	tuples := pipelineTuples(t, 600, 21)
	if _, err := s.BulkLoadContext(ctx, tuples); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 200; round++ {
		blocks := s.Blocks()
		id := blocks[rng.Intn(len(blocks))]
		ts, err := s.ReadBlock(id)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.RewriteBlock(id, ts); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Check(); err != nil {
		t.Fatal(err)
	}
	total := 0
	if err := s.ScanBlocksContext(ctx, func(_ storage.PageID, ts []relation.Tuple) bool {
		total += len(ts)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if total != len(tuples) {
		t.Fatalf("scan found %d tuples, want %d", total, len(tuples))
	}
}

// TestConcurrentScanVsRewriteRace is the -race stress test: readers run
// parallel scans through the decoded-block cache while a writer rewrites
// blocks (invalidating entries), under the same reader/writer locking the
// table layer provides.
func TestConcurrentScanVsRewriteRace(t *testing.T) {
	ctx := context.Background()
	s, _, _ := pipelineStore(t, core.CodecAVQ, 512, 64, Config{Concurrency: 4, CacheBlocks: 32})
	tuples := pipelineTuples(t, 2000, 13)
	if _, err := s.BulkLoadContext(ctx, tuples); err != nil {
		t.Fatal(err)
	}
	var mu sync.RWMutex
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 30; i++ {
				mu.RLock()
				n := 0
				err := s.ScanBlocksContext(ctx, func(_ storage.PageID, ts []relation.Tuple) bool {
					n += len(ts)
					return rng.Intn(10) != 0 // sometimes stop early
				})
				mu.RUnlock()
				if err != nil {
					errs <- err
					return
				}
			}
		}(int64(r))
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(99))
		for i := 0; i < 100; i++ {
			mu.Lock()
			blocks := s.Blocks()
			id := blocks[rng.Intn(len(blocks))]
			ts, err := s.ReadBlock(id)
			if err == nil {
				_, err = s.RewriteBlock(id, ts)
			}
			mu.Unlock()
			if err != nil {
				errs <- err
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := s.Check(); err != nil {
		t.Fatal(err)
	}
}

// faultPager injects a failure into the Nth Allocate call, for rollback
// fault-injection tests.
type faultPager struct {
	storage.Pager
	mu         sync.Mutex
	allocs     int
	failAlloc  int // fail the Nth allocate (1-based); 0 disables
	injectedAt bool
}

var errInjected = errors.New("injected allocate failure")

func (p *faultPager) Allocate() (storage.PageID, error) {
	p.mu.Lock()
	p.allocs++
	fail := p.failAlloc > 0 && p.allocs == p.failAlloc
	if fail {
		p.injectedAt = true
	}
	p.mu.Unlock()
	if fail {
		return storage.InvalidPage, errInjected
	}
	return p.Pager.Allocate()
}

// TestSplitBlockRollbackOnFault forces a split whose second half fails to
// write and verifies the store rolls back: no orphaned pages, the original
// block intact, and the deep checker happy.
func TestSplitBlockRollbackOnFault(t *testing.T) {
	mem, err := storage.NewMemPager(512)
	if err != nil {
		t.Fatal(err)
	}
	fp := &faultPager{Pager: mem}
	pool, err := buffer.New(fp, nil, 64)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(pipelineSchema(t), core.CodecAVQ, pool)
	if err != nil {
		t.Fatal(err)
	}
	tuples := pipelineTuples(t, 800, 17)
	if _, err := s.BulkLoadContext(context.Background(), tuples); err != nil {
		t.Fatal(err)
	}
	id := s.Blocks()[0]
	before, err := s.ReadBlock(id)
	if err != nil {
		t.Fatal(err)
	}
	// Build an oversized run that must split into at least two pages.
	double := make([]relation.Tuple, 0, 2*len(before))
	for _, tu := range before {
		double = append(double, tu.Clone(), tu.Clone())
	}
	s.Schema().SortTuples(double)

	// Predict how many pages the split will write, then run it with the
	// last allocation failing.
	preAllocs := countAllocs(t, s, double)
	if preAllocs < 2 {
		t.Fatalf("split wrote %d pages; need >= 2 to exercise partial failure", preAllocs)
	}

	liveBefore := livePages(t, mem, s)
	fp.mu.Lock()
	fp.failAlloc = fp.allocs + preAllocs // fail the final page of the split
	fp.mu.Unlock()
	if _, err := s.RewriteBlock(id, double); !errors.Is(err, errInjected) {
		t.Fatalf("rewrite error = %v, want injected failure", err)
	}
	if !fp.injectedAt {
		t.Fatal("fault was never injected")
	}
	fp.failAlloc = 0

	// The original block must be untouched and no page leaked: every
	// non-free page is still a block of the store.
	if got := livePages(t, mem, s); got != liveBefore {
		t.Fatalf("%d live pages after failed split, want %d (leaked orphan pages)", got, liveBefore)
	}
	after, err := s.ReadBlock(id)
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != len(before) {
		t.Fatalf("original block has %d tuples after failed split, want %d", len(after), len(before))
	}
	if err := s.Check(); err != nil {
		t.Fatalf("store inconsistent after failed split: %v", err)
	}
	// And the store must still accept the same rewrite once the fault
	// clears.
	if _, err := s.RewriteBlock(id, double); err != nil {
		t.Fatal(err)
	}
	if err := s.Check(); err != nil {
		t.Fatal(err)
	}
}

// countAllocs predicts how many pages splitBlock will write for run, by
// replaying its layout rule (even halving, else greedy MaxFit).
func countAllocs(t *testing.T, s *Store, run []relation.Tuple) int {
	t.Helper()
	size, err := core.EncodedSize(s.Codec(), s.Schema(), run)
	if err != nil {
		t.Fatal(err)
	}
	if size <= s.capacity() {
		t.Fatal("run fits one page; widen it so the rewrite splits")
	}
	half := len(run) / 2
	left, err := core.EncodedSize(s.Codec(), s.Schema(), run[:half])
	if err != nil {
		t.Fatal(err)
	}
	right, err := core.EncodedSize(s.Codec(), s.Schema(), run[half:])
	if err != nil {
		t.Fatal(err)
	}
	if left <= s.capacity() && right <= s.capacity() {
		return 2
	}
	n := 0
	remaining := run
	for len(remaining) > 0 {
		u, err := core.MaxFit(s.Codec(), s.Schema(), remaining, s.capacity())
		if err != nil {
			t.Fatal(err)
		}
		if u == 0 {
			t.Fatal("tuple does not fit a page")
		}
		n++
		remaining = remaining[u:]
	}
	return n
}

// livePages counts pager pages that are not on the free list, by probing
// each page with a read.
func livePages(t *testing.T, mem *storage.MemPager, s *Store) int {
	t.Helper()
	buf := make([]byte, mem.PageSize())
	n := 0
	for id := 0; id < mem.NumPages(); id++ {
		if err := mem.Read(storage.PageID(id), buf); err == nil {
			n++
		} else if !errors.Is(err, storage.ErrPageFreed) {
			t.Fatalf("page %d: %v", id, err)
		}
	}
	return n
}

// TestEmptyStoreStats covers the empty-relation paths: stats are all zero,
// the ratio helpers are NaN-free, and scans visit nothing.
func TestEmptyStoreStats(t *testing.T) {
	for _, conc := range []int{0, 4} {
		s, _, _ := pipelineStore(t, core.CodecAVQ, 512, 8, Config{Concurrency: conc})
		st, err := s.ComputeStats()
		if err != nil {
			t.Fatal(err)
		}
		if st != (Stats{}) {
			t.Fatalf("conc=%d: empty store stats = %+v, want zero", conc, st)
		}
		if r := st.CompressionRatio(); r != 0 {
			t.Fatalf("conc=%d: empty CompressionRatio = %v, want 0", conc, r)
		}
		if p := st.StreamSavingsPercent(); p != 0 {
			t.Fatalf("conc=%d: empty StreamSavingsPercent = %v, want 0", conc, p)
		}
		visited := 0
		if err := s.ScanBlocksContext(context.Background(), func(storage.PageID, []relation.Tuple) bool {
			visited++
			return true
		}); err != nil {
			t.Fatal(err)
		}
		if visited != 0 {
			t.Fatalf("conc=%d: scan of empty store visited %d blocks", conc, visited)
		}
	}
}

// TestParallelErrorReporting checks a decode failure mid-store surfaces
// from the parallel scan (and stops it) just as it would serially.
func TestParallelErrorReporting(t *testing.T) {
	ctx := context.Background()
	s, pager, pool := pipelineStore(t, core.CodecAVQ, 512, 64, Config{Concurrency: 4})
	tuples := pipelineTuples(t, 2000, 31)
	if _, err := s.BulkLoadContext(ctx, tuples); err != nil {
		t.Fatal(err)
	}
	if err := pool.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := pool.DropAll(); err != nil {
		t.Fatal(err)
	}
	// Corrupt a middle block's stream on the pager.
	victim := s.Blocks()[len(s.Blocks())/2]
	buf := make([]byte, pager.PageSize())
	if err := pager.Read(victim, buf); err != nil {
		t.Fatal(err)
	}
	buf[lenPrefix+8] ^= 0xFF
	if err := pager.Write(victim, buf); err != nil {
		t.Fatal(err)
	}
	err := s.ScanBlocksContext(ctx, func(storage.PageID, []relation.Tuple) bool { return true })
	if err == nil {
		t.Fatal("scan of corrupted store succeeded")
	}
	if !errors.Is(err, core.ErrChecksum) {
		t.Fatalf("scan error = %v, want checksum mismatch", err)
	}
}

func BenchmarkBulkLoad(b *testing.B) {
	schema := relation.MustSchema(
		relation.Domain{Name: "a", Size: 6},
		relation.Domain{Name: "b", Size: 4000},
		relation.Domain{Name: "c", Size: 97},
		relation.Domain{Name: "d", Size: 12},
		relation.Domain{Name: "e", Size: 70000},
	)
	rng := rand.New(rand.NewSource(1995))
	tuples := make([]relation.Tuple, 100_000)
	for i := range tuples {
		tu := make(relation.Tuple, schema.NumAttrs())
		for a := 0; a < schema.NumAttrs(); a++ {
			tu[a] = uint64(rng.Int63n(int64(schema.Domain(a).Size)))
		}
		tuples[i] = tu
	}
	schema.SortTuples(tuples)
	for _, conc := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("conc=%d", conc), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				pager, _ := storage.NewMemPager(8192)
				pool, _ := buffer.New(pager, nil, 256)
				s, err := New(schema, core.CodecAVQ, pool)
				if err != nil {
					b.Fatal(err)
				}
				s.Configure(Config{Concurrency: conc})
				if _, err := s.BulkLoadContext(context.Background(), tuples); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
