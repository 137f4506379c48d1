package table

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/relation"
)

// TestFunctionalOptions checks the With* options land in the resolved
// configuration exactly like the legacy struct fields they mirror.
func TestFunctionalOptions(t *testing.T) {
	reg := obs.NewRegistry()
	tb, err := Create(testSchema(t),
		WithCodec(core.CodecAVQ),
		WithPageSize(512),
		WithPoolFrames(64),
		WithIndexOrder(8),
		WithSecondaryAttrs(1, 2),
		WithSecondaryKind(IndexBTree),
		WithConcurrency(2),
		WithBlockCache(16),
		WithObs(reg),
		WithSlowOpThreshold(time.Hour),
	)
	if err != nil {
		t.Fatal(err)
	}
	o := tb.opts
	if o.Codec != core.CodecAVQ || o.PageSize != 512 || o.PoolFrames != 64 ||
		o.IndexOrder != 8 || o.Concurrency != 2 || o.CacheBlocks != 16 || o.Obs != reg {
		t.Fatalf("options not applied: %+v", o)
	}
	if len(o.SecondaryAttrs) != 2 || o.SecondaryAttrs[0] != 1 || o.SecondaryAttrs[1] != 2 {
		t.Fatalf("secondary attrs not applied: %v", o.SecondaryAttrs)
	}
	if got := reg.SlowOpThreshold(); got != time.Hour {
		t.Fatalf("slow-op threshold = %v, want 1h", got)
	}
}

// TestLegacyOptionsStruct checks the old struct-style call still compiles
// and configures identically, and that a struct composes with With*
// options (struct first, overrides after).
func TestLegacyOptionsStruct(t *testing.T) {
	tb, err := Create(testSchema(t), WithCodec(core.CodecAVQ), WithPageSize(512), WithConcurrency(3))
	if err != nil {
		t.Fatal(err)
	}
	if tb.opts.PageSize != 512 || tb.opts.Concurrency != 3 {
		t.Fatalf("struct options not applied: %+v", tb.opts)
	}
	tb2, err := Create(testSchema(t), WithPageSize(512), WithConcurrency(3), WithConcurrency(1))
	if err != nil {
		t.Fatal(err)
	}
	if tb2.opts.Concurrency != 1 || tb2.opts.PageSize != 512 {
		t.Fatalf("option override after struct not applied: %+v", tb2.opts)
	}
}

// TestObsWiring drives a load and queries through an instrumented table
// and checks every layer reported: pool, store, executor, index probes,
// and op spans.
func TestObsWiring(t *testing.T) {
	ctx := context.Background()
	reg := obs.NewRegistry()
	tb, err := Create(testSchema(t),
		WithCodec(core.CodecAVQ), WithPageSize(512), WithSecondaryAttrs(1), WithObs(reg))
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.BulkLoadContext(ctx, randomTuples(t, 3000, 41)); err != nil {
		t.Fatal(err)
	}
	// Run the first query cold so pool misses are exercised too.
	if err := tb.DropCache(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := tb.SelectRangeContext(ctx, 0, 2, 5); err != nil {
		t.Fatal(err)
	}
	if _, _, err := tb.SelectRangeContext(ctx, 1, 3, 3); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.Contains(relation.Tuple{1, 2, 3, 4, 5}); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	counters := map[string]int64{}
	for _, c := range snap.Counters {
		counters[c.Name] = c.Value
	}
	for _, name := range []string{
		"pool.misses", "store.encodes", "store.decodes", "store.snapshots",
		"exec.blocks_read", "exec.rows", "index.btree_probes",
	} {
		if counters[name] <= 0 {
			t.Errorf("counter %s = %d, want > 0", name, counters[name])
		}
	}
	hists := map[string]int64{}
	for _, h := range snap.Histograms {
		hists[h.Name] = h.Count
	}
	if hists["op.bulkload"] != 1 {
		t.Errorf("op.bulkload count = %d, want 1", hists["op.bulkload"])
	}
	if hists["op.select"] != 2 {
		t.Errorf("op.select count = %d, want 2", hists["op.select"])
	}
	if hists["store.encode"] <= 0 {
		t.Errorf("store.encode count = %d, want > 0", hists["store.encode"])
	}
	// All snapshots taken by the queries must be released again.
	var live int64 = -1
	for _, g := range snap.Gauges {
		if g.Name == "store.snapshots_live" {
			live = g.Value
		}
	}
	if live != 0 {
		t.Errorf("store.snapshots_live = %d, want 0", live)
	}
}

// TestObsHashProbes checks hash-backed secondary indexes report their own
// probe counter.
func TestObsHashProbes(t *testing.T) {
	ctx := context.Background()
	reg := obs.NewRegistry()
	tb, err := Create(testSchema(t),
		WithPageSize(512), WithSecondaryAttrs(1), WithSecondaryKind(IndexHash), WithObs(reg))
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.BulkLoadContext(ctx, randomTuples(t, 500, 42)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := tb.SelectPointContext(ctx, 1, 3); err != nil {
		t.Fatal(err)
	}
	if got := reg.Snapshot(); !hasCounter(got, "index.hash_probes") {
		t.Fatalf("no index.hash_probes counter in %+v", got.Counters)
	}
}

func hasCounter(s obs.Snapshot, name string) bool {
	for _, c := range s.Counters {
		if c.Name == name && c.Value > 0 {
			return true
		}
	}
	return false
}

// TestScanContextCancelMidFlight cancels a multi-block scan from inside
// the emit callback and checks the executor stops before the next block
// decode, releases the snapshot, and leaks no pins.
func TestScanContextCancelMidFlight(t *testing.T) {
	tb := newTable(t, core.CodecAVQ, nil)
	if err := tb.BulkLoadContext(context.Background(), randomTuples(t, 5000, 43)); err != nil {
		t.Fatal(err)
	}
	if tb.NumBlocks() < 4 {
		t.Fatalf("need a multi-block table, got %d blocks", tb.NumBlocks())
	}
	ctx, cancel := context.WithCancel(context.Background())
	rows := 0
	err := tb.ScanContext(ctx, func(relation.Tuple) bool {
		rows++
		if rows == 1 {
			cancel()
		}
		return true
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("scan error = %v, want context.Canceled", err)
	}
	if rows >= tb.Len() {
		t.Fatalf("scan emitted all %d rows despite cancellation", rows)
	}
	if got := tb.pool.PinnedFrames(); got != 0 {
		t.Fatalf("%d frames still pinned after cancelled scan", got)
	}
	if err := tb.store.Check(); err != nil {
		t.Fatalf("store check after cancelled scan: %v", err)
	}
	// The table remains fully usable.
	if _, _, err := tb.SelectRangeContext(context.Background(), 0, 0, 7); err != nil {
		t.Fatalf("select after cancelled scan: %v", err)
	}
}

// TestBulkLoadStreamContextCancel cancels a streaming load mid-flight and
// checks the partial load holds no pins and the committed prefix is sound.
func TestBulkLoadStreamContextCancel(t *testing.T) {
	tb := newTable(t, core.CodecAVQ, nil)
	src := randomTuples(t, 5000, 44)
	testSchema(t).SortTuples(src)
	ctx, cancel := context.WithCancel(context.Background())
	i := 0
	err := tb.BulkLoadStreamContext(ctx, func() (relation.Tuple, bool, error) {
		if i == 1000 {
			cancel()
		}
		if i >= len(src) {
			return nil, false, nil
		}
		tu := src[i]
		i++
		return tu, true, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("stream load error = %v, want context.Canceled", err)
	}
	if i >= len(src) {
		t.Fatal("source fully drained despite cancellation")
	}
	if got := tb.pool.PinnedFrames(); got != 0 {
		t.Fatalf("%d frames still pinned after cancelled stream load", got)
	}
	if err := tb.store.Check(); err != nil {
		t.Fatalf("store check after cancelled stream load: %v", err)
	}
}

// TestCursorContextCancel checks an iterator surfaces cancellation at the
// next block boundary and leaves no pinned frames once released.
func TestCursorContextCancel(t *testing.T) {
	tb := newTable(t, core.CodecAVQ, nil)
	if err := tb.BulkLoadContext(context.Background(), randomTuples(t, 5000, 45)); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cur := tb.NewCursorContext(ctx)
	if _, ok, err := cur.Next(); err != nil || !ok {
		t.Fatalf("first Next: ok=%v err=%v", ok, err)
	}
	cancel()
	sawErr := false
	for n := 0; n < tb.Len(); n++ {
		_, ok, err := cur.Next()
		if err != nil {
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("cursor error = %v, want context.Canceled", err)
			}
			sawErr = true
			break
		}
		if !ok {
			break
		}
	}
	if !sawErr {
		t.Fatal("cursor drained the table despite cancellation")
	}
	cur.Close()
	if got := tb.pool.PinnedFrames(); got != 0 {
		t.Fatalf("%d frames still pinned after cancelled cursor", got)
	}
}

// TestInsertDomainRangeSentinel checks schema violations surface the
// relation.ErrDomainRange sentinel through the table layer.
func TestInsertDomainRangeSentinel(t *testing.T) {
	ctx := context.Background()
	tb := newTable(t, core.CodecAVQ, nil)
	err := tb.InsertContext(ctx, relation.Tuple{99, 0, 0, 0, 0}) // dept domain is 8
	if !errors.Is(err, relation.ErrDomainRange) {
		t.Fatalf("insert error = %v, want relation.ErrDomainRange", err)
	}
	if err := tb.BulkLoadContext(ctx, []relation.Tuple{{0, 0, 0, 0, 0}, {0, 99, 0, 0, 0}}); !errors.Is(err, relation.ErrDomainRange) {
		t.Fatalf("bulk load error = %v, want relation.ErrDomainRange", err)
	}
	// Zero options: Create with no configuration at all still works.
	if _, err := Create(testSchema(t)); err != nil {
		t.Fatal(err)
	}
}

// TestSyncContextVariants smoke-tests the ctx methods on their locked
// paths, including cancellation propagating out of a lock-free read and
// out of a mutation.
func TestSyncContextVariants(t *testing.T) {
	s := newTable(t, core.CodecAVQ, nil)
	ctx := context.Background()
	if err := s.InsertBatchContext(ctx, randomTuples(t, 2000, 46)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.SelectRangeContext(ctx, 0, 0, 3); err != nil {
		t.Fatal(err)
	}
	if n, _, err := s.CountRangeContext(ctx, 0, 0, 7); err != nil || n != s.Len() {
		t.Fatalf("count = %d err = %v, want %d", n, err, s.Len())
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if err := s.ScanContext(cancelled, func(relation.Tuple) bool { return true }); !errors.Is(err, context.Canceled) {
		t.Fatalf("scan error = %v, want context.Canceled", err)
	}
	if err := s.InsertContext(cancelled, relation.Tuple{0, 0, 0, 0, 0}); !errors.Is(err, context.Canceled) {
		t.Fatalf("insert error = %v, want context.Canceled", err)
	}
}
