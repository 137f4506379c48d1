package table

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/relation"
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

func randomTuples(t testing.TB, n int, seed int64) []relation.Tuple {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	tuples := make([]relation.Tuple, n)
	for i := range tuples {
		tuples[i] = relation.Tuple{
			uint64(rng.Intn(8)), uint64(rng.Intn(16)),
			uint64(rng.Intn(64)), uint64(rng.Intn(64)), uint64(rng.Intn(4096)),
		}
	}
	return tuples
}

func newTable(t testing.TB, codec core.Codec, secondaries []int) *Table {
	t.Helper()
	s := testSchema(t)
	tb, err := Create(s,
		WithCodec(codec),
		WithPageSize(512),
		WithSecondaryAttrs(secondaries...),
	)
	if err != nil {
		t.Fatal(err)
	}
	return tb
}

func TestCreateRejectsBadSecondary(t *testing.T) {
	s := testSchema(t)
	if _, err := Create(s, WithSecondaryAttrs(9)); err == nil {
		t.Fatal("out-of-range secondary attr accepted")
	}
	if _, err := Create(s, WithSecondaryAttrs(-1)); err == nil {
		t.Fatal("negative secondary attr accepted")
	}
}

func TestBulkLoadAndScan(t *testing.T) {
	ctx := context.Background()
	tb := newTable(t, core.CodecAVQ, AllAttrs(testSchema(t)))
	tuples := randomTuples(t, 1500, 1)
	if err := tb.BulkLoadContext(ctx, tuples); err != nil {
		t.Fatal(err)
	}
	if tb.Len() != 1500 {
		t.Fatalf("Len = %d", tb.Len())
	}
	if err := tb.Check(); err != nil {
		t.Fatal(err)
	}
	var count int
	prev := relation.Tuple(nil)
	sch := tb.Schema()
	if err := tb.ScanContext(ctx, func(tu relation.Tuple) bool {
		if prev != nil && sch.Compare(prev, tu) > 0 {
			t.Fatal("scan not in phi order")
		}
		prev = tu.Clone()
		count++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if count != 1500 {
		t.Fatalf("scanned %d tuples", count)
	}
}

func TestBulkLoadRejectsSecondLoad(t *testing.T) {
	ctx := context.Background()
	tb := newTable(t, core.CodecAVQ, nil)
	tuples := randomTuples(t, 20, 2)
	if err := tb.BulkLoadContext(ctx, tuples); err != nil {
		t.Fatal(err)
	}
	if err := tb.BulkLoadContext(ctx, tuples); err == nil {
		t.Fatal("second bulk load accepted")
	}
}

func TestBulkLoadValidates(t *testing.T) {
	tb := newTable(t, core.CodecAVQ, nil)
	if err := tb.BulkLoadContext(context.Background(), []relation.Tuple{{99, 0, 0, 0, 0}}); err == nil {
		t.Fatal("out-of-domain tuple accepted")
	}
}

func TestContains(t *testing.T) {
	tb := newTable(t, core.CodecAVQ, nil)
	tuples := randomTuples(t, 500, 3)
	if err := tb.BulkLoadContext(context.Background(), tuples); err != nil {
		t.Fatal(err)
	}
	for _, tu := range tuples[:50] {
		ok, err := tb.Contains(tu)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatalf("Contains(%v) = false for loaded tuple", tu)
		}
	}
	absent := relation.Tuple{7, 15, 63, 63, 4095}
	found := false
	for _, tu := range tuples {
		if tb.Schema().Compare(tu, absent) == 0 {
			found = true
		}
	}
	if !found {
		ok, err := tb.Contains(absent)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			t.Fatal("Contains reported an absent tuple")
		}
	}
}

func TestInsertIntoEmptyTable(t *testing.T) {
	tb := newTable(t, core.CodecAVQ, AllAttrs(testSchema(t)))
	tu := relation.Tuple{3, 8, 36, 39, 35}
	if err := tb.InsertContext(context.Background(), tu); err != nil {
		t.Fatal(err)
	}
	if tb.Len() != 1 || tb.NumBlocks() != 1 {
		t.Fatalf("len=%d blocks=%d", tb.Len(), tb.NumBlocks())
	}
	ok, err := tb.Contains(tu)
	if err != nil || !ok {
		t.Fatalf("Contains = %v, %v", ok, err)
	}
	if err := tb.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestInsertDeleteRoundTrip(t *testing.T) {
	ctx := context.Background()
	tb := newTable(t, core.CodecAVQ, AllAttrs(testSchema(t)))
	tuples := randomTuples(t, 300, 4)
	if err := tb.BulkLoadContext(ctx, tuples); err != nil {
		t.Fatal(err)
	}
	extra := randomTuples(t, 100, 5)
	for _, tu := range extra {
		if err := tb.InsertContext(ctx, tu); err != nil {
			t.Fatal(err)
		}
	}
	if tb.Len() != 400 {
		t.Fatalf("Len = %d", tb.Len())
	}
	if err := tb.Check(); err != nil {
		t.Fatal(err)
	}
	for _, tu := range extra {
		ok, err := tb.DeleteContext(ctx, tu)
		if err != nil || !ok {
			t.Fatalf("Delete(%v) = %v, %v", tu, ok, err)
		}
	}
	if tb.Len() != 300 {
		t.Fatalf("Len = %d after deletes", tb.Len())
	}
	if err := tb.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestDeleteAbsent(t *testing.T) {
	ctx := context.Background()
	tb := newTable(t, core.CodecAVQ, nil)
	if ok, err := tb.DeleteContext(ctx, relation.Tuple{1, 1, 1, 1, 1}); err != nil || ok {
		t.Fatalf("Delete on empty table = %v, %v", ok, err)
	}
	if err := tb.BulkLoadContext(ctx, randomTuples(t, 50, 6)); err != nil {
		t.Fatal(err)
	}
	before := tb.Len()
	// Delete until the specific tuple is definitely gone, then once more.
	victim := relation.Tuple{0, 0, 0, 0, 0}
	for {
		ok, err := tb.DeleteContext(ctx, victim)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
	}
	if tb.Len() > before {
		t.Fatal("Len grew during deletes")
	}
}

func TestDeleteDuplicates(t *testing.T) {
	ctx := context.Background()
	tb := newTable(t, core.CodecAVQ, AllAttrs(testSchema(t)))
	dup := relation.Tuple{3, 8, 36, 39, 35}
	batch := make([]relation.Tuple, 10)
	for i := range batch {
		batch[i] = dup.Clone()
	}
	if err := tb.BulkLoadContext(ctx, batch); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		ok, err := tb.DeleteContext(ctx, dup)
		if err != nil || !ok {
			t.Fatalf("duplicate delete %d: %v, %v", i, ok, err)
		}
	}
	if tb.Len() != 0 {
		t.Fatalf("Len = %d", tb.Len())
	}
	if ok, _ := tb.DeleteContext(ctx, dup); ok {
		t.Fatal("11th delete succeeded")
	}
	if err := tb.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestUpdate(t *testing.T) {
	ctx := context.Background()
	tb := newTable(t, core.CodecAVQ, AllAttrs(testSchema(t)))
	if err := tb.BulkLoadContext(ctx, randomTuples(t, 200, 7)); err != nil {
		t.Fatal(err)
	}
	var old relation.Tuple
	tb.ScanContext(ctx, func(tu relation.Tuple) bool {
		old = tu.Clone()
		return false
	})
	updated := old.Clone()
	updated[4] = (updated[4] + 1) % 4096
	ok, err := tb.UpdateContext(ctx, old, updated)
	if err != nil || !ok {
		t.Fatalf("Update = %v, %v", ok, err)
	}
	if got, _ := tb.Contains(updated); !got {
		t.Fatal("updated tuple missing")
	}
	if err := tb.Check(); err != nil {
		t.Fatal(err)
	}
	if tb.Len() != 200 {
		t.Fatalf("Len = %d after update", tb.Len())
	}
	// Updating an absent tuple is a no-op.
	ok, err = tb.UpdateContext(ctx, relation.Tuple{7, 15, 63, 63, 4095}, old)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		// Only fails if that tuple happened to exist; verify.
		t.Log("absent tuple existed in random data; acceptable")
	}
}

// referenceSelect computes sigma_{lo<=A_attr<=hi} naively over the loaded
// tuples.
func referenceSelect(s *relation.Schema, tuples []relation.Tuple, attr int, lo, hi uint64) []relation.Tuple {
	var out []relation.Tuple
	for _, tu := range tuples {
		if tu[attr] >= lo && tu[attr] <= hi {
			out = append(out, tu)
		}
	}
	s.SortTuples(out)
	return out
}

func TestSelectRangeAllStrategies(t *testing.T) {
	ctx := context.Background()
	s := testSchema(t)
	tuples := randomTuples(t, 2000, 8)
	// Index attrs 1..3 only, so attr 4 exercises the full scan path and
	// attr 0 the clustered path.
	tb := newTable(t, core.CodecAVQ, []int{1, 2, 3})
	if err := tb.BulkLoadContext(ctx, tuples); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		attr     int
		lo, hi   uint64
		strategy Strategy
	}{
		{0, 2, 5, StrategyClustered},
		{0, 0, 0, StrategyClustered},
		{1, 4, 10, StrategySecondary},
		{2, 0, 63, StrategySecondary},
		{3, 62, 63, StrategySecondary},
		{4, 1000, 2000, StrategyFullScan},
	}
	for _, c := range cases {
		got, stats, err := tb.SelectRangeContext(ctx, c.attr, c.lo, c.hi)
		if err != nil {
			t.Fatalf("SelectRange(%d,%d,%d): %v", c.attr, c.lo, c.hi, err)
		}
		if stats.Strategy != c.strategy {
			t.Errorf("attr %d: strategy %v, want %v", c.attr, stats.Strategy, c.strategy)
		}
		want := referenceSelect(s, tuples, c.attr, c.lo, c.hi)
		if len(got) != len(want) {
			t.Fatalf("attr %d [%d,%d]: %d matches, want %d", c.attr, c.lo, c.hi, len(got), len(want))
		}
		for i := range got {
			if s.Compare(got[i], want[i]) != 0 {
				t.Fatalf("attr %d: result %d mismatch", c.attr, i)
			}
		}
		if stats.Matches != len(want) {
			t.Fatalf("stats.Matches = %d, want %d", stats.Matches, len(want))
		}
		if stats.BlocksRead <= 0 && len(want) > 0 {
			t.Fatalf("matches found with zero blocks read")
		}
		if stats.BlocksRead > tb.NumBlocks() {
			t.Fatalf("read %d blocks of %d", stats.BlocksRead, tb.NumBlocks())
		}
	}
}

func TestSelectRangeEdges(t *testing.T) {
	ctx := context.Background()
	tb := newTable(t, core.CodecAVQ, []int{1})
	if _, _, err := tb.SelectRangeContext(ctx, 99, 0, 1); err == nil {
		t.Fatal("bad attribute accepted")
	}
	// Empty table.
	out, stats, err := tb.SelectRangeContext(ctx, 0, 0, 7)
	if err != nil || len(out) != 0 || stats.BlocksRead != 0 {
		t.Fatalf("empty table select: %d tuples, %+v, %v", len(out), stats, err)
	}
	if err := tb.BulkLoadContext(ctx, randomTuples(t, 100, 9)); err != nil {
		t.Fatal(err)
	}
	// Inverted range.
	out, _, err = tb.SelectRangeContext(ctx, 1, 10, 2)
	if err != nil || len(out) != 0 {
		t.Fatalf("inverted range returned %d tuples, %v", len(out), err)
	}
	// Range clipped to the domain.
	out, _, err = tb.SelectRangeContext(ctx, 0, 0, 10000)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 100 {
		t.Fatalf("clipped range matched %d of 100", len(out))
	}
	// lo beyond the domain matches nothing.
	out, _, err = tb.SelectRangeContext(ctx, 0, 5000, 10000)
	if err != nil || len(out) != 0 {
		t.Fatalf("out-of-domain lo matched %d", len(out))
	}
}

// TestClusteredReadsFewerBlocks checks the clustering effect behind the
// paper's Figure 5.8 attribute-1 column: a narrow predicate on the
// clustering prefix touches a small contiguous band of blocks.
func TestClusteredReadsFewerBlocks(t *testing.T) {
	ctx := context.Background()
	tb := newTable(t, core.CodecAVQ, nil)
	if err := tb.BulkLoadContext(ctx, randomTuples(t, 4000, 10)); err != nil {
		t.Fatal(err)
	}
	_, stats, err := tb.SelectRangeContext(ctx, 0, 3, 3) // one of 8 uniform values
	if err != nil {
		t.Fatal(err)
	}
	if frac := float64(stats.BlocksRead) / float64(tb.NumBlocks()); frac > 0.3 {
		t.Fatalf("clustered query read %.0f%% of blocks", 100*frac)
	}
}

// TestCodecsAgree is the cross-engine differential test: an AVQ table and
// a raw (uncoded) table loaded with the same data must answer every query
// identically. This is the paper's core claim — compression changes the
// physical layout, never the semantics.
func TestCodecsAgree(t *testing.T) {
	ctx := context.Background()
	s := testSchema(t)
	tuples := randomTuples(t, 1200, 11)
	secondaries := AllAttrs(s)
	avq := newTable(t, core.CodecAVQ, secondaries)
	raw := newTable(t, core.CodecRaw, secondaries)
	if err := avq.BulkLoadContext(ctx, tuples); err != nil {
		t.Fatal(err)
	}
	if err := raw.BulkLoadContext(ctx, tuples); err != nil {
		t.Fatal(err)
	}
	if avq.NumBlocks() >= raw.NumBlocks() {
		t.Fatalf("AVQ uses %d blocks, raw %d: no compression", avq.NumBlocks(), raw.NumBlocks())
	}
	rng := rand.New(rand.NewSource(12))
	for q := 0; q < 100; q++ {
		attr := rng.Intn(s.NumAttrs())
		span := s.Domain(attr).Size
		lo := uint64(rng.Int63n(int64(span)))
		hi := lo + uint64(rng.Int63n(int64(span-lo)))
		a, _, err := avq.SelectRangeContext(ctx, attr, lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		r, _, err := raw.SelectRangeContext(ctx, attr, lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		if len(a) != len(r) {
			t.Fatalf("query %d: avq %d matches, raw %d", q, len(a), len(r))
		}
		for i := range a {
			if s.Compare(a[i], r[i]) != 0 {
				t.Fatalf("query %d: result %d differs", q, i)
			}
		}
	}
}

// TestRandomizedOperationsAgainstModel runs a mixed workload against a
// multiset reference model with invariant checks.
func TestRandomizedOperationsAgainstModel(t *testing.T) {
	ctx := context.Background()
	s := testSchema(t)
	tb := newTable(t, core.CodecAVQ, []int{1, 4})
	rng := rand.New(rand.NewSource(13))
	live := map[string]int{}
	key := func(tu relation.Tuple) string { return string(s.EncodeTuple(nil, tu)) }
	randTuple := func() relation.Tuple {
		return relation.Tuple{
			uint64(rng.Intn(8)), uint64(rng.Intn(16)),
			uint64(rng.Intn(64)), uint64(rng.Intn(64)), uint64(rng.Intn(64)),
		}
	}
	for op := 0; op < 600; op++ {
		switch rng.Intn(5) {
		case 0, 1, 2: // insert
			tu := randTuple()
			if err := tb.InsertContext(ctx, tu); err != nil {
				t.Fatalf("op %d insert: %v", op, err)
			}
			live[key(tu)]++
		case 3: // delete
			tu := randTuple()
			ok, err := tb.DeleteContext(ctx, tu)
			if err != nil {
				t.Fatalf("op %d delete: %v", op, err)
			}
			if ok != (live[key(tu)] > 0) {
				t.Fatalf("op %d: delete=%v reference=%d", op, ok, live[key(tu)])
			}
			if ok {
				live[key(tu)]--
				if live[key(tu)] == 0 {
					delete(live, key(tu))
				}
			}
		case 4: // contains
			tu := randTuple()
			ok, err := tb.Contains(tu)
			if err != nil {
				t.Fatalf("op %d contains: %v", op, err)
			}
			if ok != (live[key(tu)] > 0) {
				t.Fatalf("op %d: contains=%v reference=%d", op, ok, live[key(tu)])
			}
		}
		if op%100 == 99 {
			if err := tb.Check(); err != nil {
				t.Fatalf("op %d: %v", op, err)
			}
		}
	}
	total := 0
	for _, n := range live {
		total += n
	}
	if tb.Len() != total {
		t.Fatalf("Len = %d, reference %d", tb.Len(), total)
	}
	if err := tb.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestBlocksForValue(t *testing.T) {
	ctx := context.Background()
	tb := newTable(t, core.CodecAVQ, []int{4})
	tuples := randomTuples(t, 400, 14)
	if err := tb.BulkLoadContext(ctx, tuples); err != nil {
		t.Fatal(err)
	}
	v := tuples[0][4]
	pages := tb.BlocksForValue(4, v)
	if len(pages) == 0 {
		t.Fatal("no bucket for a loaded value")
	}
	// The bucket's blocks really contain the value.
	for _, page := range pages {
		out, _, err := tb.SelectPointContext(ctx, 4, v)
		if err != nil {
			t.Fatal(err)
		}
		if len(out) == 0 {
			t.Fatal("SelectPoint found nothing for bucketed value")
		}
		_ = page
	}
	if got := tb.BlocksForValue(2, 1); got != nil {
		t.Fatal("bucket returned for unindexed attribute")
	}
}

func TestDropCacheAndDiskAccounting(t *testing.T) {
	ctx := context.Background()
	tb := newTable(t, core.CodecAVQ, []int{1})
	if err := tb.BulkLoadContext(ctx, randomTuples(t, 2000, 15)); err != nil {
		t.Fatal(err)
	}
	if err := tb.DropCache(); err != nil {
		t.Fatal(err)
	}
	tb.Disk().Reset()
	_, stats, err := tb.SelectRangeContext(ctx, 1, 0, 7)
	if err != nil {
		t.Fatal(err)
	}
	ds := tb.Disk().Stats()
	if int(ds.Reads) != stats.BlocksRead {
		t.Fatalf("disk reads %d != query blocks %d (cold run)", ds.Reads, stats.BlocksRead)
	}
	if ds.Elapsed <= 0 {
		t.Fatal("no simulated I/O time accumulated")
	}
}

func TestStoreStatsAndIndexCounts(t *testing.T) {
	tb := newTable(t, core.CodecAVQ, AllAttrs(testSchema(t)))
	if err := tb.BulkLoadContext(context.Background(), randomTuples(t, 1000, 16)); err != nil {
		t.Fatal(err)
	}
	st, err := tb.StoreStats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Tuples != 1000 || st.Blocks != tb.NumBlocks() {
		t.Fatalf("stats = %+v", st)
	}
	if tb.IndexNodeCount() <= 0 || tb.PrimaryHeight() <= 0 {
		t.Fatal("index counters not populated")
	}
}

func TestStrategyString(t *testing.T) {
	if StrategyClustered.String() != "clustered" ||
		StrategySecondary.String() != "secondary" ||
		StrategyFullScan.String() != "full-scan" {
		t.Fatal("unexpected strategy names")
	}
	if Strategy(9).String() == "" {
		t.Fatal("unknown strategy should render")
	}
}
