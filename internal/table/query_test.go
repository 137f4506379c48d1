package table

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/relation"
)

// newHashTable builds a table whose secondary indexes are hash-backed.
func newHashTable(t testing.TB, secondaries []int) *Table {
	t.Helper()
	tb, err := Create(testSchema(t),
		WithCodec(core.CodecAVQ),
		WithPageSize(512),
		WithSecondaryAttrs(secondaries...),
		WithSecondaryKind(IndexHash),
	)
	if err != nil {
		t.Fatal(err)
	}
	return tb
}

func TestHashSecondaryAgreesWithBTree(t *testing.T) {
	ctx := context.Background()
	s := testSchema(t)
	tuples := randomTuples(t, 1500, 21)
	bt := newTable(t, core.CodecAVQ, AllAttrs(s))
	hs := newHashTable(t, AllAttrs(s))
	if err := bt.BulkLoadContext(ctx, tuples); err != nil {
		t.Fatal(err)
	}
	if err := hs.BulkLoadContext(ctx, tuples); err != nil {
		t.Fatal(err)
	}
	if err := hs.Check(); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(22))
	for q := 0; q < 60; q++ {
		attr := rng.Intn(s.NumAttrs())
		span := s.Domain(attr).Size
		lo := uint64(rng.Int63n(int64(span)))
		hi := lo + uint64(rng.Int63n(int64(span-lo)))
		a, aStats, err := bt.SelectRangeContext(ctx, attr, lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		b, bStats, err := hs.SelectRangeContext(ctx, attr, lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		if len(a) != len(b) {
			t.Fatalf("query %d attr %d [%d,%d]: btree %d rows (%v), hash %d rows (%v)",
				q, attr, lo, hi, len(a), aStats.Strategy, len(b), bStats.Strategy)
		}
		for i := range a {
			if s.Compare(a[i], b[i]) != 0 {
				t.Fatalf("query %d: row %d differs", q, i)
			}
		}
	}
}

func TestHashSecondaryPointQuery(t *testing.T) {
	ctx := context.Background()
	tuples := randomTuples(t, 800, 23)
	hs := newHashTable(t, []int{4})
	if err := hs.BulkLoadContext(ctx, tuples); err != nil {
		t.Fatal(err)
	}
	v := tuples[17][4]
	rows, stats, err := hs.SelectPointContext(ctx, 4, v)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Strategy != StrategySecondary {
		t.Fatalf("point query used %v path", stats.Strategy)
	}
	if len(rows) == 0 {
		t.Fatal("point query found nothing for a loaded value")
	}
	for _, tu := range rows {
		if tu[4] != v {
			t.Fatalf("row %v does not match point predicate", tu)
		}
	}
}

func TestHashSecondaryWideRangeFallsBack(t *testing.T) {
	ctx := context.Background()
	// A range wider than the enumeration limit on a hash-indexed attribute
	// must fall back to a full scan rather than probing thousands of keys.
	s := relation.MustSchema(
		relation.Domain{Name: "a", Size: 8},
		relation.Domain{Name: "b", Size: 1 << 20},
	)
	tb, err := Create(s,
		WithCodec(core.CodecAVQ),
		WithPageSize(512),
		WithSecondaryAttrs(1),
		WithSecondaryKind(IndexHash),
	)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(24))
	tuples := make([]relation.Tuple, 500)
	for i := range tuples {
		tuples[i] = relation.Tuple{uint64(rng.Intn(8)), uint64(rng.Intn(1 << 20))}
	}
	if err := tb.BulkLoadContext(ctx, tuples); err != nil {
		t.Fatal(err)
	}
	_, stats, err := tb.SelectRangeContext(ctx, 1, 0, 1<<19)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Strategy != StrategyFullScan {
		t.Fatalf("wide hash range used %v path", stats.Strategy)
	}
	// A narrow range enumerates through the hash index.
	_, stats, err = tb.SelectRangeContext(ctx, 1, 100, 150)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Strategy != StrategySecondary {
		t.Fatalf("narrow hash range used %v path", stats.Strategy)
	}
}

func TestSelectConjunction(t *testing.T) {
	ctx := context.Background()
	s := testSchema(t)
	tuples := randomTuples(t, 2000, 25)
	tb := newTable(t, core.CodecAVQ, []int{1, 4})
	if err := tb.BulkLoadContext(ctx, tuples); err != nil {
		t.Fatal(err)
	}
	preds := []Predicate{
		{Attr: 1, Lo: 2, Hi: 9},
		{Attr: 2, Lo: 10, Hi: 50},
		{Attr: 4, Lo: 100, Hi: 700},
	}
	got, stats, err := tb.SelectContext(ctx, preds)
	if err != nil {
		t.Fatal(err)
	}
	// Reference evaluation.
	var want []relation.Tuple
	for _, tu := range tuples {
		ok := true
		for _, p := range preds {
			if tu[p.Attr] < p.Lo || tu[p.Attr] > p.Hi {
				ok = false
				break
			}
		}
		if ok {
			want = append(want, tu)
		}
	}
	s.SortTuples(want)
	if len(got) != len(want) {
		t.Fatalf("conjunction matched %d rows, want %d", len(got), len(want))
	}
	for i := range got {
		if s.Compare(got[i], want[i]) != 0 {
			t.Fatalf("row %d differs", i)
		}
	}
	if stats.Matches != len(want) {
		t.Fatalf("stats.Matches = %d, want %d", stats.Matches, len(want))
	}
	// The driver must be the most selective indexed predicate: attr 4 with
	// span 601/4096 beats attr 1 with span 8/16; attr 2 is unindexed.
	if stats.Strategy != StrategySecondary {
		t.Fatalf("driver strategy = %v", stats.Strategy)
	}
}

func TestSelectEmptyPredicates(t *testing.T) {
	ctx := context.Background()
	tb := newTable(t, core.CodecAVQ, nil)
	if err := tb.BulkLoadContext(ctx, randomTuples(t, 100, 26)); err != nil {
		t.Fatal(err)
	}
	rows, _, err := tb.SelectContext(ctx, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 100 {
		t.Fatalf("empty conjunction returned %d rows", len(rows))
	}
	if _, _, err := tb.SelectContext(ctx, []Predicate{{Attr: 99}}); err == nil {
		t.Fatal("bad predicate accepted")
	}
}

func TestAggregateRange(t *testing.T) {
	ctx := context.Background()
	tuples := randomTuples(t, 1000, 27)
	tb := newTable(t, core.CodecAVQ, []int{1})
	if err := tb.BulkLoadContext(ctx, tuples); err != nil {
		t.Fatal(err)
	}
	res, _, err := tb.AggregateRangeContext(ctx, 1, 3, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	wantCount, wantSum := 0, uint64(0)
	wantMin, wantMax := uint64(1<<62), uint64(0)
	for _, tu := range tuples {
		if tu[1] >= 3 && tu[1] <= 8 {
			wantCount++
			wantSum += tu[2]
			if tu[2] < wantMin {
				wantMin = tu[2]
			}
			if tu[2] > wantMax {
				wantMax = tu[2]
			}
		}
	}
	if res.Count != wantCount || res.Sum != wantSum || res.Min != wantMin || res.Max != wantMax {
		t.Fatalf("aggregate = %+v, want count=%d sum=%d min=%d max=%d",
			res, wantCount, wantSum, wantMin, wantMax)
	}
	// Empty result range.
	res, _, err = tb.AggregateRangeContext(ctx, 1, 15, 15, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != 0 || res.Min != 0 {
		emptyOK := true
		for _, tu := range tuples {
			if tu[1] == 15 {
				emptyOK = false
			}
		}
		if emptyOK {
			t.Fatalf("empty aggregate = %+v", res)
		}
	}
	if _, _, err := tb.AggregateRangeContext(ctx, 1, 0, 1, 99); err == nil {
		t.Fatal("bad aggregate attribute accepted")
	}
}

func TestCountRangeStreams(t *testing.T) {
	ctx := context.Background()
	tb := newTable(t, core.CodecAVQ, []int{1})
	tuples := randomTuples(t, 500, 28)
	if err := tb.BulkLoadContext(ctx, tuples); err != nil {
		t.Fatal(err)
	}
	n, stats, err := tb.CountRangeContext(ctx, 1, 0, 7)
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for _, tu := range tuples {
		if tu[1] <= 7 {
			want++
		}
	}
	if n != want || stats.Matches != want {
		t.Fatalf("CountRange = %d (stats %d), want %d", n, stats.Matches, want)
	}
}

func TestProject(t *testing.T) {
	rows := []relation.Tuple{{1, 2, 3}, {4, 5, 6}}
	got, err := Project(rows, []int{2, 0})
	if err != nil {
		t.Fatal(err)
	}
	if got[0][0] != 3 || got[0][1] != 1 || got[1][0] != 6 || got[1][1] != 4 {
		t.Fatalf("Project = %v", got)
	}
	if _, err := Project(rows, []int{5}); err == nil {
		t.Fatal("out-of-range projection accepted")
	}
}

func TestSelectRangeFuncEarlyStop(t *testing.T) {
	ctx := context.Background()
	tb := newTable(t, core.CodecAVQ, nil)
	if err := tb.BulkLoadContext(ctx, randomTuples(t, 1000, 29)); err != nil {
		t.Fatal(err)
	}
	seen := 0
	_, err := tb.SelectRangeFuncContext(ctx, 0, 0, 7, func(tu relation.Tuple) bool {
		seen++
		return seen < 10
	})
	if err != nil {
		t.Fatal(err)
	}
	if seen != 10 {
		t.Fatalf("early stop visited %d rows", seen)
	}
}

// referenceJoin computes the equi-join naively.
func referenceJoin(l, r []relation.Tuple, lattr, rattr int) int {
	count := 0
	for _, a := range l {
		for _, b := range r {
			if a[lattr] == b[rattr] {
				count++
			}
		}
	}
	return count
}

func TestHashJoin(t *testing.T) {
	ctx := context.Background()
	s := testSchema(t)
	lt := randomTuples(t, 600, 30)
	rt := randomTuples(t, 300, 31)
	left := newTable(t, core.CodecAVQ, nil)
	right := newTable(t, core.CodecRaw, nil) // mixed codecs join fine
	if err := left.BulkLoadContext(ctx, lt); err != nil {
		t.Fatal(err)
	}
	if err := right.BulkLoadContext(ctx, rt); err != nil {
		t.Fatal(err)
	}
	rows, stats, err := HashJoinContext(ctx, left, right, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := referenceJoin(lt, rt, 1, 1)
	if len(rows) != want || stats.Matches != want {
		t.Fatalf("HashJoin = %d rows (stats %d), want %d", len(rows), stats.Matches, want)
	}
	for _, jr := range rows {
		if jr.Left[1] != jr.Right[1] {
			t.Fatalf("join row violates predicate: %v vs %v", jr.Left, jr.Right)
		}
	}
	if stats.LeftBlocks != left.NumBlocks() || stats.RightBlocks != right.NumBlocks() {
		t.Fatalf("join stats = %+v, blocks %d/%d", stats, left.NumBlocks(), right.NumBlocks())
	}
	if _, _, err := HashJoinContext(ctx, left, right, 99, 1); err == nil {
		t.Fatal("bad join attribute accepted")
	}
	_ = s
}

func TestMergeJoin(t *testing.T) {
	ctx := context.Background()
	lt := randomTuples(t, 500, 32)
	rt := randomTuples(t, 400, 33)
	left := newTable(t, core.CodecAVQ, nil)
	right := newTable(t, core.CodecAVQ, nil)
	if err := left.BulkLoadContext(ctx, lt); err != nil {
		t.Fatal(err)
	}
	if err := right.BulkLoadContext(ctx, rt); err != nil {
		t.Fatal(err)
	}
	rows, stats, err := MergeJoinContext(ctx, left, right)
	if err != nil {
		t.Fatal(err)
	}
	want := referenceJoin(lt, rt, 0, 0)
	if len(rows) != want {
		t.Fatalf("MergeJoin = %d rows, want %d", len(rows), want)
	}
	for _, jr := range rows {
		if jr.Left[0] != jr.Right[0] {
			t.Fatal("join row violates predicate")
		}
	}
	// One pass over each side.
	if stats.LeftBlocks != left.NumBlocks() || stats.RightBlocks != right.NumBlocks() {
		t.Fatalf("merge join read %d/%d blocks, want %d/%d",
			stats.LeftBlocks, stats.RightBlocks, left.NumBlocks(), right.NumBlocks())
	}
}

func TestMergeJoinAgreesWithHashJoin(t *testing.T) {
	ctx := context.Background()
	lt := randomTuples(t, 400, 34)
	rt := randomTuples(t, 350, 35)
	left := newTable(t, core.CodecAVQ, nil)
	right := newTable(t, core.CodecAVQ, nil)
	if err := left.BulkLoadContext(ctx, lt); err != nil {
		t.Fatal(err)
	}
	if err := right.BulkLoadContext(ctx, rt); err != nil {
		t.Fatal(err)
	}
	mj, _, err := MergeJoinContext(ctx, left, right)
	if err != nil {
		t.Fatal(err)
	}
	hj, _, err := HashJoinContext(ctx, left, right, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(mj) != len(hj) {
		t.Fatalf("merge join %d rows, hash join %d", len(mj), len(hj))
	}
}

func TestJoinEmptySides(t *testing.T) {
	ctx := context.Background()
	left := newTable(t, core.CodecAVQ, nil)
	right := newTable(t, core.CodecAVQ, nil)
	if err := right.BulkLoadContext(ctx, randomTuples(t, 50, 36)); err != nil {
		t.Fatal(err)
	}
	rows, _, err := HashJoinContext(ctx, left, right, 0, 0)
	if err != nil || len(rows) != 0 {
		t.Fatalf("join with empty left = %d rows, %v", len(rows), err)
	}
	rows, _, err = MergeJoinContext(ctx, left, right)
	if err != nil || len(rows) != 0 {
		t.Fatalf("merge join with empty left = %d rows, %v", len(rows), err)
	}
}

func TestIndexKindString(t *testing.T) {
	if IndexBTree.String() != "btree" || IndexHash.String() != "hash" {
		t.Fatal("unexpected index kind names")
	}
	if IndexKind(7).String() == "" {
		t.Fatal("unknown kind should render")
	}
}

func TestHashTableMutations(t *testing.T) {
	ctx := context.Background()
	tb := newHashTable(t, []int{1, 4})
	tuples := randomTuples(t, 300, 37)
	if err := tb.BulkLoadContext(ctx, tuples); err != nil {
		t.Fatal(err)
	}
	extra := randomTuples(t, 80, 38)
	for _, tu := range extra {
		if err := tb.InsertContext(ctx, tu); err != nil {
			t.Fatal(err)
		}
	}
	for _, tu := range extra {
		ok, err := tb.DeleteContext(ctx, tu)
		if err != nil || !ok {
			t.Fatalf("delete: %v, %v", ok, err)
		}
	}
	if err := tb.Check(); err != nil {
		t.Fatal(err)
	}
	if tb.Len() != 300 {
		t.Fatalf("Len = %d", tb.Len())
	}
}
