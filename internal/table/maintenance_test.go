package table

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/extsort"
	"repro/internal/relation"
)

func TestInsertBatchMatchesSequential(t *testing.T) {
	ctx := context.Background()
	s := testSchema(t)
	base := randomTuples(t, 800, 71)
	batch := randomTuples(t, 400, 72)

	seq := newTable(t, core.CodecAVQ, AllAttrs(s))
	bat := newTable(t, core.CodecAVQ, AllAttrs(s))
	if err := seq.BulkLoadContext(ctx, base); err != nil {
		t.Fatal(err)
	}
	if err := bat.BulkLoadContext(ctx, base); err != nil {
		t.Fatal(err)
	}
	for _, tu := range batch {
		if err := seq.InsertContext(ctx, tu); err != nil {
			t.Fatal(err)
		}
	}
	if err := bat.InsertBatchContext(ctx, batch); err != nil {
		t.Fatal(err)
	}
	if seq.Len() != bat.Len() {
		t.Fatalf("len: sequential %d, batch %d", seq.Len(), bat.Len())
	}
	if err := bat.Check(); err != nil {
		t.Fatal(err)
	}
	// Same logical contents in the same phi order.
	var a, b []relation.Tuple
	seq.ScanContext(ctx, func(tu relation.Tuple) bool { a = append(a, tu.Clone()); return true })
	bat.ScanContext(ctx, func(tu relation.Tuple) bool { b = append(b, tu.Clone()); return true })
	if len(a) != len(b) {
		t.Fatalf("scan lengths %d vs %d", len(a), len(b))
	}
	for i := range a {
		if s.Compare(a[i], b[i]) != 0 {
			t.Fatalf("tuple %d differs: %v vs %v", i, a[i], b[i])
		}
	}
	// Queries agree too.
	rng := rand.New(rand.NewSource(73))
	for q := 0; q < 30; q++ {
		attr := rng.Intn(s.NumAttrs())
		span := s.Domain(attr).Size
		lo := uint64(rng.Int63n(int64(span)))
		hi := lo + uint64(rng.Int63n(int64(span-lo)))
		x, _, err := seq.SelectRangeContext(ctx, attr, lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		y, _, err := bat.SelectRangeContext(ctx, attr, lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		if len(x) != len(y) {
			t.Fatalf("query %d: %d vs %d rows", q, len(x), len(y))
		}
	}
}

func TestInsertBatchEmptyTable(t *testing.T) {
	tb := newTable(t, core.CodecAVQ, []int{1})
	batch := randomTuples(t, 300, 74)
	if err := tb.InsertBatchContext(context.Background(), batch); err != nil {
		t.Fatal(err)
	}
	if tb.Len() != 300 {
		t.Fatalf("Len = %d", tb.Len())
	}
	if err := tb.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestInsertBatchEdgeCases(t *testing.T) {
	ctx := context.Background()
	tb := newTable(t, core.CodecAVQ, nil)
	if err := tb.InsertBatchContext(ctx, nil); err != nil {
		t.Fatal(err)
	}
	if err := tb.InsertBatchContext(ctx, []relation.Tuple{{99, 0, 0, 0, 0}}); err == nil {
		t.Fatal("invalid tuple accepted")
	}
	// A batch that lands entirely before the first block.
	if err := tb.BulkLoadContext(ctx, []relation.Tuple{{7, 15, 63, 63, 4095}}); err != nil {
		t.Fatal(err)
	}
	early := []relation.Tuple{{0, 0, 0, 0, 1}, {0, 0, 0, 0, 2}}
	if err := tb.InsertBatchContext(ctx, early); err != nil {
		t.Fatal(err)
	}
	if tb.Len() != 3 {
		t.Fatalf("Len = %d", tb.Len())
	}
	if err := tb.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestInsertBatchForcesSplits(t *testing.T) {
	ctx := context.Background()
	tb := newTable(t, core.CodecAVQ, []int{4})
	if err := tb.BulkLoadContext(ctx, randomTuples(t, 200, 75)); err != nil {
		t.Fatal(err)
	}
	before := tb.NumBlocks()
	// A large batch into a small-paged table must split blocks.
	if err := tb.InsertBatchContext(ctx, randomTuples(t, 2000, 76)); err != nil {
		t.Fatal(err)
	}
	if tb.NumBlocks() <= before {
		t.Fatalf("blocks %d did not grow from %d", tb.NumBlocks(), before)
	}
	if tb.Len() != 2200 {
		t.Fatalf("Len = %d", tb.Len())
	}
	if err := tb.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestDeleteWhere(t *testing.T) {
	ctx := context.Background()
	s := testSchema(t)
	tuples := randomTuples(t, 1000, 77)
	tb := newTable(t, core.CodecAVQ, []int{1})
	if err := tb.BulkLoadContext(ctx, tuples); err != nil {
		t.Fatal(err)
	}
	preds := []Predicate{{Attr: 1, Lo: 0, Hi: 7}}
	want := 0
	for _, tu := range tuples {
		if tu[1] <= 7 {
			want++
		}
	}
	removed, err := tb.DeleteWhereContext(ctx, preds)
	if err != nil {
		t.Fatal(err)
	}
	if removed != want {
		t.Fatalf("removed %d, want %d", removed, want)
	}
	if tb.Len() != 1000-want {
		t.Fatalf("Len = %d", tb.Len())
	}
	// Nothing left in the range.
	n, _, err := tb.CountRangeContext(ctx, 1, 0, 7)
	if err != nil || n != 0 {
		t.Fatalf("range still has %d rows, %v", n, err)
	}
	if err := tb.Check(); err != nil {
		t.Fatal(err)
	}
	_ = s
}

func TestCompactReclaimsSpace(t *testing.T) {
	ctx := context.Background()
	tb := newTable(t, core.CodecAVQ, []int{1, 4})
	tuples := randomTuples(t, 3000, 78)
	if err := tb.BulkLoadContext(ctx, tuples); err != nil {
		t.Fatal(err)
	}
	// Delete two thirds, leaving blocks underfull.
	removed, err := tb.DeleteWhereContext(ctx, []Predicate{{Attr: 4, Lo: 0, Hi: 2730}})
	if err != nil {
		t.Fatal(err)
	}
	if removed == 0 {
		t.Fatal("nothing deleted")
	}
	lenBefore := tb.Len()
	before, after, err := tb.CompactContext(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if after >= before {
		t.Fatalf("compact did not shrink: %d -> %d blocks", before, after)
	}
	if tb.Len() != lenBefore {
		t.Fatalf("compact changed Len: %d -> %d", lenBefore, tb.Len())
	}
	if err := tb.Check(); err != nil {
		t.Fatal(err)
	}
	// Queries still work through rebuilt indexes.
	rows, stats, err := tb.SelectRangeContext(ctx, 1, 0, 15)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != tb.Len() {
		t.Fatalf("full-range query found %d of %d", len(rows), tb.Len())
	}
	if stats.BlocksRead != after {
		t.Fatalf("query read %d blocks of %d", stats.BlocksRead, after)
	}
}

func TestCompactEmptyTable(t *testing.T) {
	tb := newTable(t, core.CodecAVQ, nil)
	before, after, err := tb.CompactContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if before != 0 || after != 0 {
		t.Fatalf("empty compact: %d -> %d", before, after)
	}
}

func TestCompactPersistentTable(t *testing.T) {
	ctx := context.Background()
	path := tempPath(t)
	tb, err := Create(testSchema(t),
		WithCodec(core.CodecAVQ),
		WithPageSize(512),
		WithPath(path),
		WithSecondaryAttrs(1),
	)
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.BulkLoadContext(ctx, randomTuples(t, 1000, 79)); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.DeleteWhereContext(ctx, []Predicate{{Attr: 1, Lo: 0, Hi: 11}}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := tb.CompactContext(ctx); err != nil {
		t.Fatal(err)
	}
	wantLen := tb.Len()
	if err := tb.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := Open(path, WithPageSize(512))
	if err != nil {
		t.Fatal(err)
	}
	defer got.Close()
	if got.Len() != wantLen {
		t.Fatalf("Len after compact+reopen = %d, want %d", got.Len(), wantLen)
	}
	if err := got.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestBulkLoadStreamMatchesBulkLoad(t *testing.T) {
	ctx := context.Background()
	s := testSchema(t)
	tuples := randomTuples(t, 2500, 85)
	sorted := make([]relation.Tuple, len(tuples))
	for i, tu := range tuples {
		sorted[i] = tu.Clone()
	}
	s.SortTuples(sorted)

	plain := newTable(t, core.CodecAVQ, []int{1})
	if err := plain.BulkLoadContext(ctx, tuples); err != nil {
		t.Fatal(err)
	}
	streamed := newTable(t, core.CodecAVQ, []int{1})
	i := 0
	if err := streamed.BulkLoadStreamContext(ctx, func() (relation.Tuple, bool, error) {
		if i >= len(sorted) {
			return nil, false, nil
		}
		tu := sorted[i]
		i++
		return tu, true, nil
	}); err != nil {
		t.Fatal(err)
	}
	if streamed.Len() != plain.Len() {
		t.Fatalf("streamed %d tuples, plain %d", streamed.Len(), plain.Len())
	}
	if streamed.NumBlocks() != plain.NumBlocks() {
		t.Fatalf("streamed %d blocks, plain %d (packing must agree)",
			streamed.NumBlocks(), plain.NumBlocks())
	}
	if err := streamed.Check(); err != nil {
		t.Fatal(err)
	}
	var a, b []relation.Tuple
	plain.ScanContext(ctx, func(tu relation.Tuple) bool { a = append(a, tu.Clone()); return true })
	streamed.ScanContext(ctx, func(tu relation.Tuple) bool { b = append(b, tu.Clone()); return true })
	for i := range a {
		if s.Compare(a[i], b[i]) != 0 {
			t.Fatalf("tuple %d differs", i)
		}
	}
}

func TestBulkLoadStreamRejectsUnsorted(t *testing.T) {
	tb := newTable(t, core.CodecAVQ, nil)
	seq := []relation.Tuple{{5, 0, 0, 0, 0}, {1, 0, 0, 0, 0}}
	i := 0
	err := tb.BulkLoadStreamContext(context.Background(), func() (relation.Tuple, bool, error) {
		if i >= len(seq) {
			return nil, false, nil
		}
		tu := seq[i]
		i++
		return tu, true, nil
	})
	if err == nil {
		t.Fatal("unsorted stream accepted")
	}
}

func TestBulkLoadStreamFromExternalSort(t *testing.T) {
	s := testSchema(t)
	sorter, err := extsort.New(s, t.TempDir(), 256)
	if err != nil {
		t.Fatal(err)
	}
	tuples := randomTuples(t, 3000, 86)
	for _, tu := range tuples {
		if err := sorter.Add(tu); err != nil {
			t.Fatal(err)
		}
	}
	// Bridge the sorter's push iterator to the table's pull stream through
	// a channel-free adapter: collect is avoided by running Iterate in a
	// goroutine feeding a channel.
	type item struct{ tu relation.Tuple }
	ch := make(chan item, 64)
	errCh := make(chan error, 1)
	go func() {
		errCh <- sorter.Iterate(func(tu relation.Tuple) bool {
			ch <- item{tu.Clone()}
			return true
		})
		close(ch)
	}()
	tb := newTable(t, core.CodecAVQ, []int{1})
	if err := tb.BulkLoadStreamContext(context.Background(), func() (relation.Tuple, bool, error) {
		it, ok := <-ch
		if !ok {
			return nil, false, nil
		}
		return it.tu, true, nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
	if tb.Len() != 3000 {
		t.Fatalf("Len = %d", tb.Len())
	}
	if err := tb.Check(); err != nil {
		t.Fatal(err)
	}
}
