package table

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/relation"
)

func TestCursorFullScan(t *testing.T) {
	ctx := context.Background()
	s := testSchema(t)
	tb := newTable(t, core.CodecAVQ, nil)
	tuples := randomTuples(t, 1500, 93)
	if err := tb.BulkLoadContext(ctx, tuples); err != nil {
		t.Fatal(err)
	}
	c := tb.NewCursorContext(ctx)
	var prev relation.Tuple
	count := 0
	for {
		tu, ok, err := c.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if prev != nil && s.Compare(prev, tu) > 0 {
			t.Fatal("cursor not in phi order")
		}
		prev = tu.Clone()
		count++
	}
	if count != 1500 {
		t.Fatalf("cursor visited %d of 1500", count)
	}
	// Exhausted cursor stays exhausted.
	if _, ok, err := c.Next(); ok || err != nil {
		t.Fatalf("exhausted cursor returned ok=%v err=%v", ok, err)
	}
}

func TestCursorSeek(t *testing.T) {
	ctx := context.Background()
	s := testSchema(t)
	tb := newTable(t, core.CodecAVQ, nil)
	tuples := randomTuples(t, 2000, 94)
	if err := tb.BulkLoadContext(ctx, tuples); err != nil {
		t.Fatal(err)
	}
	// Sorted reference.
	sorted := make([]relation.Tuple, len(tuples))
	for i, tu := range tuples {
		sorted[i] = tu.Clone()
	}
	s.SortTuples(sorted)

	for _, idx := range []int{0, 1, 500, 1000, 1999} {
		target := sorted[idx]
		c := tb.NewCursorContext(ctx)
		if err := c.Seek(target); err != nil {
			t.Fatal(err)
		}
		tu, ok, err := c.Next()
		if err != nil || !ok {
			t.Fatalf("Seek(%v): Next ok=%v err=%v", target, ok, err)
		}
		if s.Compare(tu, target) != 0 {
			t.Fatalf("Seek landed on %v, want %v", tu, target)
		}
	}
	// Seek past the end.
	c := tb.NewCursorContext(ctx)
	if err := c.Seek(relation.Tuple{7, 15, 63, 63, 4095}); err != nil {
		t.Fatal(err)
	}
	tu, ok, err := c.Next()
	if err != nil {
		t.Fatal(err)
	}
	if ok && s.Compare(tu, relation.Tuple{7, 15, 63, 63, 4095}) < 0 {
		t.Fatalf("Seek past end returned smaller tuple %v", tu)
	}
	// Seek before the beginning lands on the minimum.
	c = tb.NewCursorContext(ctx)
	if err := c.Seek(relation.Tuple{0, 0, 0, 0, 0}); err != nil {
		t.Fatal(err)
	}
	tu, ok, err = c.Next()
	if err != nil || !ok {
		t.Fatalf("Seek(min): ok=%v err=%v", ok, err)
	}
	if s.Compare(tu, sorted[0]) != 0 {
		t.Fatalf("Seek(min) landed on %v, want %v", tu, sorted[0])
	}
	// Invalid target.
	if err := c.Seek(relation.Tuple{99, 0, 0, 0, 0}); err == nil {
		t.Fatal("invalid seek target accepted")
	}
}

func TestCursorEmptyTable(t *testing.T) {
	tb := newTable(t, core.CodecAVQ, nil)
	c := tb.NewCursorContext(context.Background())
	if _, ok, err := c.Next(); ok || err != nil {
		t.Fatalf("empty cursor: ok=%v err=%v", ok, err)
	}
}

func TestGroupBy(t *testing.T) {
	ctx := context.Background()
	tb := newTable(t, core.CodecAVQ, nil)
	tuples := randomTuples(t, 2000, 95)
	if err := tb.BulkLoadContext(ctx, tuples); err != nil {
		t.Fatal(err)
	}
	groups, _, err := tb.GroupByContext(ctx, 0, 0, 7, 1, 2) // group by job over all depts
	if err != nil {
		t.Fatal(err)
	}
	// Reference aggregation.
	type agg struct {
		count       int
		sum, mn, mx uint64
	}
	ref := map[uint64]*agg{}
	for _, tu := range tuples {
		a := ref[tu[1]]
		if a == nil {
			a = &agg{mn: ^uint64(0)}
			ref[tu[1]] = a
		}
		a.count++
		a.sum += tu[2]
		if tu[2] < a.mn {
			a.mn = tu[2]
		}
		if tu[2] > a.mx {
			a.mx = tu[2]
		}
	}
	if len(groups) != len(ref) {
		t.Fatalf("%d groups, want %d", len(groups), len(ref))
	}
	var prev uint64
	for i, g := range groups {
		if i > 0 && g.Value <= prev {
			t.Fatal("groups not in ascending value order")
		}
		prev = g.Value
		want := ref[g.Value]
		if want == nil || g.Agg.Count != want.count || g.Agg.Sum != want.sum ||
			g.Agg.Min != want.mn || g.Agg.Max != want.mx {
			t.Fatalf("group %d mismatch: %+v vs %+v", g.Value, g.Agg, want)
		}
	}
	if _, _, err := tb.GroupByContext(ctx, 0, 0, 7, 99, 2); err == nil {
		t.Fatal("bad group attribute accepted")
	}
	if _, _, err := tb.GroupByContext(ctx, 0, 0, 7, 1, 99); err == nil {
		t.Fatal("bad aggregate attribute accepted")
	}
}
