package table

import (
	"context"
	"math/big"
	"reflect"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/ordinal"
	"repro/internal/relation"
)

// batchTestCodecs is every block codec; the slab kernels must match the
// tuple folds under each.
var batchTestCodecs = []struct {
	name  string
	codec core.Codec
}{
	{"raw", core.CodecRaw},
	{"avq", core.CodecAVQ},
	{"reponly", core.CodecRepOnly},
	{"deltachain", core.CodecDeltaChain},
	{"packed", core.CodecPacked},
}

// wideTestSchema is testSchema with a 2^62-value last attribute: a 2^81
// space, so φ takes two limbs. randomTuples are valid in both schemas.
func wideTestSchema(t testing.TB) *relation.Schema {
	t.Helper()
	return relation.MustSchema(
		relation.Domain{Name: "dept", Size: 8},
		relation.Domain{Name: "job", Size: 16},
		relation.Domain{Name: "years", Size: 64},
		relation.Domain{Name: "hours", Size: 64},
		relation.Domain{Name: "empno", Size: 1 << 62},
	)
}

// newCodecTable loads tuples into a table of schema s with the given
// codec.
func newCodecTable(t *testing.T, s *relation.Schema, codec core.Codec, tuples []relation.Tuple) *Table {
	t.Helper()
	tb, err := Create(s, WithCodec(codec), WithPageSize(512))
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.BulkLoadContext(context.Background(), tuples); err != nil {
		t.Fatal(err)
	}
	return tb
}

// tupleGroupBy is the tuple-at-a-time reference for GroupByContext: the
// loaded tuples filtered on lo <= A_attr <= hi, bucketed, and sorted.
func tupleGroupBy(tuples []relation.Tuple, attr int, lo, hi uint64, groupAttr, aggAttr int) []GroupResult {
	groups := map[uint64]*AggregateResult{}
	for _, tu := range tuples {
		if tu[attr] < lo || tu[attr] > hi {
			continue
		}
		g := groups[tu[groupAttr]]
		if g == nil {
			g = &AggregateResult{Min: ^uint64(0)}
			groups[tu[groupAttr]] = g
		}
		g.add(tu[aggAttr])
	}
	var out []GroupResult
	for v, g := range groups {
		out = append(out, GroupResult{Value: v, Agg: *g})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Value < out[j].Value })
	return out
}

// TestBatchAggregatesMatchTuplePath pins every slab aggregate kernel —
// count, aggregate, group-by (clustered and unclustered keys), histogram
// — to a tuple-at-a-time fold over the loaded tuples, per codec, on a
// one-limb and a two-limb schema, and cross-checks one aggregate against
// a big.Int φ-digit reference so the kernels are anchored to the paper's
// arithmetic.
func TestBatchAggregatesMatchTuplePath(t *testing.T) {
	ctx := context.Background()
	tuples := randomTuples(t, 2000, 42)
	for _, tc := range batchTestCodecs {
		t.Run(tc.name, func(t *testing.T) {
			for _, s := range []*relation.Schema{testSchema(t), wideTestSchema(t)} {
				tb := newCodecTable(t, s, tc.codec, tuples)
				ranges := []struct {
					attr   int
					lo, hi uint64
				}{
					{0, 0, 7},  // full domain
					{0, 2, 5},  // clustered bound
					{0, 3, 3},  // point
					{1, 4, 11}, // residual attribute
					{4, 100, 3000},
				}
				for _, rg := range ranges {
					var match []relation.Tuple
					for _, tu := range tuples {
						if tu[rg.attr] >= rg.lo && tu[rg.attr] <= rg.hi {
							match = append(match, tu)
						}
					}
					n, st, err := tb.CountRangeContext(ctx, rg.attr, rg.lo, rg.hi)
					if err != nil {
						t.Fatal(err)
					}
					if n != len(match) {
						t.Fatalf("%v CountRange(%v): %d, tuple fold %d", s, rg, n, len(match))
					}
					if st.BatchBlocks == 0 && n > 0 {
						t.Fatalf("%v CountRange(%v): no slab decoded (BatchBlocks=0)", s, rg)
					}
					for agg := 0; agg < 5; agg++ {
						got, _, err := tb.AggregateRangeContext(ctx, rg.attr, rg.lo, rg.hi, agg)
						if err != nil {
							t.Fatal(err)
						}
						want := AggregateResult{Min: ^uint64(0)}
						for _, tu := range match {
							want.add(tu[agg])
						}
						if want.Count == 0 {
							want.Min = 0
						}
						if got != want {
							t.Fatalf("%v AggregateRange(%v, agg=%d): %+v, tuple fold %+v", s, rg, agg, got, want)
						}
					}
					for _, ga := range []int{0, 1, 2} {
						got, _, err := tb.GroupByContext(ctx, rg.attr, rg.lo, rg.hi, ga, 3)
						if err != nil {
							t.Fatal(err)
						}
						if want := tupleGroupBy(tuples, rg.attr, rg.lo, rg.hi, ga, 3); !reflect.DeepEqual(got, want) {
							t.Fatalf("%v GroupBy(%v, group=%d): %+v, tuple fold %+v", s, rg, ga, got, want)
						}
					}
				}
				for attr := 0; attr < 4; attr++ {
					got, _, err := tb.HistogramContext(ctx, attr, 8)
					if err != nil {
						t.Fatal(err)
					}
					domain := s.Domain(attr).Size
					width := (domain + 7) / 8
					want := make([]int, 8)
					for _, tu := range tuples {
						want[min(int(tu[attr]/width), 7)]++
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%v Histogram(attr=%d): %v, tuple fold %v", s, attr, got, want)
					}
				}

				// Anchor: SUM over attribute 2 for 2<=A1<=5 recomputed through
				// arbitrary-precision φ digits straight off the loaded tuples.
				want := big.NewInt(0)
				wantCount := 0
				for _, tu := range tuples {
					if tu[0] < 2 || tu[0] > 5 {
						continue
					}
					digit := ordinal.Phi(s, tu) // big.Int φ
					for a := s.NumAttrs() - 1; a > 2; a-- {
						digit.Div(digit, new(big.Int).SetUint64(s.Domain(a).Size))
					}
					digit.Mod(digit, new(big.Int).SetUint64(s.Domain(2).Size))
					want.Add(want, digit)
					wantCount++
				}
				got, _, err := tb.AggregateRangeContext(ctx, 0, 2, 5, 2)
				if err != nil {
					t.Fatal(err)
				}
				if got.Sum != want.Uint64() || got.Count != wantCount {
					t.Fatalf("%v big.Int anchor: Sum=%d Count=%d, reference Sum=%s Count=%d",
						s, got.Sum, got.Count, want, wantCount)
				}
			}
		})
	}
}

// TestMergeJoinBatchMatchesTuples pins the φ-space merge join to a
// tuple-at-a-time nested-loop join over the loaded tuples, per codec and
// on a one-limb and a two-limb schema: identical rows in identical
// order.
func TestMergeJoinBatchMatchesTuples(t *testing.T) {
	ctx := context.Background()
	left := randomTuples(t, 1500, 7)
	// Sparse right side: only every 4th dept key exists, so the left run
	// has long stretches the join should seek over.
	right := make([]relation.Tuple, 0, 400)
	for _, tu := range randomTuples(t, 400, 8) {
		tu[0] &^= 3
		right = append(right, tu)
	}
	for _, tc := range batchTestCodecs {
		t.Run(tc.name, func(t *testing.T) {
			for _, s := range []*relation.Schema{testSchema(t), wideTestSchema(t)} {
				sl := append([]relation.Tuple(nil), left...)
				sr := append([]relation.Tuple(nil), right...)
				s.SortTuples(sl)
				s.SortTuples(sr)
				var want []JoinRow
				for _, l := range sl {
					for _, r := range sr {
						if l[0] == r[0] {
							want = append(want, JoinRow{Left: l, Right: r})
						}
					}
				}
				got, st, err := MergeJoinContext(ctx, newCodecTable(t, s, tc.codec, left), newCodecTable(t, s, tc.codec, right))
				if err != nil {
					t.Fatal(err)
				}
				if st.Matches != len(want) || len(got) != len(want) {
					t.Fatalf("%v matches: %d (%d rows), nested loop %d", s, st.Matches, len(got), len(want))
				}
				for i := range got {
					if !reflect.DeepEqual(got[i], want[i]) {
						t.Fatalf("%v row %d: %v⋈%v, nested loop %v⋈%v",
							s, i, got[i].Left, got[i].Right, want[i].Left, want[i].Right)
					}
				}
			}
		})
	}
}

// TestMergeJoinBatchEarlyStop checks emit=false stops the φ-space join
// with the right number of matches counted.
func TestMergeJoinBatchEarlyStop(t *testing.T) {
	ctx := context.Background()
	tuples := randomTuples(t, 800, 11)
	lb := newCodecTable(t, testSchema(t), core.CodecAVQ, tuples)
	rb := newCodecTable(t, testSchema(t), core.CodecAVQ, tuples)
	seen := 0
	st, err := MergeJoinEachContext(ctx, lb, rb, func(JoinRow) bool {
		seen++
		return seen < 10
	})
	if err != nil {
		t.Fatal(err)
	}
	if seen != 10 || st.Matches != 10 {
		t.Fatalf("early stop: emitted %d, Matches %d", seen, st.Matches)
	}
}

// TestMergeJoinEmittedRowsSafeToRetain checks the φ-space join's
// materialized tuples stay intact after the join advances (each group
// row is a fresh φ⁻¹ tuple, not an arena alias).
func TestMergeJoinEmittedRowsSafeToRetain(t *testing.T) {
	ctx := context.Background()
	tuples := randomTuples(t, 600, 13)
	lb := newCodecTable(t, wideTestSchema(t), core.CodecPacked, tuples)
	rb := newCodecTable(t, wideTestSchema(t), core.CodecPacked, tuples)
	var rows []JoinRow
	if _, err := MergeJoinEachContext(ctx, lb, rb, func(r JoinRow) bool {
		rows = append(rows, r)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	s := lb.Schema()
	for i, r := range rows {
		if err := s.ValidateTuple(r.Left); err != nil {
			t.Fatalf("row %d left invalid after join: %v", i, err)
		}
		if r.Left[0] != r.Right[0] {
			t.Fatalf("row %d keys diverge: %v vs %v", i, r.Left, r.Right)
		}
	}
}

// TestHashJoinEachStreamsAndStops covers the streaming hash join: same
// rows as the materializing form, and emit=false stops the probe pass.
func TestHashJoinEachStreamsAndStops(t *testing.T) {
	ctx := context.Background()
	left := randomTuples(t, 700, 17)
	right := randomTuples(t, 300, 19)
	lt := newCodecTable(t, testSchema(t), core.CodecAVQ, left)
	rt := newCodecTable(t, wideTestSchema(t), core.CodecAVQ, right)
	want, wst, err := HashJoinContext(ctx, lt, rt, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	var got []JoinRow
	gst, err := HashJoinEachContext(ctx, lt, rt, 1, 1, func(r JoinRow) bool {
		got = append(got, r)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if gst.Matches != wst.Matches || len(got) != len(want) {
		t.Fatalf("streamed %d rows (%d matches), materialized %d (%d)",
			len(got), gst.Matches, len(want), wst.Matches)
	}
	for i := range got {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("row %d differs", i)
		}
	}
	stopped := 0
	sst, err := HashJoinEachContext(ctx, lt, rt, 1, 1, func(JoinRow) bool {
		stopped++
		return stopped < 5
	})
	if err != nil {
		t.Fatal(err)
	}
	if stopped != 5 || sst.Matches != 5 {
		t.Fatalf("early stop: emitted %d, Matches %d", stopped, sst.Matches)
	}
}

// TestBatchCountAllocsBounded keeps the whole table-level count — plan,
// snapshot, slab pass, stats fold — within a small allocation budget
// once the decoded-block cache is warm. The kernel itself must not
// allocate; the budget covers plan/span scaffolding only.
func TestBatchCountAllocsBounded(t *testing.T) {
	tuples := randomTuples(t, 2000, 29)
	s := testSchema(t)
	tb, err := Create(s, WithCodec(core.CodecPacked), WithPageSize(512), WithBlockCache(256))
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.BulkLoadContext(context.Background(), tuples); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	// Warm the decoded-block cache and the arena pool (the pass returns
	// its arena sized for a full block).
	if _, _, err := tb.CountRangeContext(ctx, 0, 0, 7); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, _, err := tb.CountRangeContext(ctx, 0, 2, 5); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 24 {
		t.Fatalf("batch CountRange allocates %.0f objects/op; want <= 24", allocs)
	}
}
