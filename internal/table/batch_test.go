package table

import (
	"context"
	"math/big"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/ordinal"
	"repro/internal/relation"
)

// batchTestCodecs is every block codec; the batch path must be
// byte-identical to the tuple path under each.
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

// newBatchPair loads the same tuples into two tables of the given codec:
// one on the default (batch) path and one opted out via WithBatch(false)
// — the tuple-path differential oracle.
func newBatchPair(t *testing.T, codec core.Codec, tuples []relation.Tuple) (batch, oracle *Table) {
	t.Helper()
	s := testSchema(t)
	mk := func(opts ...Option) *Table {
		all := append([]Option{WithCodec(codec), WithPageSize(512)}, opts...)
		tb, err := Create(s, all...)
		if err != nil {
			t.Fatal(err)
		}
		if err := tb.BulkLoadContext(context.Background(), tuples); err != nil {
			t.Fatal(err)
		}
		return tb
	}
	return mk(), mk(WithBatch(false))
}

// TestBatchAggregatesMatchTuplePath pins every batch aggregate kernel —
// count, aggregate, group-by (clustered and unclustered keys), histogram
// — to the tuple path, per codec, and cross-checks one aggregate against
// a big.Int φ-digit reference so both paths are anchored to the paper's
// arithmetic, not just to each other.
func TestBatchAggregatesMatchTuplePath(t *testing.T) {
	ctx := context.Background()
	tuples := randomTuples(t, 2000, 42)
	for _, tc := range batchTestCodecs {
		t.Run(tc.name, func(t *testing.T) {
			batch, oracle := newBatchPair(t, tc.codec, tuples)
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
				bn, bst, err := batch.CountRangeContext(ctx, rg.attr, rg.lo, rg.hi)
				if err != nil {
					t.Fatal(err)
				}
				on, _, err := oracle.CountRangeContext(ctx, rg.attr, rg.lo, rg.hi)
				if err != nil {
					t.Fatal(err)
				}
				if bn != on {
					t.Fatalf("CountRange(%v): batch %d, tuple %d", rg, bn, on)
				}
				if bst.BatchBlocks == 0 && bn > 0 {
					t.Fatalf("CountRange(%v): batch path did not run (BatchBlocks=0)", rg)
				}
				for agg := 0; agg < 5; agg++ {
					br, _, err := batch.AggregateRangeContext(ctx, rg.attr, rg.lo, rg.hi, agg)
					if err != nil {
						t.Fatal(err)
					}
					or, _, err := oracle.AggregateRangeContext(ctx, rg.attr, rg.lo, rg.hi, agg)
					if err != nil {
						t.Fatal(err)
					}
					if br != or {
						t.Fatalf("AggregateRange(%v, agg=%d): batch %+v, tuple %+v", rg, agg, br, or)
					}
				}
				for _, ga := range []int{0, 1, 2} {
					bg, _, err := batch.GroupByContext(ctx, rg.attr, rg.lo, rg.hi, ga, 3)
					if err != nil {
						t.Fatal(err)
					}
					og, _, err := oracle.GroupByContext(ctx, rg.attr, rg.lo, rg.hi, ga, 3)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(bg, og) {
						t.Fatalf("GroupBy(%v, group=%d): batch %+v, tuple %+v", rg, ga, bg, og)
					}
				}
			}
			for attr := 0; attr < 5; attr++ {
				bh, _, err := batch.HistogramContext(ctx, attr, 8)
				if err != nil {
					t.Fatal(err)
				}
				oh, _, err := oracle.HistogramContext(ctx, attr, 8)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(bh, oh) {
					t.Fatalf("Histogram(attr=%d): batch %v, tuple %v", attr, bh, oh)
				}
			}

			// Anchor: SUM over attribute 2 for 2<=A1<=5 recomputed through
			// arbitrary-precision φ digits straight off the loaded tuples.
			s := batch.Schema()
			want := big.NewInt(0)
			wantCount := 0
			for _, tu := range tuples {
				if tu[0] < 2 || tu[0] > 5 {
					continue
				}
				phi := ordinal.Phi(s, tu) // big.Int φ
				digit := new(big.Int).Set(phi)
				for a := s.NumAttrs() - 1; a > 2; a-- {
					digit.Div(digit, new(big.Int).SetUint64(s.Domain(a).Size))
				}
				digit.Mod(digit, new(big.Int).SetUint64(s.Domain(2).Size))
				want.Add(want, digit)
				wantCount++
			}
			got, _, err := batch.AggregateRangeContext(ctx, 0, 2, 5, 2)
			if err != nil {
				t.Fatal(err)
			}
			if got.Sum != want.Uint64() || got.Count != wantCount {
				t.Fatalf("big.Int anchor: batch Sum=%d Count=%d, reference Sum=%s Count=%d",
					got.Sum, got.Count, want, wantCount)
			}
		})
	}
}

// TestMergeJoinBatchMatchesTuples pins the φ-space merge join to the
// tuple-at-a-time merge join, per codec: identical rows in identical
// order, identical match counts, and the batch run must actually take
// the columnar path and prune on sparse keys.
func TestMergeJoinBatchMatchesTuples(t *testing.T) {
	ctx := context.Background()
	left := randomTuples(t, 1500, 7)
	// Sparse right side: only every 4th dept key exists, so the left run
	// has long stretches the batch join should seek over.
	right := make([]relation.Tuple, 0, 400)
	for _, tu := range randomTuples(t, 400, 8) {
		tu[0] &^= 3
		right = append(right, tu)
	}
	for _, tc := range batchTestCodecs {
		t.Run(tc.name, func(t *testing.T) {
			lb, lo := newBatchPair(t, tc.codec, left)
			rb, ro := newBatchPair(t, tc.codec, right)
			got, gst, err := MergeJoinContext(ctx, lb, rb)
			if err != nil {
				t.Fatal(err)
			}
			want, wst, err := MergeJoinContext(ctx, lo, ro)
			if err != nil {
				t.Fatal(err)
			}
			if gst.BatchBlocks == 0 {
				t.Fatal("batch join did not take the columnar path")
			}
			if wst.BatchBlocks != 0 {
				t.Fatal("oracle join took the columnar path")
			}
			if gst.Matches != wst.Matches || len(got) != len(want) {
				t.Fatalf("matches: batch %d (%d rows), tuple %d (%d rows)",
					gst.Matches, len(got), wst.Matches, len(want))
			}
			for i := range got {
				if !reflect.DeepEqual(got[i], want[i]) {
					t.Fatalf("row %d: batch %v⋈%v, tuple %v⋈%v",
						i, got[i].Left, got[i].Right, want[i].Left, want[i].Right)
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
	lb, _ := newBatchPair(t, core.CodecAVQ, tuples)
	rb, _ := newBatchPair(t, core.CodecAVQ, tuples)
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
	lb, _ := newBatchPair(t, core.CodecPacked, tuples)
	rb, _ := newBatchPair(t, core.CodecPacked, tuples)
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
	lt, _ := newBatchPair(t, core.CodecAVQ, left)
	rt, _ := newBatchPair(t, core.CodecAVQ, right)
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

// TestBatchCountAllocsBounded keeps the whole table-level batch count —
// plan, snapshot, batch pass, stats fold — within a small allocation
// budget once the decoded-block cache is warm. The kernel itself must
// not allocate; the budget covers plan/span scaffolding only.
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
	// Warm the decoded-block cache (tuple path populates it) and the
	// arena pool (batch pass returns its arena sized for a full block).
	if _, _, err := tb.SelectRangeContext(ctx, 0, 0, 7); err != nil {
		t.Fatal(err)
	}
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
