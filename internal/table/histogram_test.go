package table

import (
	"context"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/relation"
)

func TestHistogramUniform(t *testing.T) {
	h := newHistogram(1000)
	rng := rand.New(rand.NewSource(61))
	for i := 0; i < 50000; i++ {
		h.add(uint64(rng.Intn(1000)))
	}
	cases := []struct {
		lo, hi uint64
		want   float64
	}{
		{0, 999, 1.0},
		{0, 499, 0.5},
		{250, 749, 0.5},
		{990, 999, 0.01},
		{500, 500, 0.001},
	}
	for _, c := range cases {
		got := h.estimate(c.lo, c.hi)
		if math.Abs(got-c.want) > 0.03 {
			t.Errorf("estimate(%d,%d) = %.4f, want ~%.4f", c.lo, c.hi, got, c.want)
		}
	}
}

func TestHistogramSkewed(t *testing.T) {
	// All mass in the bottom decile: a uniform model would say 10%, the
	// histogram must say ~100%.
	h := newHistogram(1000)
	rng := rand.New(rand.NewSource(62))
	for i := 0; i < 20000; i++ {
		h.add(uint64(rng.Intn(100)))
	}
	if got := h.estimate(0, 99); got < 0.95 {
		t.Fatalf("estimate of hot decile = %.3f, want ~1", got)
	}
	if got := h.estimate(500, 999); got > 0.02 {
		t.Fatalf("estimate of cold half = %.3f, want ~0", got)
	}
}

func TestHistogramRemove(t *testing.T) {
	h := newHistogram(100)
	h.add(5)
	h.add(95)
	h.remove(5)
	if h.total != 1 {
		t.Fatalf("total = %d", h.total)
	}
	if got := h.estimate(90, 99); got < 0.9 {
		t.Fatalf("after remove, estimate = %.3f", got)
	}
	// Removing an absent value must not underflow.
	h.remove(50)
	if h.total != 1 {
		t.Fatalf("total after bogus remove = %d", h.total)
	}
}

func TestHistogramEdges(t *testing.T) {
	h := newHistogram(10) // fewer values than buckets
	for v := uint64(0); v < 10; v++ {
		h.add(v)
	}
	if got := h.estimate(0, 9); math.Abs(got-1) > 1e-9 {
		t.Fatalf("full-range estimate = %.4f", got)
	}
	if got := h.estimate(3, 3); math.Abs(got-0.1) > 1e-9 {
		t.Fatalf("point estimate = %.4f", got)
	}
	if got := h.estimate(20, 30); got != 0 {
		t.Fatalf("out-of-domain estimate = %.4f", got)
	}
	if got := h.estimate(5, 2); got != 0 {
		t.Fatalf("inverted estimate = %.4f", got)
	}
	empty := newHistogram(10)
	if got := empty.estimate(0, 9); got != 0 {
		t.Fatalf("empty estimate = %.4f", got)
	}
}

// TestPlannerUsesHistogram: with skewed data, the planner must pick the
// truly selective predicate even when the uniform model says otherwise.
func TestPlannerUsesHistogram(t *testing.T) {
	s := relation.MustSchema(
		relation.Domain{Name: "a", Size: 8},
		relation.Domain{Name: "b", Size: 1000}, // values concentrated in [0,100)
		relation.Domain{Name: "c", Size: 1000}, // uniform
	)
	tb, err := Create(s, WithCodec(core.CodecAVQ), WithPageSize(512), WithSecondaryAttrs(1, 2))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(63))
	tuples := make([]relation.Tuple, 3000)
	for i := range tuples {
		tuples[i] = relation.Tuple{
			uint64(rng.Intn(8)),
			uint64(rng.Intn(100)),  // hot range only
			uint64(rng.Intn(1000)), // full domain
		}
	}
	if err := tb.BulkLoadContext(context.Background(), tuples); err != nil {
		t.Fatal(err)
	}
	// Predicate on b covers [0,199]: uniform model says 20%, histogram
	// knows it is ~100%. Predicate on c covers [0,299]: both models say
	// ~30%. The histogram-aware planner must drive through c.
	preds := []Predicate{
		{Attr: 1, Lo: 0, Hi: 199},
		{Attr: 2, Lo: 0, Hi: 299},
	}
	if got := tb.pickDriver(preds); got != 1 {
		selB, _ := tb.EstimateSelectivity(preds[0])
		selC, _ := tb.EstimateSelectivity(preds[1])
		t.Fatalf("driver = %d (sel b=%.2f c=%.2f); histogram should prefer c", got, selB, selC)
	}
}

func TestEstimateSelectivityMatchesData(t *testing.T) {
	tb := newTable(t, core.CodecAVQ, nil)
	tuples := randomTuples(t, 5000, 64)
	if err := tb.BulkLoadContext(context.Background(), tuples); err != nil {
		t.Fatal(err)
	}
	for _, p := range []Predicate{
		{Attr: 0, Lo: 0, Hi: 3},
		{Attr: 2, Lo: 10, Hi: 50},
		{Attr: 4, Lo: 0, Hi: 2047},
	} {
		est, err := tb.EstimateSelectivity(p)
		if err != nil {
			t.Fatal(err)
		}
		actual := 0
		for _, tu := range tuples {
			if tu[p.Attr] >= p.Lo && tu[p.Attr] <= p.Hi {
				actual++
			}
		}
		actualFrac := float64(actual) / float64(len(tuples))
		if math.Abs(est-actualFrac) > 0.05 {
			t.Errorf("%s: estimate %.3f vs actual %.3f", p, est, actualFrac)
		}
	}
	if _, err := tb.EstimateSelectivity(Predicate{Attr: 99}); err == nil {
		t.Fatal("bad attribute accepted")
	}
}

func TestHistogramMaintainedByMutations(t *testing.T) {
	ctx := context.Background()
	tb := newTable(t, core.CodecAVQ, nil)
	if err := tb.BulkLoadContext(ctx, randomTuples(t, 200, 65)); err != nil {
		t.Fatal(err)
	}
	extra := randomTuples(t, 50, 66)
	for _, tu := range extra {
		if err := tb.InsertContext(ctx, tu); err != nil {
			t.Fatal(err)
		}
	}
	for _, tu := range extra[:25] {
		if _, err := tb.DeleteContext(ctx, tu); err != nil {
			t.Fatal(err)
		}
	}
	// Check verifies histogram totals against the live size.
	if err := tb.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestExplain(t *testing.T) {
	tb := newTable(t, core.CodecAVQ, []int{1, 4})
	if err := tb.BulkLoadContext(context.Background(), randomTuples(t, 1000, 67)); err != nil {
		t.Fatal(err)
	}
	out, err := tb.Explain([]Predicate{
		{Attr: 1, Lo: 2, Hi: 9},
		{Attr: 2, Lo: 10, Hi: 50},
		{Attr: 4, Lo: 100, Hi: 200},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"driver:", "secondary", "residual filter:", "est. selectivity"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Explain output missing %q:\n%s", want, out)
		}
	}
	// Empty plan and errors.
	out, err = tb.Explain(nil)
	if err != nil || !strings.Contains(out, "full scan") {
		t.Fatalf("Explain(nil) = %q, %v", out, err)
	}
	if _, err := tb.Explain([]Predicate{{Attr: 99}}); err == nil {
		t.Fatal("bad predicate accepted")
	}
	// Clustered driver renders as clustered.
	out, err = tb.Explain([]Predicate{{Attr: 0, Lo: 1, Hi: 2}})
	if err != nil || !strings.Contains(out, "clustered") {
		t.Fatalf("clustered Explain = %q, %v", out, err)
	}
}

func TestExplainAgreesWithExecution(t *testing.T) {
	ctx := context.Background()
	tb := newTable(t, core.CodecAVQ, []int{1})
	if err := tb.BulkLoadContext(ctx, randomTuples(t, 2000, 68)); err != nil {
		t.Fatal(err)
	}
	preds := []Predicate{{Attr: 1, Lo: 3, Hi: 5}}
	plan, err := tb.Explain(preds)
	if err != nil {
		t.Fatal(err)
	}
	_, stats, err := tb.SelectContext(ctx, preds)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, stats.Strategy.String()) {
		t.Fatalf("plan says %q but execution used %v", plan, stats.Strategy)
	}
}
