package table

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/relation"
)

// histBuckets is the number of equi-width buckets per attribute histogram.
const histBuckets = 64

// histogram is an equi-width value histogram over one attribute's domain.
// The table maintains one per attribute so the planner can estimate
// predicate selectivity from the data instead of assuming uniformity —
// which matters on the skewed distributions of the paper's Test 1/2
// workloads.
type histogram struct {
	counts []int
	domain uint64
	width  uint64 // values per bucket (last bucket may be short)
	total  int
}

func newHistogram(domain uint64) *histogram {
	n := histBuckets
	if domain < uint64(n) {
		n = int(domain)
	}
	width := (domain + uint64(n) - 1) / uint64(n)
	return &histogram{
		counts: make([]int, n),
		domain: domain,
		width:  width,
	}
}

func (h *histogram) bucketOf(v uint64) int {
	b := int(v / h.width)
	if b >= len(h.counts) {
		b = len(h.counts) - 1
	}
	return b
}

func (h *histogram) add(v uint64) {
	h.counts[h.bucketOf(v)]++
	h.total++
}

func (h *histogram) remove(v uint64) {
	b := h.bucketOf(v)
	if h.counts[b] > 0 {
		h.counts[b]--
		h.total--
	}
}

// estimate returns the estimated fraction of rows with lo <= v <= hi,
// assuming uniformity within buckets (the classic equi-width model).
func (h *histogram) estimate(lo, hi uint64) float64 {
	if h.total == 0 || lo > hi || lo >= h.domain {
		return 0
	}
	if hi >= h.domain {
		hi = h.domain - 1
	}
	est := 0.0
	bLo, bHi := h.bucketOf(lo), h.bucketOf(hi)
	for b := bLo; b <= bHi; b++ {
		start := uint64(b) * h.width
		end := start + h.width - 1
		if end >= h.domain {
			end = h.domain - 1
		}
		overlapLo, overlapHi := start, end
		if lo > overlapLo {
			overlapLo = lo
		}
		if hi < overlapHi {
			overlapHi = hi
		}
		if overlapLo > overlapHi {
			continue
		}
		frac := float64(overlapHi-overlapLo+1) / float64(end-start+1)
		est += frac * float64(h.counts[b])
	}
	return est / float64(h.total)
}

// histAdd / histRemove / histAddAll maintain the table's histograms.
func (t *Table) histAdd(tu relation.Tuple) {
	for i, h := range t.hist {
		h.add(tu[i])
	}
}

func (t *Table) histRemove(tu relation.Tuple) {
	for i, h := range t.hist {
		h.remove(tu[i])
	}
}

// HistogramContext computes an exact equi-width value histogram of one
// attribute by streaming the table through the executor — the measured
// counterpart of the planner's incrementally maintained estimate. It
// returns one count per bucket; the last bucket absorbs the domain
// remainder when the domain does not divide evenly.
func (t *Table) HistogramContext(ctx context.Context, attr, buckets int) ([]int, QueryStats, error) {
	if attr < 0 || attr >= t.schema.NumAttrs() {
		return nil, QueryStats{}, fmt.Errorf("table: attribute %d out of range", attr)
	}
	if buckets <= 0 {
		return nil, QueryStats{}, fmt.Errorf("table: histogram needs a positive bucket count")
	}
	domain := t.schema.Domain(attr).Size
	if uint64(buckets) > domain {
		buckets = int(domain)
	}
	width := (domain + uint64(buckets) - 1) / uint64(buckets)
	counts := make([]int, buckets)
	t.mu.RLock()
	r := t.planScan()
	t.mu.RUnlock()
	r.op = "histogram"
	// Bucket straight off the φ digits.
	dig := core.NewDigitExtractor(t.schema, attr)
	k := t.schema.Limbs().K
	stats, err := r.runBatchCtx(ctx, func(phis []uint64) bool {
		for i := dig.Limb; i < len(phis); i += k {
			b := int(dig.Digit(phis[i]) / width)
			if b >= buckets {
				b = buckets - 1
			}
			counts[b]++
		}
		return true
	})
	return counts, stats, err
}

// EstimateSelectivity returns the estimated fraction of rows a predicate
// admits, from the attribute's histogram.
func (t *Table) EstimateSelectivity(p Predicate) (float64, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.estimateSelectivity(p)
}

// estimateSelectivity is EstimateSelectivity's body.
func (t *Table) estimateSelectivity(p Predicate) (float64, error) {
	if p.Attr < 0 || p.Attr >= t.schema.NumAttrs() {
		return 0, fmt.Errorf("table: attribute %d out of range", p.Attr)
	}
	return t.hist[p.Attr].estimate(p.Lo, p.Hi), nil
}

// Explain describes, without executing, the plan SelectContext would choose for a
// conjunction: the driving predicate, its access path, the estimated
// selectivity, and the estimated blocks read.
func (t *Table) Explain(preds []Predicate) (string, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	var b strings.Builder
	if len(preds) == 0 {
		fmt.Fprintf(&b, "full scan: %d blocks\n", t.store.NumBlocks())
		return b.String(), nil
	}
	for _, p := range preds {
		if p.Attr < 0 || p.Attr >= t.schema.NumAttrs() {
			return "", fmt.Errorf("table: attribute %d out of range", p.Attr)
		}
	}
	driver := t.pickDriver(preds)
	p := preds[driver]
	sel, err := t.estimateSelectivity(p)
	if err != nil {
		return "", err
	}
	strategy, estBlocks := t.planFor(p, sel)
	fmt.Fprintf(&b, "select: %s", p)
	for i, q := range preds {
		if i != driver {
			fmt.Fprintf(&b, " AND %s", q)
		}
	}
	fmt.Fprintln(&b)
	fmt.Fprintf(&b, "driver: %s via %s path (est. selectivity %.1f%%, est. blocks %d of %d)\n",
		p, strategy, 100*sel, estBlocks, t.store.NumBlocks())
	residuals := 0
	for i, q := range preds {
		if i == driver {
			continue
		}
		if residuals == 0 {
			fmt.Fprintf(&b, "residual filter:")
		}
		fmt.Fprintf(&b, " %s", q)
		residuals++
	}
	if residuals > 0 {
		fmt.Fprintln(&b)
	}
	return b.String(), nil
}

// planFor predicts the strategy and block count for one driving predicate.
func (t *Table) planFor(p Predicate, sel float64) (Strategy, int) {
	nBlocks := t.store.NumBlocks()
	estRows := sel * float64(t.size)
	switch {
	case p.Attr == 0:
		// Clustered: the qualifying band is contiguous.
		est := int(sel*float64(nBlocks)) + 1
		if est > nBlocks {
			est = nBlocks
		}
		return StrategyClustered, est
	default:
		if _, ok := t.secondary[p.Attr]; ok {
			// Scattered rows: expected distinct blocks touched, capped by
			// both the row estimate and the block count.
			est := int(estRows) + 1
			if est > nBlocks {
				est = nBlocks
			}
			return StrategySecondary, est
		}
		return StrategyFullScan, nBlocks
	}
}
