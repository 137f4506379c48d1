// Analytics: the query-processing surface beyond single-attribute ranges —
// conjunctive selections with a histogram-driven planner, EXPLAIN,
// streaming aggregates, bulk maintenance (batch insert, predicate delete,
// compaction) — all running over AVQ-compressed blocks.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"repro/internal/core"
	"repro/internal/relation"
	"repro/internal/table"
)

func main() {
	ctx := context.Background()
	// A sales-fact relation. Attribute value distributions are deliberately
	// skewed so the histogram planner has something to learn.
	schema := relation.MustSchema(
		relation.Domain{Name: "region", Size: 16},
		relation.Domain{Name: "product", Size: 1024},
		relation.Domain{Name: "channel", Size: 8},
		relation.Domain{Name: "units", Size: 1000},
		relation.Domain{Name: "saleid", Size: 1 << 20},
	)
	tbl, err := table.Create(schema,
		table.WithCodec(core.CodecAVQ),
		table.WithSecondaryAttrs(1, 2),
	)
	if err != nil {
		log.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	rows := make([]relation.Tuple, 60000)
	for i := range rows {
		product := uint64(rng.Intn(64)) // only 64 of 1024 product codes live
		rows[i] = relation.Tuple{
			uint64(rng.Intn(16)), product, uint64(rng.Intn(8)),
			uint64(rng.Intn(1000)), uint64(i),
		}
	}
	if err := tbl.BulkLoadContext(ctx, rows); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("loaded %d rows into %d AVQ blocks\n\n", tbl.Len(), tbl.NumBlocks())

	// EXPLAIN a conjunction: the histogram knows products cluster in
	// [0,64), so a seemingly wide product predicate is actually selective.
	preds := []table.Predicate{
		{Attr: 1, Lo: 0, Hi: 9},     // 10 of the 64 live product codes
		{Attr: 2, Lo: 3, Hi: 5},     // 3 of 8 channels
		{Attr: 3, Lo: 500, Hi: 999}, // unindexed residual
	}
	plan, err := tbl.Explain(preds)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(plan)

	matched, stats, err := tbl.SelectContext(ctx, preds)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("executed: %d rows via %s path, %d blocks read (%d cache hits), %d fence-pruned\n\n",
		len(matched), stats.Strategy, stats.BlocksRead, stats.CacheHits, stats.BlocksPruned)

	// Streaming aggregates: revenue-style rollup without materializing.
	agg, aggStats, err := tbl.AggregateRangeContext(ctx, 2, 0, 2, 3) // units over channels 0-2
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("channels 0-2: count=%d sum(units)=%d min=%d max=%d (%d blocks read, %d pruned)\n\n",
		agg.Count, agg.Sum, agg.Min, agg.Max, aggStats.BlocksRead, aggStats.BlocksPruned)

	// A clustered range shows the executor's φ-fence pruning at its best:
	// only the blocks whose fences intersect [2,4] are ever touched, and
	// each decoded slab is clipped to the range by binary search.
	sel, selStats, err := tbl.SelectRangeContext(ctx, 0, 2, 4)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("regions 2-4: %d rows; executor pruned %d of %d blocks by fence, decoded %d\n\n",
		len(sel), selStats.BlocksPruned, tbl.NumBlocks(), selStats.BlocksRead+selStats.CacheHits)

	// Bulk maintenance: a day's new facts arrive as one batch.
	batch := make([]relation.Tuple, 5000)
	for i := range batch {
		batch[i] = relation.Tuple{
			uint64(rng.Intn(16)), uint64(rng.Intn(64)), uint64(rng.Intn(8)),
			uint64(rng.Intn(1000)), uint64(60000 + i),
		}
	}
	if err := tbl.InsertBatchContext(ctx, batch); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("batch-inserted %d rows (one decode/re-encode per touched block); now %d rows in %d blocks\n",
		len(batch), tbl.Len(), tbl.NumBlocks())

	// Retention: drop an entire channel, then compact the layout.
	removed, err := tbl.DeleteWhereContext(ctx, []table.Predicate{{Attr: 2, Lo: 7, Hi: 7}})
	if err != nil {
		log.Fatal(err)
	}
	before, after, err := tbl.CompactContext(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("deleted channel 7 (%d rows); compaction repacked %d blocks into %d\n",
		removed, before, after)

	if err := tbl.Check(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("all invariants hold")
}
