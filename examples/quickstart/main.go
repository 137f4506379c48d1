// Quickstart: create an AVQ-compressed table, load it, query it, and
// mutate it — the minimal end-to-end tour of the library.
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
	// A relation scheme is an ordered list of finite attribute domains
	// (Section 2.2 of the paper). Values are ordinals within each domain.
	schema, err := relation.NewSchema(
		relation.Domain{Name: "region", Size: 16},
		relation.Domain{Name: "store", Size: 128},
		relation.Domain{Name: "day", Size: 366},
		relation.Domain{Name: "product", Size: 512},
		relation.Domain{Name: "units", Size: 1000},
	)
	if err != nil {
		log.Fatal(err)
	}

	// An AVQ table clusters tuples by their ordinal position phi, packs
	// them into 8 KiB blocks, and stores each block as a representative
	// tuple plus chained differences.
	tbl, err := table.Create(schema,
		table.WithCodec(core.CodecAVQ),
		table.WithSecondaryAttrs(3), // secondary index on product
	)
	if err != nil {
		log.Fatal(err)
	}

	// Bulk-load 50k sales facts.
	rng := rand.New(rand.NewSource(7))
	tuples := make([]relation.Tuple, 50000)
	for i := range tuples {
		tuples[i] = relation.Tuple{
			uint64(rng.Intn(16)), uint64(rng.Intn(128)), uint64(rng.Intn(366)),
			uint64(rng.Intn(512)), uint64(rng.Intn(1000)),
		}
	}
	if err := tbl.BulkLoadContext(ctx, tuples); err != nil {
		log.Fatal(err)
	}

	stats, err := tbl.StoreStats()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("loaded %d tuples into %d blocks (%d coded bytes for %d raw bytes)\n",
		tbl.Len(), stats.Blocks, stats.StreamBytes, stats.RawDataBytes)

	// Range selection on the clustering attribute uses the primary index
	// and touches a contiguous band of blocks.
	rows, qs, err := tbl.SelectRangeContext(ctx, 0, 3, 4)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("sigma_{3<=region<=4}: %d rows via %s path, %d of %d blocks read\n",
		len(rows), qs.Strategy, qs.BlocksRead, tbl.NumBlocks())

	// Selection on an indexed attribute uses the secondary index's block
	// buckets (Figure 4.5 of the paper).
	rows, qs, err = tbl.SelectPointContext(ctx, 3, 42)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("sigma_{product=42}: %d rows via %s path, %d blocks read\n",
		len(rows), qs.Strategy, qs.BlocksRead)

	// Inserts and deletes decode, modify, and re-code only the affected
	// block (Section 4.2).
	sale := relation.Tuple{5, 77, 200, 42, 999}
	if err := tbl.InsertContext(ctx, sale); err != nil {
		log.Fatal(err)
	}
	found, err := tbl.Contains(sale)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("inserted %v; contains=%v\n", sale, found)
	if _, err := tbl.DeleteContext(ctx, sale); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("deleted it again; table holds %d tuples\n", tbl.Len())

	// The simulated disk accounts every cold block read with the paper's
	// ~30ms cost model.
	if err := tbl.DropCache(); err != nil {
		log.Fatal(err)
	}
	tbl.Disk().Reset()
	if _, _, err := tbl.SelectRangeContext(ctx, 0, 0, 15); err != nil {
		log.Fatal(err)
	}
	ds := tbl.Disk().Stats()
	fmt.Printf("full-range cold scan: %d block I/Os, %.2fs simulated disk time\n",
		ds.Reads, ds.Elapsed.Seconds())
}
