// Bigdata: loading a relation larger than memory. The external merge sort
// performs the paper's tuple re-ordering (Section 3.2) over spilled runs,
// and the streaming bulk load packs AVQ blocks as tuples arrive — at no
// point does the whole relation exist in memory.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"os"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/extsort"
	"repro/internal/relation"
	"repro/internal/table"
)

func main() {
	ctx := context.Background()
	schema := relation.MustSchema(
		relation.Domain{Name: "region", Size: 64},
		relation.Domain{Name: "store", Size: 4096},
		relation.Domain{Name: "product", Size: 65536},
		relation.Domain{Name: "qty", Size: 1000},
	)
	const n = 500_000
	// A deliberately small memory budget: the sorter may hold 32k tuples;
	// everything else spills to sorted runs on disk.
	tmp, err := os.MkdirTemp("", "avq-extsort")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(tmp)
	sorter, err := extsort.New(schema, tmp, 32*1024)
	if err != nil {
		log.Fatal(err)
	}
	// Sort and write spill runs on a background worker; merge with per-run
	// read-ahead. The emitted order is identical to the serial sorter.
	if err := sorter.Configure(runtime.GOMAXPROCS(0)); err != nil {
		log.Fatal(err)
	}

	start := time.Now()
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < n; i++ {
		tu := relation.Tuple{
			uint64(rng.Intn(64)), uint64(rng.Intn(4096)),
			uint64(rng.Intn(65536)), uint64(rng.Intn(1000)),
		}
		if err := sorter.Add(tu); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("generated %d tuples; sorter spilled %d runs (%v)\n",
		n, sorter.Runs(), time.Since(start).Round(time.Millisecond))

	// Bridge the sorter's push iterator to the table's pull stream. The
	// parallel codec pipeline packs blocks on GOMAXPROCS workers with a
	// byte-identical on-disk layout to the serial path.
	tbl, err := table.Create(schema,
		table.WithCodec(core.CodecAVQ),
		table.WithConcurrency(runtime.GOMAXPROCS(0)),
		table.WithBlockCache(128),
	)
	if err != nil {
		log.Fatal(err)
	}
	ch := make(chan relation.Tuple, 1024)
	errCh := make(chan error, 1)
	go func() {
		errCh <- sorter.Iterate(func(tu relation.Tuple) bool {
			ch <- tu.Clone()
			return true
		})
		close(ch)
	}()
	start = time.Now()
	if err := tbl.BulkLoadStreamContext(ctx, func() (relation.Tuple, bool, error) {
		tu, ok := <-ch
		if !ok {
			return nil, false, nil
		}
		return tu, true, nil
	}); err != nil {
		log.Fatal(err)
	}
	if err := <-errCh; err != nil {
		log.Fatal(err)
	}
	st, err := tbl.StoreStats()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("streamed into %d AVQ blocks in %v: %d coded bytes for %d raw bytes (%.1f%% reduction)\n",
		tbl.NumBlocks(), time.Since(start).Round(time.Millisecond),
		st.StreamBytes, st.RawDataBytes, st.StreamSavingsPercent())

	// The loaded table behaves like any other.
	count, qs, err := tbl.CountRangeContext(ctx, 0, 10, 12)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("sigma_{10<=region<=12}: %d rows via %s path, %d of %d blocks read\n",
		count, qs.Strategy, qs.BlocksRead, tbl.NumBlocks())
	if err := tbl.Check(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("all invariants hold")
}
