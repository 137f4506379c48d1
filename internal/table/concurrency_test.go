package table

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/relation"
	"repro/internal/simdisk"
)

// TestSyncConcurrentReadersAndWriters hammers one table from multiple
// goroutines; run with -race to verify the locking.
func TestSyncConcurrentReadersAndWriters(t *testing.T) {
	ctx := context.Background()
	tb := newTable(t, core.CodecAVQ, []int{1, 4})
	if err := tb.BulkLoadContext(ctx, randomTuples(t, 1500, 81)); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	// Readers.
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 150; i++ {
				switch rng.Intn(3) {
				case 0:
					if _, _, err := tb.SelectRangeContext(ctx, rng.Intn(5), 0, 30); err != nil {
						errs <- err
						return
					}
				case 1:
					if _, _, err := tb.CountRangeContext(ctx, 1, 2, 9); err != nil {
						errs <- err
						return
					}
				case 2:
					if _, _, err := tb.AggregateRangeContext(ctx, 0, 0, 7, 2); err != nil {
						errs <- err
						return
					}
				}
			}
		}(int64(r))
	}
	// Writers.
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(100 + seed))
			for i := 0; i < 100; i++ {
				tu := relation.Tuple{
					uint64(rng.Intn(8)), uint64(rng.Intn(16)),
					uint64(rng.Intn(64)), uint64(rng.Intn(64)), uint64(rng.Intn(4096)),
				}
				if rng.Intn(2) == 0 {
					if err := tb.InsertContext(ctx, tu); err != nil {
						errs <- err
						return
					}
				} else {
					if _, err := tb.DeleteContext(ctx, tu); err != nil {
						errs <- err
						return
					}
				}
			}
		}(int64(w))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := tb.Check(); err != nil {
		t.Fatal(err)
	}
	if tb.NumBlocks() <= 0 {
		t.Fatal("accessors inconsistent")
	}
}

// TestSyncSnapshotConsistency is the snapshot-isolation and lock-order
// stress test: every exported read of Table runs against every mutation
// at once, on a WAL-durable table so group commits happen outside the
// lock while checkpoints rotate the log. The writers are paired so each
// leaves the row count in a known set:
//
//   - insert then delete one tuple: +0 or +1;
//   - InsertBatch of two marker tuples, then DeleteWhere on the marker
//     value: +0 or +2;
//   - Update a→b then b→a: +0;
//   - Compact and Checkpoint: +0.
//
// So every committed state holds n..n+3 rows, and a reader counting
// anything else mixed pre- and post-mutation blocks. The whole test runs
// under a deadline: a lock cycle (say, an exported method re-entering the
// lock, or a self-join nesting two read locks around a queued writer)
// fails it with every goroutine's stack instead of hanging. Run with
// -race to also verify the locking.
func TestSyncSnapshotConsistency(t *testing.T) {
	ctx := context.Background()
	fs := simdisk.NewFaultFS()
	opts := []Option{
		WithCodec(core.CodecAVQ),
		WithPageSize(512),
		WithSecondaryAttrs(1),
		WithBlockCache(32),
		WithPath("db.avq"),
		WithVFS(fs),
		WithDurability(DurabilityWAL),
	}
	tb, err := Create(testSchema(t), opts...)
	if err != nil {
		t.Fatal(err)
	}
	const marker = 4095 // empno no base tuple holds: DeleteWhere's key
	base := randomTuples(t, 600, 83)
	for _, tu := range base {
		if tu[4] == marker {
			tu[4] = marker - 1
		}
	}
	updA, updB := relation.Tuple{5, 5, 5, 5, 100}, relation.Tuple{5, 5, 5, 5, 101}
	base = append(base, updA.Clone())
	n := len(base)
	if err := tb.BulkLoadContext(ctx, base); err != nil {
		t.Fatal(err)
	}
	inRange := func(got int) bool { return got >= n && got <= n+3 }

	// reads names every exported read, each returning the row count it
	// observed, or -1 when the read has no count to check.
	full := []Predicate{{Attr: 0, Lo: 0, Hi: 7}}
	reads := []struct {
		name string
		run  func() (int, error)
	}{
		{"SelectRangeContext", func() (int, error) {
			rows, _, err := tb.SelectRangeContext(ctx, 0, 0, 7)
			return len(rows), err
		}},
		{"SelectRangeFuncContext", func() (int, error) {
			c := 0
			_, err := tb.SelectRangeFuncContext(ctx, 4, 0, 4095, func(relation.Tuple) bool { c++; return true })
			return c, err
		}},
		{"SelectContext", func() (int, error) {
			rows, _, err := tb.SelectContext(ctx, full)
			return len(rows), err
		}},
		{"SelectPointContext", func() (int, error) {
			_, _, err := tb.SelectPointContext(ctx, 1, 5)
			return -1, err
		}},
		{"CountRangeContext", func() (int, error) {
			c, _, err := tb.CountRangeContext(ctx, 0, 0, 7)
			return c, err
		}},
		{"AggregateRangeContext", func() (int, error) {
			agg, _, err := tb.AggregateRangeContext(ctx, 0, 0, 7, 2)
			return agg.Count, err
		}},
		{"GroupByContext", func() (int, error) {
			groups, _, err := tb.GroupByContext(ctx, 0, 0, 7, 1, 2)
			c := 0
			for _, g := range groups {
				c += g.Agg.Count
			}
			return c, err
		}},
		{"HistogramContext", func() (int, error) {
			counts, _, err := tb.HistogramContext(ctx, 3, 8)
			c := 0
			for _, k := range counts {
				c += k
			}
			return c, err
		}},
		{"ScanContext", func() (int, error) {
			c := 0
			err := tb.ScanContext(ctx, func(relation.Tuple) bool { c++; return true })
			return c, err
		}},
		{"NewCursorContext", func() (int, error) {
			cur := tb.NewCursorContext(ctx)
			defer cur.Close()
			c := 0
			for {
				_, ok, err := cur.Next()
				if err != nil || !ok {
					return c, err
				}
				c++
			}
		}},
		{"BatchIterator", func() (int, error) {
			it := tb.BatchIterator(ctx)
			defer it.Release()
			c := 0
			for {
				phis, err := it.NextPhis()
				if err != nil || phis == nil {
					return c, err
				}
				c += len(phis)
			}
		}},
		{"MergeJoinEachContext self-join", func() (int, error) {
			seen := 0
			_, err := MergeJoinEachContext(ctx, tb, tb, func(JoinRow) bool { seen++; return seen < 200 })
			return -1, err
		}},
		{"HashJoinEachContext self-join", func() (int, error) {
			seen := 0
			_, err := HashJoinEachContext(ctx, tb, tb, 1, 1, func(JoinRow) bool { seen++; return seen < 200 })
			return -1, err
		}},
		{"Explain", func() (int, error) {
			_, err := tb.Explain([]Predicate{{Attr: 1, Lo: 2, Hi: 3}, {Attr: 0, Lo: 1, Hi: 1}})
			return -1, err
		}},
		{"EstimateSelectivity", func() (int, error) {
			_, err := tb.EstimateSelectivity(Predicate{Attr: 1, Lo: 0, Hi: 3})
			return -1, err
		}},
		{"Contains", func() (int, error) {
			_, err := tb.Contains(relation.Tuple{3, 7, 31, 31, 2047})
			return -1, err
		}},
		{"Len", func() (int, error) { return tb.Len(), nil }},
		{"PhiBounds", func() (int, error) {
			if _, _, ok := tb.PhiBounds(); !ok {
				return -1, fmt.Errorf("PhiBounds found no fences")
			}
			return -1, nil
		}},
		{"StoreStats", func() (int, error) {
			st, err := tb.StoreStats()
			return st.Tuples, err
		}},
		{"accessors", func() (int, error) {
			_ = tb.NumBlocks() + tb.IndexNodeCount() + tb.PrimaryHeight() + tb.PinnedFrames() + tb.LiveSnapshots()
			_ = tb.BlocksForValue(1, 5)
			_ = tb.Generation()
			_ = tb.BlockCacheStats()
			return -1, nil
		}},
		{"Check", func() (int, error) { return -1, tb.Check() }},
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		stop := make(chan struct{})
		// started holds the readers back until every writer has committed
		// once, so the reads overlap all of the writers.
		var writers, readers, started sync.WaitGroup
		writer := func(name string, step func() error) {
			writers.Add(1)
			started.Add(1)
			go func() {
				defer writers.Done()
				for first := true; ; first = false {
					select {
					case <-stop:
						return
					default:
					}
					err := step()
					if first {
						started.Done()
					}
					if err != nil {
						t.Errorf("%s: %v", name, err)
						return
					}
				}
			}()
		}
		extra := relation.Tuple{3, 7, 31, 31, 2047}
		writer("insert/delete", func() error {
			if err := tb.InsertContext(ctx, extra); err != nil {
				return err
			}
			if ok, err := tb.DeleteContext(ctx, extra); err != nil || !ok {
				return fmt.Errorf("delete: ok=%v err=%v", ok, err)
			}
			return nil
		})
		writer("insertbatch/deletewhere", func() error {
			batch := []relation.Tuple{{1, 1, 1, 1, marker}, {6, 2, 2, 2, marker}}
			if err := tb.InsertBatchContext(ctx, batch); err != nil {
				return err
			}
			removed, err := tb.DeleteWhereContext(ctx, []Predicate{{Attr: 4, Lo: marker, Hi: marker}})
			if err == nil && removed != len(batch) {
				err = fmt.Errorf("DeleteWhere removed %d, want %d", removed, len(batch))
			}
			return err
		})
		writer("update", func() error {
			for _, p := range [][2]relation.Tuple{{updA, updB}, {updB, updA}} {
				if ok, err := tb.UpdateContext(ctx, p[0], p[1]); err != nil || !ok {
					return fmt.Errorf("update %v->%v: ok=%v err=%v", p[0], p[1], ok, err)
				}
			}
			return nil
		})
		writer("compact", func() error {
			_, _, err := tb.CompactContext(ctx)
			return err
		})
		writer("checkpoint", tb.Checkpoint)
		started.Wait()

		for r := 0; r < 4; r++ {
			readers.Add(1)
			go func(first int) {
				defer readers.Done()
				for i := 0; i < 30*len(reads); i++ {
					rd := reads[(first+i)%len(reads)]
					got, err := rd.run()
					if err != nil {
						t.Errorf("%s: %v", rd.name, err)
						return
					}
					if got >= 0 && !inRange(got) {
						t.Errorf("torn view: %s saw %d rows, want %d..%d", rd.name, got, n, n+3)
						return
					}
				}
			}(r * len(reads) / 4)
		}
		// Readers run a bounded number of passes; writers loop until the
		// readers are done.
		readers.Wait()
		close(stop)
		writers.Wait()
	}()
	select {
	case <-done:
	case <-time.After(time.Minute):
		buf := make([]byte, 1<<20)
		t.Fatalf("readers and writers still running after 1m (lock cycle?):\n%s", buf[:runtime.Stack(buf, true)])
	}
	if t.Failed() {
		return
	}

	if err := tb.Check(); err != nil {
		t.Fatal(err)
	}
	got := tb.Len()
	if !inRange(got) {
		t.Fatalf("final size %d", got)
	}
	if p, sn := tb.PinnedFrames(), tb.LiveSnapshots(); p != 0 || sn != 0 {
		t.Fatalf("%d frames pinned, %d snapshots live after the run", p, sn)
	}
	if err := tb.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := Open("db.avq", opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Len() != got {
		t.Fatalf("reopened table holds %d rows, closed with %d", re.Len(), got)
	}
}

// TestSyncLifecycle runs each mutation and the persistence calls once on
// the same table, ending with Close.
func TestSyncLifecycle(t *testing.T) {
	ctx := context.Background()
	tb := newTable(t, core.CodecAVQ, nil)
	if err := tb.InsertBatchContext(ctx, randomTuples(t, 100, 82)); err != nil {
		t.Fatal(err)
	}
	tu := relation.Tuple{1, 2, 3, 4, 5}
	if err := tb.InsertContext(ctx, tu); err != nil {
		t.Fatal(err)
	}
	ok, err := tb.Contains(tu)
	if err != nil || !ok {
		t.Fatalf("Contains = %v, %v", ok, err)
	}
	if ok, err := tb.UpdateContext(ctx, tu, relation.Tuple{1, 2, 3, 4, 6}); err != nil || !ok {
		t.Fatalf("Update = %v, %v", ok, err)
	}
	if _, _, err := tb.CompactContext(ctx); err != nil {
		t.Fatal(err)
	}
	if err := tb.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := tb.Close(); err != nil {
		t.Fatal(err)
	}
}
