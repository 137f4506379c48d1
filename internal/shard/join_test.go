// Differential check for the cross-shard merge join: a 4-shard database
// pair joined through chained per-shard slab streams must produce
// byte-identical rows, in the same global φ order, as the single-table
// merge join over the same data.
package shard_test

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/backend"
	"repro/internal/relation"
	"repro/internal/shard"
	"repro/internal/table"
)

// newJoinPair loads tuples into a 4-shard memory DB and a single table
// of the same schema.
func newJoinPair(t *testing.T, tuples []relation.Tuple) (*shard.DB, *table.Table) {
	t.Helper()
	ctx := context.Background()
	db, err := shard.Create(oracleSchema(), shard.Config{
		Kind:    backend.KindMemory,
		Shards:  4,
		Options: shardOpts(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = db.Close() })
	if err := db.BulkLoad(ctx, tuples); err != nil {
		t.Fatal(err)
	}
	oracle, err := table.Create(oracleSchema(),
		table.WithPageSize(512))
	if err != nil {
		t.Fatal(err)
	}
	if err := oracle.BulkLoadContext(ctx, tuples); err != nil {
		t.Fatal(err)
	}
	return db, oracle
}

func TestShardMergeJoinMatchesSingleTable(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(91))
	left := make([]relation.Tuple, 3000)
	for i := range left {
		left[i] = randTuple(rng)
	}
	// Sparse right side: only every 8th dept key, so the join must seek
	// over long key gaps — across shard boundaries, not just blocks.
	right := make([]relation.Tuple, 500)
	for i := range right {
		tu := randTuple(rng)
		tu[0] &^= 7
		right[i] = tu
	}

	ldb, lt := newJoinPair(t, left)
	rdb, rt := newJoinPair(t, right)

	got, gst, err := ldb.MergeJoin(ctx, rdb)
	if err != nil {
		t.Fatal(err)
	}
	want, wst, err := table.MergeJoinContext(ctx, lt, rt)
	if err != nil {
		t.Fatal(err)
	}
	if gst.Matches != wst.Matches || len(got) != len(want) {
		t.Fatalf("matches: sharded %d (%d rows), oracle %d (%d rows)",
			gst.Matches, len(got), wst.Matches, len(want))
	}
	for i := range got {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("row %d: sharded %v⋈%v, oracle %v⋈%v",
				i, got[i].Left, got[i].Right, want[i].Left, want[i].Right)
		}
	}
	if gst.BatchBlocks == 0 {
		t.Fatal("sharded join did not take the columnar path")
	}
	if gst.BlocksPruned == 0 {
		t.Fatal("sparse-key join pruned no blocks")
	}
	for i := 0; i < ldb.NumShards(); i++ {
		if n := ldb.Shard(i).LiveSnapshots(); n != 0 {
			t.Fatalf("left shard %d leaks %d snapshots", i, n)
		}
	}
	for i := 0; i < rdb.NumShards(); i++ {
		if n := rdb.Shard(i).LiveSnapshots(); n != 0 {
			t.Fatalf("right shard %d leaks %d snapshots", i, n)
		}
	}
}

func TestShardMergeJoinEarlyStop(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(93))
	tuples := make([]relation.Tuple, 1200)
	for i := range tuples {
		tuples[i] = randTuple(rng)
	}
	ldb, _ := newJoinPair(t, tuples)
	rdb, _ := newJoinPair(t, tuples)
	seen := 0
	st, err := ldb.MergeJoinEach(ctx, rdb, func(table.JoinRow) bool {
		seen++
		return seen < 7
	})
	if err != nil {
		t.Fatal(err)
	}
	if seen != 7 || st.Matches != 7 {
		t.Fatalf("early stop: emitted %d, Matches %d", seen, st.Matches)
	}
	for i := 0; i < ldb.NumShards(); i++ {
		if n := ldb.Shard(i).LiveSnapshots(); n != 0 {
			t.Fatalf("shard %d leaks %d snapshots after early stop", i, n)
		}
	}
}
