package table

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/relation"
)

func tempPath(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "table.avqdb")
}

func TestPersistentCreateLoadReopen(t *testing.T) {
	ctx := context.Background()
	path := tempPath(t)
	s := testSchema(t)
	tuples := randomTuples(t, 1200, 40)

	tb, err := Create(s,
		WithCodec(core.CodecAVQ),
		WithPageSize(512),
		WithPath(path),
		WithSecondaryAttrs(1, 4),
	)
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.BulkLoadContext(ctx, tuples); err != nil {
		t.Fatal(err)
	}
	wantBlocks := tb.NumBlocks()
	if err := tb.Close(); err != nil {
		t.Fatal(err)
	}

	got, err := Open(path, WithPageSize(512))
	if err != nil {
		t.Fatal(err)
	}
	defer got.Close()
	if got.Len() != 1200 {
		t.Fatalf("reopened Len = %d", got.Len())
	}
	if got.NumBlocks() != wantBlocks {
		t.Fatalf("reopened blocks = %d, want %d", got.NumBlocks(), wantBlocks)
	}
	if got.Codec() != core.CodecAVQ {
		t.Fatalf("reopened codec = %v", got.Codec())
	}
	if !got.Schema().Equal(s) {
		t.Fatal("reopened schema differs")
	}
	if err := got.Check(); err != nil {
		t.Fatal(err)
	}
	// Queries work after reopen, including through rebuilt secondaries.
	rows, stats, err := got.SelectRangeContext(ctx, 1, 3, 9)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Strategy != StrategySecondary {
		t.Fatalf("reopened strategy = %v", stats.Strategy)
	}
	want := 0
	for _, tu := range tuples {
		if tu[1] >= 3 && tu[1] <= 9 {
			want++
		}
	}
	if len(rows) != want {
		t.Fatalf("reopened query matched %d, want %d", len(rows), want)
	}
}

func TestPersistentMutationsSurviveReopen(t *testing.T) {
	ctx := context.Background()
	path := tempPath(t)
	s := testSchema(t)
	tb, err := Create(s, WithCodec(core.CodecAVQ), WithPageSize(512), WithPath(path))
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.BulkLoadContext(ctx, randomTuples(t, 300, 41)); err != nil {
		t.Fatal(err)
	}
	added := relation.Tuple{7, 15, 63, 63, 4095}
	if err := tb.InsertContext(ctx, added); err != nil {
		t.Fatal(err)
	}
	victim := relation.Tuple{0, 0, 0, 0, 0}
	deleted, err := tb.DeleteContext(ctx, victim)
	if err != nil {
		t.Fatal(err)
	}
	wantLen := tb.Len()
	if err := tb.Close(); err != nil {
		t.Fatal(err)
	}

	got, err := Open(path, WithPageSize(512))
	if err != nil {
		t.Fatal(err)
	}
	defer got.Close()
	if got.Len() != wantLen {
		t.Fatalf("Len = %d, want %d", got.Len(), wantLen)
	}
	ok, err := got.Contains(added)
	if err != nil || !ok {
		t.Fatalf("inserted tuple missing after reopen: %v, %v", ok, err)
	}
	if deleted {
		ok, err := got.Contains(victim)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			t.Fatal("deleted tuple resurrected after reopen")
		}
	}
}

func TestCheckpointWithoutClose(t *testing.T) {
	path := tempPath(t)
	tb, err := Create(testSchema(t), WithCodec(core.CodecAVQ), WithPageSize(512), WithPath(path))
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.BulkLoadContext(context.Background(), randomTuples(t, 200, 42)); err != nil {
		t.Fatal(err)
	}
	if err := tb.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash: no Close. The last checkpoint must be readable.
	// (The pool may hold clean pages only, since Checkpoint flushed.)
	got, err := Open(path, WithPageSize(512))
	if err != nil {
		t.Fatal(err)
	}
	defer got.Close()
	if got.Len() != 200 {
		t.Fatalf("Len after crash-reopen = %d", got.Len())
	}
	if err := got.Check(); err != nil {
		t.Fatal(err)
	}
	tb.closed = true // silence Close-side effects for the leaked table
}

func TestLargeCatalogChain(t *testing.T) {
	// A small page size plus many blocks forces a multi-page catalog.
	path := tempPath(t)
	tb, err := Create(testSchema(t), WithCodec(core.CodecRaw), WithPageSize(256), WithPath(path))
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.BulkLoadContext(context.Background(), randomTuples(t, 3000, 43)); err != nil {
		t.Fatal(err)
	}
	if len(tb.catalogChains[tb.generation&1]) < 2 {
		t.Skipf("catalog fits one page (%d blocks)", tb.NumBlocks())
	}
	if err := tb.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := Open(path, WithPageSize(256))
	if err != nil {
		t.Fatal(err)
	}
	defer got.Close()
	if got.Len() != 3000 {
		t.Fatalf("Len = %d", got.Len())
	}
	if err := got.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestCreateRefusesExistingTable(t *testing.T) {
	path := tempPath(t)
	tb, err := Create(testSchema(t), WithPageSize(512), WithPath(path))
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := Create(testSchema(t), WithPageSize(512), WithPath(path)); err == nil {
		t.Fatal("Create over an existing table succeeded")
	}
}

func TestOpenErrors(t *testing.T) {
	if _, err := Open(""); err == nil {
		t.Fatal("Open with empty path succeeded")
	}
	// Empty file: no catalog.
	path := tempPath(t)
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	f.Close()
	if _, err := Open(path, WithPageSize(512)); err == nil {
		t.Fatal("Open of empty file succeeded")
	}
}

func TestCatalogCorruptionResilience(t *testing.T) {
	path := tempPath(t)
	tb, err := Create(testSchema(t), WithPageSize(512), WithPath(path))
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.BulkLoadContext(context.Background(), randomTuples(t, 100, 44)); err != nil {
		t.Fatal(err)
	}
	// Two checkpoints so both catalog slots hold valid generations.
	if err := tb.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := tb.Close(); err != nil {
		t.Fatal(err)
	}
	// Corrupt ONE catalog slot: the dual-slot design must recover through
	// the other.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	damaged := append([]byte(nil), raw...)
	damaged[20] ^= 0xFF // inside page 0's catalog payload
	if err := os.WriteFile(path, damaged, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := Open(path, WithPageSize(512))
	if err != nil {
		t.Fatalf("open with one corrupt catalog slot: %v", err)
	}
	if got.Len() != 100 {
		t.Fatalf("recovered Len = %d", got.Len())
	}
	if err := got.Check(); err != nil {
		t.Fatal(err)
	}
	got.Close()
	// Corrupt BOTH slots: now Open must fail.
	damaged = append([]byte(nil), raw...)
	damaged[20] ^= 0xFF
	damaged[512+20] ^= 0xFF // inside page 1's catalog payload
	if err := os.WriteFile(path, damaged, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path, WithPageSize(512)); err == nil {
		t.Fatal("both catalogs corrupt but Open succeeded")
	}
}

func TestClosedTableRejectsOps(t *testing.T) {
	path := tempPath(t)
	tb, err := Create(testSchema(t), WithPageSize(512), WithPath(path))
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.Close(); err != nil {
		t.Fatal(err)
	}
	if err := tb.Checkpoint(); err == nil {
		t.Fatal("Checkpoint after Close succeeded")
	}
	if err := tb.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

func TestInMemoryCheckpointIsFlush(t *testing.T) {
	tb := newTable(t, core.CodecAVQ, nil)
	if err := tb.BulkLoadContext(context.Background(), randomTuples(t, 50, 45)); err != nil {
		t.Fatal(err)
	}
	if err := tb.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := tb.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestPersistentHashIndexRestored(t *testing.T) {
	ctx := context.Background()
	path := tempPath(t)
	tb, err := Create(testSchema(t),
		WithPageSize(512),
		WithPath(path),
		WithSecondaryAttrs(4),
		WithSecondaryKind(IndexHash),
	)
	if err != nil {
		t.Fatal(err)
	}
	tuples := randomTuples(t, 400, 46)
	if err := tb.BulkLoadContext(ctx, tuples); err != nil {
		t.Fatal(err)
	}
	if err := tb.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := Open(path, WithPageSize(512))
	if err != nil {
		t.Fatal(err)
	}
	defer got.Close()
	rows, stats, err := got.SelectPointContext(ctx, 4, tuples[3][4])
	if err != nil {
		t.Fatal(err)
	}
	if stats.Strategy != StrategySecondary || len(rows) == 0 {
		t.Fatalf("hash index not restored: %v, %d rows", stats.Strategy, len(rows))
	}
}

// TestCrashRecoversLastCheckpoint is the crash-consistency guarantee end
// to end: copy-on-write rewrites + deferred page reuse + dual catalogs
// mean the on-disk file always reopens at exactly the last checkpoint,
// no matter how many unflushed (or partially flushed) mutations follow it.
func TestCrashRecoversLastCheckpoint(t *testing.T) {
	ctx := context.Background()
	path := tempPath(t)
	s := testSchema(t)
	tb, err := Create(s,
		WithCodec(core.CodecAVQ),
		WithPageSize(512),
		WithPath(path),
		WithPoolFrames(4), // tiny pool: mutations force evictions to disk
	)
	if err != nil {
		t.Fatal(err)
	}
	base := randomTuples(t, 800, 47)
	if err := tb.BulkLoadContext(ctx, base); err != nil {
		t.Fatal(err)
	}
	if err := tb.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Record the checkpointed logical state.
	var want []relation.Tuple
	if err := tb.ScanContext(ctx, func(tu relation.Tuple) bool {
		want = append(want, tu.Clone())
		return true
	}); err != nil {
		t.Fatal(err)
	}

	// Heavy post-checkpoint churn: inserts, deletes, splits. The tiny pool
	// guarantees many of these reach the file before the "crash".
	extra := randomTuples(t, 600, 48)
	for _, tu := range extra {
		if err := tb.InsertContext(ctx, tu); err != nil {
			t.Fatal(err)
		}
	}
	for _, tu := range base[:200] {
		if _, err := tb.DeleteContext(ctx, tu); err != nil {
			t.Fatal(err)
		}
	}

	// "Crash": snapshot the raw file bytes without Close or Checkpoint.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	crashPath := filepath.Join(t.TempDir(), "crashed.avqdb")
	if err := os.WriteFile(crashPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	got, err := Open(crashPath, WithPageSize(512))
	if err != nil {
		t.Fatalf("open after crash: %v", err)
	}
	defer got.Close()
	if got.Len() != len(want) {
		t.Fatalf("recovered %d tuples, checkpoint had %d", got.Len(), len(want))
	}
	i := 0
	if err := got.ScanContext(ctx, func(tu relation.Tuple) bool {
		if s.Compare(tu, want[i]) != 0 {
			t.Fatalf("recovered tuple %d = %v, checkpoint had %v", i, tu, want[i])
		}
		i++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if err := got.Check(); err != nil {
		t.Fatal(err)
	}
	tb.closed = true // the "crashed" table is abandoned
}

// TestCrashAfterManyCheckpoints interleaves checkpoints and churn, crashing
// at an arbitrary point: recovery must land exactly on the latest
// checkpoint, not an earlier one.
func TestCrashAfterManyCheckpoints(t *testing.T) {
	ctx := context.Background()
	path := tempPath(t)
	s := testSchema(t)
	tb, err := Create(s,
		WithCodec(core.CodecAVQ),
		WithPageSize(512),
		WithPath(path),
		WithPoolFrames(4),
	)
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.BulkLoadContext(ctx, randomTuples(t, 300, 49)); err != nil {
		t.Fatal(err)
	}
	var want []relation.Tuple
	for round := 0; round < 5; round++ {
		batch := randomTuples(t, 100, int64(50+round))
		if err := tb.InsertBatchContext(ctx, batch); err != nil {
			t.Fatal(err)
		}
		if _, err := tb.DeleteWhereContext(ctx, []Predicate{{Attr: 1, Lo: uint64(round), Hi: uint64(round)}}); err != nil {
			t.Fatal(err)
		}
		if err := tb.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		want = want[:0]
		if err := tb.ScanContext(ctx, func(tu relation.Tuple) bool {
			want = append(want, tu.Clone())
			return true
		}); err != nil {
			t.Fatal(err)
		}
	}
	// Post-checkpoint churn, then crash.
	if err := tb.InsertBatchContext(ctx, randomTuples(t, 400, 60)); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	crashPath := filepath.Join(t.TempDir(), "crashed.avqdb")
	if err := os.WriteFile(crashPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := Open(crashPath, WithPageSize(512))
	if err != nil {
		t.Fatalf("open after crash: %v", err)
	}
	defer got.Close()
	if got.Len() != len(want) {
		t.Fatalf("recovered %d tuples, last checkpoint had %d", got.Len(), len(want))
	}
	i := 0
	if err := got.ScanContext(ctx, func(tu relation.Tuple) bool {
		if s.Compare(tu, want[i]) != 0 {
			t.Fatalf("recovered tuple %d differs from last checkpoint", i)
		}
		i++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	tb.closed = true
}
