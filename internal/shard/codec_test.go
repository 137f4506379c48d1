package shard_test

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/relation"
	"repro/internal/shard"
	"repro/internal/table"
)

// TestDefaultCodecIsAVQ pins the documented default: a table or a sharded
// database created without a codec option stores AVQ-coded blocks, and an
// explicit WithCodec(core.CodecRaw) still stores uncompressed ones. The
// raw codec is the zero value of core.Codec, so the default has to come
// from option resolution, not from the struct's zero value.
func TestDefaultCodecIsAVQ(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(7))
	tuples := make([]relation.Tuple, 4000)
	for i := range tuples {
		tuples[i] = randTuple(rng)
	}
	load := func(tb *table.Table) {
		t.Helper()
		if err := tb.BulkLoadContext(ctx, tuples); err != nil {
			t.Fatal(err)
		}
	}

	def, err := table.Create(oracleSchema())
	if err != nil {
		t.Fatal(err)
	}
	if got := def.Codec(); got != core.CodecAVQ {
		t.Fatalf("table.Create(schema) codec = %v, want %v", got, core.CodecAVQ)
	}
	raw, err := table.Create(oracleSchema(), table.WithCodec(core.CodecRaw))
	if err != nil {
		t.Fatal(err)
	}
	if got := raw.Codec(); got != core.CodecRaw {
		t.Fatalf("WithCodec(CodecRaw) codec = %v, want %v", got, core.CodecRaw)
	}
	load(def)
	load(raw)
	defStats, err := def.StoreStats()
	if err != nil {
		t.Fatal(err)
	}
	rawStats, err := raw.StoreStats()
	if err != nil {
		t.Fatal(err)
	}
	if rawStats.StreamBytes < rawStats.RawDataBytes {
		t.Fatalf("raw blocks hold %d coded bytes for %d raw bytes: not uncompressed", rawStats.StreamBytes, rawStats.RawDataBytes)
	}
	if defStats.Blocks >= rawStats.Blocks {
		t.Fatalf("default codec used %d blocks, raw %d: default is not compressing", defStats.Blocks, rawStats.Blocks)
	}

	for _, tc := range []struct {
		name string
		opts []table.Option
		want core.Codec
	}{
		{"no codec option", nil, core.CodecAVQ},
		{"WithCodec(CodecRaw)", []table.Option{table.WithCodec(core.CodecRaw)}, core.CodecRaw},
	} {
		db, err := shard.Create(oracleSchema(), shard.Config{Shards: 3, Options: tc.opts})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < db.NumShards(); i++ {
			if got := db.Shard(i).Codec(); got != tc.want {
				t.Fatalf("shard.Create, %s: shard %d codec = %v, want %v", tc.name, i, got, tc.want)
			}
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
