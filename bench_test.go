// Package repro's root benchmark harness: one benchmark family per table
// and figure of the paper's evaluation (Section 5). `go test -bench=. -benchmem`
// regenerates every measured quantity; cmd/avqbench renders the full
// tables including the analytic model rows.
package repro

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/gen"
	"repro/internal/relation"
	"repro/internal/table"
)

// fig59Relation builds the Section 5.2 relation (16 attributes, 38-byte
// tuples) at a benchmark-friendly size and packs it into 8 KiB runs.
func fig59Relation(b *testing.B, tuples int, codec core.Codec) (*relation.Schema, [][]relation.Tuple, [][]byte) {
	b.Helper()
	schema, data, err := gen.Spec38Byte(tuples, false, 1995).Build()
	if err != nil {
		b.Fatal(err)
	}
	schema.SortTuples(data)
	const capacity = 8192 - 4
	var runs [][]relation.Tuple
	remaining := data
	for len(remaining) > 0 {
		u, err := core.MaxFit(codec, schema, remaining, capacity)
		if err != nil {
			b.Fatal(err)
		}
		if u == 0 {
			b.Fatal("tuple does not fit block")
		}
		runs = append(runs, remaining[:u])
		remaining = remaining[u:]
	}
	streams := make([][]byte, len(runs))
	for i, run := range runs {
		streams[i], err = core.EncodeBlock(codec, schema, run, nil)
		if err != nil {
			b.Fatal(err)
		}
	}
	return schema, runs, streams
}

// BenchmarkFig59BlockEncode is row 1 of Figure 5.9: average time to
// AVQ-code one 8 KiB block of the Section 5.2 relation.
func BenchmarkFig59BlockEncode(b *testing.B) {
	schema, runs, _ := fig59Relation(b, 20000, core.CodecAVQ)
	buf := make([]byte, 0, 8192)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run := runs[i%len(runs)]
		var err error
		buf, err = core.EncodeBlock(core.CodecAVQ, schema, run, buf[:0])
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig59BlockDecode is row 2 (t2): average time to decode one
// AVQ block.
func BenchmarkFig59BlockDecode(b *testing.B) {
	schema, _, streams := fig59Relation(b, 20000, core.CodecAVQ)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.DecodeBlock(schema, streams[i%len(streams)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig59Extract is row 4 (t3): average time to extract the tuples
// of one uncoded block.
func BenchmarkFig59Extract(b *testing.B) {
	schema, _, streams := fig59Relation(b, 20000, core.CodecRaw)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.DecodeBlock(schema, streams[i%len(streams)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig57Compression regenerates Figure 5.7's measurement per test
// configuration: the cost of the full compression pipeline (sort, pack,
// code), reporting the achieved reduction as a custom metric.
func BenchmarkFig57Compression(b *testing.B) {
	for _, test := range experiments.Fig57Tests() {
		b.Run(fmt.Sprintf("test%d_skew=%v_var=%s", test.Number, test.Skew, test.Variance), func(b *testing.B) {
			schema, tuples, err := gen.Fig57Spec(10000, test.Skew, test.Variance, 7).Build()
			if err != nil {
				b.Fatal(err)
			}
			var reduction float64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sorted := make([]relation.Tuple, len(tuples))
				copy(sorted, tuples)
				schema.SortTuples(sorted)
				const capacity = 8192 - 4
				avqBlocks, payload := 0, 0
				remaining := sorted
				for len(remaining) > 0 {
					u, err := core.MaxFit(core.CodecAVQ, schema, remaining, capacity)
					if err != nil {
						b.Fatal(err)
					}
					size, err := core.EncodedSize(core.CodecAVQ, schema, remaining[:u])
					if err != nil {
						b.Fatal(err)
					}
					avqBlocks++
					payload += size
					remaining = remaining[u:]
				}
				wordBytes := len(tuples) * 4 * schema.NumAttrs()
				wordBlocks := (wordBytes + capacity - 1) / capacity
				reduction = 100 * (1 - float64(avqBlocks)/float64(wordBlocks))
			}
			b.ReportMetric(reduction, "%reduction")
		})
	}
}

// fig58Tables builds the Figure 5.8 table pair once per benchmark run.
func fig58Tables(b *testing.B, tuples int) (raw, avq *table.Table, spec gen.Spec) {
	b.Helper()
	spec = gen.Spec38Byte(tuples, true, 1995)
	schema, data, err := spec.Build()
	if err != nil {
		b.Fatal(err)
	}
	mk := func(codec core.Codec) *table.Table {
		tb, err := table.Create(schema,
			table.WithCodec(codec),
			table.WithSecondaryAttrs(table.AllAttrs(schema)...),
		)
		if err != nil {
			b.Fatal(err)
		}
		if err := tb.BulkLoadContext(context.Background(), data); err != nil {
			b.Fatal(err)
		}
		return tb
	}
	return mk(core.CodecRaw), mk(core.CodecAVQ), spec
}

// BenchmarkFig58BlocksAccessed regenerates Figure 5.8's measurement: the
// cold execution of sigma_{a<=Ak<=b}(R) per access-path class, reporting N
// as a custom metric.
func BenchmarkFig58BlocksAccessed(b *testing.B) {
	raw, avq, spec := fig58Tables(b, 10000)
	schema := raw.Schema()
	cases := []struct {
		name string
		attr int
	}{
		{"clustered_a01", 0},
		{"secondary_a08", 7},
		{"point_key", schema.NumAttrs() - 1},
	}
	for _, c := range cases {
		for _, eng := range []struct {
			name string
			tbl  *table.Table
		}{{"raw", raw}, {"avq", avq}} {
			b.Run(c.name+"/"+eng.name, func(b *testing.B) {
				span := spec.EffectiveRange(c.attr, schema)
				lo := span / 2
				hi := span * 6 / 10
				if c.attr == schema.NumAttrs()-1 || hi <= lo {
					hi = lo
				}
				var blocks int
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					if err := eng.tbl.DropCache(); err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
					_, stats, err := eng.tbl.SelectRangeContext(context.Background(), c.attr, lo, hi)
					if err != nil {
						b.Fatal(err)
					}
					blocks = stats.BlocksRead
				}
				b.ReportMetric(float64(blocks), "blocks(N)")
			})
		}
	}
}

// BenchmarkAblationCodecs times block coding under each codec on identical
// data: the CPU side of the design-choice ablation.
func BenchmarkAblationCodecs(b *testing.B) {
	for _, codec := range []core.Codec{core.CodecRaw, core.CodecAVQ, core.CodecRepOnly, core.CodecDeltaChain} {
		b.Run(codec.String(), func(b *testing.B) {
			schema, runs, streams := fig59Relation(b, 10000, codec)
			b.Run("encode", func(b *testing.B) {
				buf := make([]byte, 0, 8192)
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					var err error
					buf, err = core.EncodeBlock(codec, schema, runs[i%len(runs)], buf[:0])
					if err != nil {
						b.Fatal(err)
					}
				}
			})
			b.Run("decode", func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := core.DecodeBlock(schema, streams[i%len(streams)]); err != nil {
						b.Fatal(err)
					}
				}
			})
		})
	}
}

// BenchmarkTableMutations times localized insert and delete (Section 4.2):
// decode, modify, re-code of a single block plus index maintenance.
func BenchmarkTableMutations(b *testing.B) {
	ctx := context.Background()
	schema, data, err := gen.Spec38Byte(10000, false, 3).Build()
	if err != nil {
		b.Fatal(err)
	}
	tb, err := table.Create(schema, table.WithCodec(core.CodecAVQ))
	if err != nil {
		b.Fatal(err)
	}
	if err := tb.BulkLoadContext(ctx, data); err != nil {
		b.Fatal(err)
	}
	b.Run("insert+delete", func(b *testing.B) {
		tu := data[len(data)/2].Clone()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := tb.InsertContext(ctx, tu); err != nil {
				b.Fatal(err)
			}
			if _, err := tb.DeleteContext(ctx, tu); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("contains", func(b *testing.B) {
		tu := data[len(data)/3]
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := tb.Contains(tu); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkBulkLoad times the full load pipeline (sort, pack, code, index).
func BenchmarkBulkLoad(b *testing.B) {
	schema, data, err := gen.Spec38Byte(10000, false, 4).Build()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tb, err := table.Create(schema, table.WithCodec(core.CodecAVQ))
		if err != nil {
			b.Fatal(err)
		}
		if err := tb.BulkLoadContext(context.Background(), data); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInsertBatchVsSequential quantifies the batch-merge insertion
// path against tuple-at-a-time inserts.
func BenchmarkInsertBatchVsSequential(b *testing.B) {
	ctx := context.Background()
	schema, base, err := gen.Spec38Byte(5000, false, 7).Build()
	if err != nil {
		b.Fatal(err)
	}
	_, batch, err := gen.Spec38Byte(1000, false, 8).Build()
	if err != nil {
		b.Fatal(err)
	}
	load := func() *table.Table {
		tb, err := table.Create(schema, table.WithCodec(core.CodecAVQ))
		if err != nil {
			b.Fatal(err)
		}
		if err := tb.BulkLoadContext(ctx, base); err != nil {
			b.Fatal(err)
		}
		return tb
	}
	b.Run("sequential", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			tb := load()
			b.StartTimer()
			for _, tu := range batch {
				if err := tb.InsertContext(ctx, tu); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("batch", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			tb := load()
			b.StartTimer()
			if err := tb.InsertBatchContext(ctx, batch); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkJoins measures the two join algorithms over compressed
// relations.
func BenchmarkJoins(b *testing.B) {
	ctx := context.Background()
	schema, left, err := gen.Spec38Byte(8000, false, 9).Build()
	if err != nil {
		b.Fatal(err)
	}
	_, right, err := gen.Spec38Byte(2000, false, 10).Build()
	if err != nil {
		b.Fatal(err)
	}
	mk := func(rows []relation.Tuple) *table.Table {
		tb, err := table.Create(schema, table.WithCodec(core.CodecAVQ))
		if err != nil {
			b.Fatal(err)
		}
		if err := tb.BulkLoadContext(ctx, rows); err != nil {
			b.Fatal(err)
		}
		return tb
	}
	lt, rt := mk(left), mk(right)
	b.Run("merge-clustered", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := table.MergeJoinContext(ctx, lt, rt); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("hash", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := table.HashJoinContext(ctx, lt, rt, 1, 1); err != nil {
				b.Fatal(err)
			}
		}
	})
}
