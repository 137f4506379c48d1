package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/obs"
	"repro/internal/relation"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/table"
)

// pageSize is the block size every workload stores its data in: the
// paper's 8 KiB pages.
const pageSize = 8192

// workload is one named traffic mix over one generated database.
type workload struct {
	name string
	// tuples is the relation size at full scale.
	tuples int
	// rate is the open-loop arrival rate in requests per second at full
	// scale, about a third of the closed-loop capacity measured when the
	// benchmark was defined (a ninth on hot-point; see README.md).
	rate float64
	// limit is the latency limit a closed-loop request must meet to count
	// towards capacity_ops_per_s, about four times the closed-loop p99
	// measured when the benchmark was defined.
	limit time.Duration
	// sharded marks a workload served from a shard directory instead of a
	// single table file.
	sharded bool
	// durability names the write path's flush policy in the provenance.
	durability string
	// build generates the data and the request stream for a seed.
	build func(n int, seed int64) (*dataset, error)
}

// dataset is a workload's generated relation plus how to lay it out on
// disk and how to draw requests against it.
type dataset struct {
	schema *relation.Schema
	tuples []relation.Tuple
	// create writes the database to path (a file or a directory).
	create func(ctx context.Context, path string) error
	// stream returns a fresh request sequence; equal seeds give equal
	// sequences.
	stream func() stream
}

// request is one generated call: its wire body, the query it encodes (for
// reads), and the exact answer it must get (on read-only workloads) or the
// write's record (on sharded-rw).
type request struct {
	write bool
	op    string
	body  []byte
	q     server.QueryRequest
	want  *server.QueryResponse
	rw    *rwWrite
}

// stream is a deterministic request sequence with its oracle. next is
// safe for concurrent use and hands out requests in sequence order; the
// check methods judge a response and are safe for concurrent use too.
type stream interface {
	next() *request
	checkRead(r *request, got *server.QueryResponse) error
	checkWrite(r *request, got *server.MutateResponse) error
	// final verifies the database contents after the run against every
	// acknowledged write; it is a no-op for read-only streams.
	final(ctx context.Context, eng server.Engine) error
}

var workloads = []*workload{
	{
		name:       "paper-analytic",
		tuples:     100_000,
		rate:       24,
		limit:      240 * time.Millisecond,
		durability: "checkpoint (read-only)",
		build:      buildPaperAnalytic,
	},
	{
		name:       "hot-point",
		tuples:     40_000,
		rate:       600,
		limit:      5 * time.Millisecond,
		durability: "checkpoint (read-only)",
		build:      buildHotPoint,
	},
	{
		name:       "sharded-rw",
		tuples:     200_000,
		rate:       45,
		limit:      220 * time.Millisecond,
		sharded:    true,
		durability: "wal (group commit, fsync per commit group)",
		build:      buildShardedRW,
	},
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// tableCreator lays tuples out as one AVQ table file at path. The codec
// and page size are set explicitly so a change of default cannot change
// what is measured.
func tableCreator(schema *relation.Schema, tuples []relation.Tuple) func(context.Context, string) error {
	return func(ctx context.Context, path string) error {
		tb, err := table.Create(schema, table.WithCodec(core.CodecAVQ), table.WithPageSize(pageSize), table.WithPath(path))
		if err != nil {
			return err
		}
		if err := tb.BulkLoadContext(ctx, tuples); err != nil {
			_ = tb.Close() // the load error is the one to report
			return err
		}
		return tb.Close()
	}
}

// openEngine opens a database the way avqserve does, with reg (which may
// be nil) attached. The table is not wrapped for concurrency: the caller
// sends one request at a time.
func openEngine(path string, sharded bool, reg *obs.Registry) (server.Engine, error) {
	opts := []table.Option{table.WithObs(reg)}
	if sharded {
		return shard.Open(shard.Config{Kind: backend.KindFilesystem, Dir: path, Options: opts, Obs: reg})
	}
	return table.Open(path, opts...)
}

// aggOf folds attribute attr of rows into the wire aggregate.
func aggOf(rows [][]uint64, attr int) server.AggregateJSON {
	var a server.AggregateJSON
	for _, tu := range rows {
		v := tu[attr]
		if a.Count == 0 || v < a.Min {
			a.Min = v
		}
		if v > a.Max {
			a.Max = v
		}
		a.Count++
		a.Sum += v
	}
	return a
}

// groupsOf groups rows by attribute g and aggregates attribute agg per
// group, ascending by group value.
func groupsOf(rows [][]uint64, g, agg int) []server.GroupJSON {
	by := map[uint64][][]uint64{}
	for _, tu := range rows {
		by[tu[g]] = append(by[tu[g]], tu)
	}
	out := make([]server.GroupJSON, 0, len(by))
	for v, rs := range by {
		out = append(out, server.GroupJSON{Value: v, Agg: aggOf(rs, agg)})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Value < out[j].Value })
	return out
}

// answer computes the exact response to q over rows, the relation's
// tuples sorted in φ order, without consulting the engine.
func answer(q server.QueryRequest, rows [][]uint64) *server.QueryResponse {
	var match [][]uint64
	for _, tu := range rows {
		if v := tu[q.Attr]; v >= q.Lo && v <= q.Hi {
			match = append(match, tu)
		}
	}
	resp := &server.QueryResponse{Op: q.Op, Count: len(match)}
	switch q.Op {
	case server.OpSelect:
		if q.Limit > 0 && len(match) > q.Limit {
			match, resp.Truncated = match[:q.Limit], true
		}
		if len(match) > 0 {
			resp.Rows = match
		}
	case server.OpAggregate:
		a := aggOf(match, q.AggAttr)
		resp.Agg = &a
	case server.OpGroupBy:
		if len(match) > 0 {
			resp.Groups = groupsOf(match, q.GroupAttr, q.AggAttr)
		}
	}
	return resp
}

func queryRequest(q server.QueryRequest) *request {
	body, err := json.Marshal(q)
	if err != nil {
		panic(err) // a QueryRequest always marshals
	}
	return &request{op: q.Op, body: body, q: q}
}

func mutateRequest(m server.MutateRequest) *request {
	body, err := json.Marshal(m)
	if err != nil {
		panic(err) // a MutateRequest always marshals
	}
	return &request{write: true, op: m.Op, body: body}
}

// readPool is a read-only stream: a fixed pool of queries with their
// exact answers, drawn in a seeded order.
type readPool struct {
	mu   sync.Mutex
	rng  *rand.Rand
	pool []*request
}

func newReadPool(pool []*request, seed int64) *readPool {
	return &readPool{rng: rand.New(rand.NewSource(seed)), pool: pool}
}

func (p *readPool) next() *request {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.pool[p.rng.Intn(len(p.pool))]
}

func (p *readPool) checkRead(r *request, got *server.QueryResponse) error {
	return sameResponse(got, r.want)
}

func (p *readPool) checkWrite(r *request, _ *server.MutateResponse) error {
	return fmt.Errorf("read-only workload sent a %s", r.op)
}

func (p *readPool) final(context.Context, server.Engine) error { return nil }

// sameResponse compares a response with the expected one field by field,
// naming the first difference.
func sameResponse(got, want *server.QueryResponse) error {
	switch {
	case got.Op != want.Op:
		return fmt.Errorf("op %q, want %q", got.Op, want.Op)
	case got.Count != want.Count:
		return fmt.Errorf("%s: count %d, want %d", want.Op, got.Count, want.Count)
	case got.Truncated != want.Truncated:
		return fmt.Errorf("%s: truncated %v, want %v", want.Op, got.Truncated, want.Truncated)
	case len(got.Rows) != len(want.Rows):
		return fmt.Errorf("%s: %d rows, want %d", want.Op, len(got.Rows), len(want.Rows))
	case len(got.Groups) != len(want.Groups):
		return fmt.Errorf("%s: %d groups, want %d", want.Op, len(got.Groups), len(want.Groups))
	case (got.Agg == nil) != (want.Agg == nil) || got.Agg != nil && *got.Agg != *want.Agg:
		return fmt.Errorf("%s: aggregate %+v, want %+v", want.Op, got.Agg, want.Agg)
	}
	for i := range want.Rows {
		if !slices.Equal(got.Rows[i], want.Rows[i]) {
			return fmt.Errorf("%s: row %d is %v, want %v", want.Op, i, got.Rows[i], want.Rows[i])
		}
	}
	for i := range want.Groups {
		if got.Groups[i] != want.Groups[i] {
			return fmt.Errorf("%s: group %d is %+v, want %+v", want.Op, i, got.Groups[i], want.Groups[i])
		}
	}
	return nil
}

// toRows returns the tuples in φ order, which is lexicographic order:
// attribute 0 is the most significant digit.
func toRows(tuples []relation.Tuple) [][]uint64 {
	rows := make([][]uint64, len(tuples))
	for i, tu := range tuples {
		rows[i] = tu
	}
	slices.SortFunc(rows, slices.Compare)
	return rows
}

// poolSize is the number of distinct queries a read-only stream draws
// from; it divides evenly into every workload's shares.
const poolSize = 240

// buildPaperAnalytic generates the paper's relation and a pool of four
// query shapes. Attribute 0 clusters the blocks; attribute 15 is the
// unique key, so a range on it is a full scan. The two fence-pruned
// shapes read a quarter of the blocks and the two full scans all of them,
// so latencies are bimodal; the shares are 20/20/30/30 rather than equal
// so that the median falls inside the full-scan mode instead of on the
// edge between the modes, where it would jump from run to run.
func buildPaperAnalytic(n int, seed int64) (*dataset, error) {
	spec := gen.Spec38Byte(n, true, seed)
	schema, tuples, err := spec.Build()
	if err != nil {
		return nil, err
	}
	pool := func() []*request {
		rows := toRows(tuples)
		last := schema.NumAttrs() - 1
		a0 := spec.EffectiveRange(0, schema)
		width := func(permille int) uint64 { return max(1, uint64(n*permille/1000)) }
		rng := rand.New(rand.NewSource(seed ^ 0x5eed))
		pool := make([]*request, poolSize)
		for i := range pool {
			var q server.QueryRequest
			switch share := i % 10; {
			case share < 2: // point on the clustering attribute: prunes on fences
				v := uint64(rng.Int63n(int64(a0)))
				q = server.QueryRequest{Op: server.OpCount, Attr: 0, Lo: v, Hi: v}
			case share < 4: // group-by attr 1 under a clustering point
				v := uint64(rng.Int63n(int64(a0)))
				q = server.QueryRequest{Op: server.OpGroupBy, Attr: 0, Lo: v, Hi: v, GroupAttr: 1, AggAttr: 14}
			case share < 7: // 1% range of the key: full scan
				w := width(10)
				lo := uint64(rng.Int63n(int64(uint64(n) - w + 1)))
				q = server.QueryRequest{Op: server.OpAggregate, Attr: last, Lo: lo, Hi: lo + w - 1, AggAttr: 14}
			default: // 0.1% range of the key with a row limit
				w := width(1)
				lo := uint64(rng.Int63n(int64(uint64(n) - w + 1)))
				q = server.QueryRequest{Op: server.OpSelect, Attr: last, Lo: lo, Hi: lo + w - 1, Limit: 100}
			}
			pool[i] = queryRequest(q)
			pool[i].want = answer(q, rows)
		}
		return pool
	}
	return readOnly(schema, tuples, seed, pool), nil
}

// readOnly assembles a read-only dataset: one table file, and a stream
// over a query pool whose answers are computed on first use, so the
// oracle's work stays out of the set-up time.
func readOnly(schema *relation.Schema, tuples []relation.Tuple, seed int64, pool func() []*request) *dataset {
	once := sync.OnceValue(pool)
	return &dataset{
		schema: schema,
		tuples: tuples,
		create: tableCreator(schema, tuples),
		stream: func() stream { return newReadPool(once(), seed) },
	}
}

// flatSchema is the employee relation of the shard experiment: four
// attributes whose φ fits one uint64.
func flatSchema() *relation.Schema {
	return relation.MustSchema(
		relation.Domain{Name: "dept", Size: 512},
		relation.Domain{Name: "job", Size: 16},
		relation.Domain{Name: "years", Size: 64},
		relation.Domain{Name: "empno", Size: 4096},
	)
}

// flatKey is a flat-schema tuple's φ ordinal.
func flatKey(tu []uint64) uint64 { return ((tu[0]*16+tu[1])*64+tu[2])*4096 + tu[3] }

// drawFlat draws a uniform flat-schema tuple whose key is not in seen,
// and adds it there.
func drawFlat(rng *rand.Rand, seen map[uint64]bool) relation.Tuple {
	for {
		tu := relation.Tuple{
			uint64(rng.Intn(512)), uint64(rng.Intn(16)), uint64(rng.Intn(64)), uint64(rng.Intn(4096)),
		}
		if k := flatKey(tu); !seen[k] {
			seen[k] = true
			return tu
		}
	}
}

// flatTuples draws n distinct flat-schema tuples.
func flatTuples(n int, rng *rand.Rand) []relation.Tuple {
	seen := make(map[uint64]bool, n)
	tuples := make([]relation.Tuple, n)
	for i := range tuples {
		tuples[i] = drawFlat(rng, seen)
	}
	return tuples
}

// buildHotPoint generates the flat relation and a pool of point selects
// and four-value counts and aggregates on the clustering attribute.
func buildHotPoint(n int, seed int64) (*dataset, error) {
	schema := flatSchema()
	tuples := flatTuples(n, rand.New(rand.NewSource(seed)))
	pool := func() []*request {
		rows := toRows(tuples)
		rng := rand.New(rand.NewSource(seed ^ 0x5eed))
		pool := make([]*request, poolSize)
		for i := range pool {
			var q server.QueryRequest
			switch i % 3 {
			case 0:
				v := uint64(rng.Intn(512))
				q = server.QueryRequest{Op: server.OpSelect, Attr: 0, Lo: v, Hi: v, Limit: 20}
			case 1:
				v := uint64(rng.Intn(512 - 3))
				q = server.QueryRequest{Op: server.OpCount, Attr: 0, Lo: v, Hi: v + 3}
			case 2:
				v := uint64(rng.Intn(512 - 3))
				q = server.QueryRequest{Op: server.OpAggregate, Attr: 0, Lo: v, Hi: v + 3, AggAttr: 3}
			}
			pool[i] = queryRequest(q)
			pool[i].want = answer(q, rows)
		}
		return pool
	}
	return readOnly(schema, tuples, seed, pool), nil
}

// shardCount is the number of equal φ-range shards of sharded-rw.
const shardCount = 4

// buildShardedRW generates the flat relation on four filesystem shards
// with WAL durability, and a stream of 25% writes and 75% reads.
func buildShardedRW(n int, seed int64) (*dataset, error) {
	schema := flatSchema()
	tuples := flatTuples(n, rand.New(rand.NewSource(seed)))
	create := func(ctx context.Context, dir string) error {
		db, err := shard.Create(schema, shard.Config{
			Kind:   backend.KindFilesystem,
			Dir:    dir,
			Shards: shardCount,
			Options: []table.Option{
				table.WithCodec(core.CodecAVQ),
				table.WithPageSize(pageSize),
				table.WithDurability(table.DurabilityWAL),
			},
		})
		if err != nil {
			return err
		}
		if err := db.BulkLoad(ctx, tuples); err != nil {
			_ = db.Close() // the load error is the one to report
			return err
		}
		return db.Close()
	}
	return &dataset{
		schema: schema,
		tuples: tuples,
		create: create,
		stream: func() stream { return newRWStream(tuples, seed) },
	}, nil
}
