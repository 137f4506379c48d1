package experiments

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"sort"
	"time"

	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/relation"
	"repro/internal/shard"
	"repro/internal/table"
)

// JoinConfig parameterizes the φ-slab execution experiment: the
// φ-space merge join and φ-prefix group-by timed and checked against a
// decode-all-then-join oracle, and the slab-kernel allocation check.
type JoinConfig struct {
	// Tuples is the left (dense) relation size; default 120_000.
	Tuples int
	// RightTuples is the right (sparse-key) relation size; default 12_000.
	RightTuples int
	// Stride is the sparse-key spacing: the right relation only holds
	// clustering keys that are multiples of it, so the merge join's
	// lagging side has long fence-skippable gaps. Default 64.
	Stride int
	// PageSize is the block size; default 1024 (small blocks keep each
	// block's key span narrow, which is what fence-level skipping needs).
	PageSize int
	// Rounds is how many times each timed measurement repeats; the best
	// round is kept. Default 5.
	Rounds int
	// Shards is the φ-range shard count for the sharded differential.
	// Default 4.
	Shards int
	// Seed makes the workload deterministic.
	Seed int64
}

func (c *JoinConfig) fillDefaults() {
	if c.Tuples == 0 {
		c.Tuples = 120_000
	}
	if c.RightTuples == 0 {
		c.RightTuples = 12_000
	}
	if c.Stride == 0 {
		c.Stride = 64
	}
	if c.PageSize == 0 {
		c.PageSize = 1024
	}
	if c.Rounds == 0 {
		c.Rounds = 5
	}
	if c.Shards == 0 {
		c.Shards = 4
	}
}

// JoinResult reports the φ-slab execution measurements. Gates:
//   - the slab decode kernel allocates zero objects per block at steady
//     state, for every codec c, on both the flat micro schema and the
//     paper's 16-attribute relation (slab_allocs_per_op/c and
//     slab_allocs_per_op/paper/c);
//   - the merge join and group-by results, single-table and on the
//     cfg.Shards-way chained-stream join, are identical to a
//     decode-all-then-join oracle over the loaded tuples.
type JoinResult struct{ Envelope }

// joinSchema is the experiment schema: a wide clustering domain (so
// sparse keys leave multi-block gaps) over a flat ordinal space.
func joinSchema() *relation.Schema {
	return relation.MustSchema(
		relation.Domain{Name: "key", Size: 4096},
		relation.Domain{Name: "job", Size: 16},
		relation.Domain{Name: "years", Size: 64},
		relation.Domain{Name: "units", Size: 256},
	)
}

// joinWorkload builds the dense left and sparse right relations.
func joinWorkload(cfg JoinConfig) (left, right []relation.Tuple) {
	s := joinSchema()
	rng := rand.New(rand.NewSource(cfg.Seed + 17))
	rnd := func(keyMask uint64) relation.Tuple {
		tu := make(relation.Tuple, s.NumAttrs())
		for j := 0; j < s.NumAttrs(); j++ {
			tu[j] = uint64(rng.Int63n(int64(s.Domain(j).Size)))
		}
		if keyMask != 0 {
			tu[0] -= tu[0] % keyMask
		}
		return tu
	}
	left = make([]relation.Tuple, cfg.Tuples)
	for i := range left {
		left[i] = rnd(0)
	}
	right = make([]relation.Tuple, cfg.RightTuples)
	for i := range right {
		right[i] = rnd(uint64(cfg.Stride))
	}
	return left, right
}

// joinTable loads tuples into a fresh memory table.
func joinTable(ctx context.Context, cfg JoinConfig, tuples []relation.Tuple) (*table.Table, error) {
	tb, err := table.Create(joinSchema(),
		table.WithCodec(core.CodecAVQ),
		table.WithPageSize(cfg.PageSize),
	)
	if err != nil {
		return nil, err
	}
	if err := tb.BulkLoadContext(ctx, tuples); err != nil {
		return nil, err
	}
	return tb, nil
}

// bestMillis times f cfg.Rounds times and keeps the fastest run.
func bestMillis(rounds int, f func() error) (float64, error) {
	var best time.Duration
	for r := 0; r < rounds; r++ {
		start := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		d := time.Since(start)
		if r == 0 || d < best {
			best = d
		}
	}
	return float64(best.Microseconds()) / 1e3, nil
}

// oracleJoin is the decode-all-then-join reference: both relations
// sorted into φ order, grouped on attribute 0, and every matching pair
// emitted left-major within a key — the order the merge join emits.
func oracleJoin(s *relation.Schema, left, right []relation.Tuple) []table.JoinRow {
	l := append([]relation.Tuple(nil), left...)
	r := append([]relation.Tuple(nil), right...)
	s.SortTuples(l)
	s.SortTuples(r)
	var out []table.JoinRow
	for i, j := 0, 0; i < len(l) && j < len(r); {
		switch {
		case l[i][0] < r[j][0]:
			i++
		case l[i][0] > r[j][0]:
			j++
		default:
			ie, je := i, j
			for ie < len(l) && l[ie][0] == l[i][0] {
				ie++
			}
			for je < len(r) && r[je][0] == r[j][0] {
				je++
			}
			for _, lt := range l[i:ie] {
				for _, rt := range r[j:je] {
					out = append(out, table.JoinRow{Left: lt, Right: rt})
				}
			}
			i, j = ie, je
		}
	}
	return out
}

// oracleGroups is the reference GROUP BY groupAttr with COUNT/SUM/MIN/MAX
// of aggAttr over every tuple, in ascending group order.
func oracleGroups(tuples []relation.Tuple, groupAttr, aggAttr int) []table.GroupResult {
	byKey := map[uint64]*table.AggregateResult{}
	for _, tu := range tuples {
		g := byKey[tu[groupAttr]]
		if g == nil {
			g = &table.AggregateResult{Min: ^uint64(0)}
			byKey[tu[groupAttr]] = g
		}
		v := tu[aggAttr]
		g.Count++
		g.Sum += v
		g.Min = min(g.Min, v)
		g.Max = max(g.Max, v)
	}
	out := make([]table.GroupResult, 0, len(byKey))
	for k, g := range byKey {
		out = append(out, table.GroupResult{Value: k, Agg: *g})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Value < out[j].Value })
	return out
}

// RunJoin measures the φ-slab executor: the φ-space merge join and the
// φ-prefix group-by, checked against the decode-all oracle single-table
// and sharded, plus slab-kernel allocations on a flat and a multi-limb
// schema.
func RunJoin(ctx context.Context, cfg JoinConfig) (*JoinResult, error) {
	cfg.fillDefaults()
	res := &JoinResult{newEnvelope("join", map[string]float64{
		"tuples":       float64(cfg.Tuples),
		"right_tuples": float64(cfg.RightTuples),
		"stride":       float64(cfg.Stride),
		"page_size":    float64(cfg.PageSize),
		"rounds":       float64(cfg.Rounds),
		"shards":       float64(cfg.Shards),
	})}
	m := res.Metrics

	leftTuples, rightTuples := joinWorkload(cfg)
	var tables []*table.Table
	mk := func(tuples []relation.Tuple) (*table.Table, error) {
		tb, err := joinTable(ctx, cfg, tuples)
		if err == nil {
			tables = append(tables, tb)
		}
		return tb, err
	}
	defer func() {
		for _, tb := range tables {
			_ = tb.Close() //avqlint:ignore droppederr memory tables; nothing to persist
		}
	}()
	lt, err := mk(leftTuples)
	if err != nil {
		return nil, err
	}
	rt, err := mk(rightTuples)
	if err != nil {
		return nil, err
	}

	// Merge join: φ-space, with fence skipping on the sparse side.
	var stats table.JoinStats
	m["join_ms"], err = bestMillis(cfg.Rounds, func() error {
		st, err := table.MergeJoinEachContext(ctx, lt, rt, func(table.JoinRow) bool { return true })
		stats = st
		return err
	})
	if err != nil {
		return nil, err
	}
	m["join_matches"] = float64(stats.Matches)
	m["join_pruned_pct"] = 100 * ratio(float64(stats.BlocksPruned), float64(stats.BatchBlocks+stats.BlocksPruned))

	// Differential: the single-table and the sharded chained-stream joins
	// against the oracle.
	want := oracleJoin(joinSchema(), leftTuples, rightTuples)
	rows, _, err := table.MergeJoinContext(ctx, lt, rt)
	if err != nil {
		return nil, err
	}
	shardRows, err := shardJoinRows(ctx, cfg, leftTuples, rightTuples)
	if err != nil {
		return nil, err
	}
	identical := len(want) == stats.Matches &&
		reflect.DeepEqual(rows, want) && reflect.DeepEqual(shardRows, want)

	// Group-by on the φ prefix: contiguous key runs on raw ordinals.
	dom := joinSchema().Domain(0).Size
	var groups []table.GroupResult
	m["group_ms"], err = bestMillis(cfg.Rounds, func() error {
		g, _, err := lt.GroupByContext(ctx, 0, 0, dom-1, 0, 3)
		groups = g
		return err
	})
	if err != nil {
		return nil, err
	}
	m["groups"] = float64(len(groups))
	identical = identical && reflect.DeepEqual(groups, oracleGroups(leftTuples, 0, 3))

	// Slab kernel: steady-state DecodeBlockPhis must allocate nothing,
	// for every codec, on a one-limb and a multi-limb schema.
	flat, flatBlock := decodeMicroBlock(DecodeConfig{BlockTuples: 256, Seed: cfg.Seed})
	paper, paperBlock, err := paperMicroBlock(256, cfg.Seed)
	if err != nil {
		return nil, err
	}
	maxAllocs := 0.0
	for _, sb := range []struct {
		name  string
		s     *relation.Schema
		block []relation.Tuple
	}{{"", flat, flatBlock}, {"paper/", paper, paperBlock}} {
		for _, c := range allCodecs {
			enc, err := core.EncodeBlock(c, sb.s, sb.block, nil)
			if err != nil {
				return nil, fmt.Errorf("%v: encode: %w", c, err)
			}
			a := core.NewArena()
			got := allocsPerOp(100, func() {
				a.Reset()
				if _, err := core.DecodeBlockPhis(sb.s, enc, a); err != nil {
					panic(err)
				}
			})
			m["slab_allocs_per_op/"+sb.name+c.String()] = got
			maxAllocs = max(maxAllocs, got)
		}
	}

	res.Gates = []Gate{
		check("max_slab_allocs_per_op", maxAllocs, "<=", 0),
		holds("differential", identical),
	}
	return res, nil
}

// shardJoinRows loads the workload into two cfg.Shards-way sharded
// memory databases and joins them through the chained per-shard batch
// streams.
func shardJoinRows(ctx context.Context, cfg JoinConfig, left, right []relation.Tuple) ([]table.JoinRow, error) {
	mk := func(tuples []relation.Tuple) (*shard.DB, error) {
		db, err := shard.Create(joinSchema(), shard.Config{
			Kind:    backend.KindMemory,
			Shards:  cfg.Shards,
			Options: []table.Option{table.WithPageSize(cfg.PageSize)},
		})
		if err != nil {
			return nil, err
		}
		if err := db.BulkLoad(ctx, tuples); err != nil {
			_ = db.Close() //avqlint:ignore droppederr load failed; that error is the one to report
			return nil, err
		}
		return db, nil
	}
	ldb, err := mk(left)
	if err != nil {
		return nil, err
	}
	defer ldb.Close()
	rdb, err := mk(right)
	if err != nil {
		return nil, err
	}
	defer rdb.Close()
	rows, _, err := ldb.MergeJoin(ctx, rdb)
	return rows, err
}

// WriteText renders the result as an aligned report.
func (r *JoinResult) WriteText(w io.Writer) error {
	wl, m := r.Workload, r.Metrics
	fmt.Fprintf(w, "φ-slab execution: %.0f ⋈ %.0f tuples (stride %.0f), %.0f-byte pages, best of %.0f rounds\n",
		wl["tuples"], wl["right_tuples"], wl["stride"], wl["page_size"], wl["rounds"])
	fmt.Fprintf(w, "merge join: %.2f ms (%.0f matches, %.1f%% of blocks fence-pruned)\n",
		m["join_ms"], m["join_matches"], m["join_pruned_pct"])
	fmt.Fprintf(w, "group-by(A1): %.2f ms (%.0f groups)\n", m["group_ms"], m["groups"])
	fmt.Fprintf(w, "slab kernel allocs/op:")
	for _, prefix := range []string{"", "paper/"} {
		for _, c := range allCodecs {
			fmt.Fprintf(w, " %s%s=%.1f", prefix, c, m["slab_allocs_per_op/"+prefix+c.String()])
		}
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "differential: single-table and %.0f-shard join and group-by against the decode-all oracle\n", wl["shards"])
	writeGates(w, r.Gates)
	return nil
}
