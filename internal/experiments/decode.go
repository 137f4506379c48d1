package experiments

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"runtime/debug"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/relation"
	"repro/internal/table"
)

// DecodeConfig parameterizes the decode-kernel experiment: the
// zero-allocation arena tuple decode versus the allocating reference,
// the φ slab decode the executor runs, and the same macro workload
// RunObs times so the gate can hold it against the committed results.
type DecodeConfig struct {
	// Tuples is the macro relation size; default 100_000.
	Tuples int
	// PageSize is the block size; default 8192.
	PageSize int
	// BlockTuples sizes the micro-benchmark block; default 256.
	BlockTuples int
	// Rounds is how many times each measurement repeats; the best round
	// is kept. Default 5.
	Rounds int
	// Iters is the number of timed iterations per round. Default 2000.
	Iters int
	// CountIters is how many CountRange queries the macro round times.
	// Default 50.
	CountIters int
	// Seed makes the workload deterministic.
	Seed int64
}

func (c *DecodeConfig) fillDefaults() {
	if c.Tuples == 0 {
		c.Tuples = 100_000
	}
	if c.PageSize == 0 {
		c.PageSize = 8192
	}
	if c.BlockTuples == 0 {
		c.BlockTuples = 256
	}
	if c.Rounds == 0 {
		c.Rounds = 5
	}
	if c.Iters == 0 {
		c.Iters = 2000
	}
	if c.CountIters == 0 {
		c.CountIters = 50
	}
}

// DecodeResult reports the decode-kernel measurements, per codec c: the
// arena tuple decode against the allocating reference
// (arena_ns_per_op/c, alloc_ns_per_op/c, their allocs, speedup_pct/c),
// and the φ slab decode on the flat micro schema (slab_ns_per_op/c) and
// on the paper's 16-attribute relation (slab_ns_per_op/paper/c, against
// the tuple decode tuple_ns_per_op/paper/c). Gate: every steady-state
// arena tuple decode and slab decode, on both schemas, allocates zero
// objects per block.
//
// load_ms and count_ms repeat RunObs's uninstrumented workload so
// `avqbench -exp gate` can hold them against the committed decode and obs
// results (CheckGates).
type DecodeResult struct{ Envelope }

// allCodecs lists every block codec, in report order.
var allCodecs = []core.Codec{
	core.CodecRaw, core.CodecAVQ, core.CodecRepOnly,
	core.CodecDeltaChain, core.CodecPacked,
}

// bestNsPerOp times f over cfg.Iters iterations, cfg.Rounds times, and
// returns the fastest round's per-iteration nanoseconds.
func bestNsPerOp(rounds, iters int, f func()) float64 {
	best := 0.0
	for r := 0; r < rounds; r++ {
		start := time.Now()
		for i := 0; i < iters; i++ {
			f()
		}
		ns := float64(time.Since(start).Nanoseconds()) / float64(iters)
		if r == 0 || ns < best {
			best = ns
		}
	}
	return best
}

// allocsPerOp measures f's steady-state heap allocations per call, the
// same way testing.AllocsPerRun does: one warm-up call, then a counted
// run under GOMAXPROCS(1) so other goroutines' allocations cannot bleed
// into the window. The GC is paused for the measurement and the best of
// three windows is kept: a single clean window proves the operation
// itself does not allocate, whereas runtime background activity can add
// strays to any one window.
func allocsPerOp(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	f()
	best := 0.0
	for w := 0; w < 3; w++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			f()
		}
		runtime.ReadMemStats(&after)
		got := float64(after.Mallocs-before.Mallocs) / float64(runs)
		if w == 0 || got < best {
			best = got
		}
	}
	return best
}

// decodeMicroBlock builds a sorted block of cfg.BlockTuples random
// tuples over the paper's five-attribute employee schema, whose
// cross-product space fits a uint64: φ is one limb.
func decodeMicroBlock(cfg DecodeConfig) (*relation.Schema, []relation.Tuple) {
	s := relation.MustSchema(
		relation.Domain{Name: "dept", Size: 8},
		relation.Domain{Name: "job", Size: 16},
		relation.Domain{Name: "years", Size: 64},
		relation.Domain{Name: "hours", Size: 64},
		relation.Domain{Name: "empno", Size: 64},
	)
	rng := rand.New(rand.NewSource(cfg.Seed + 7))
	tuples := make([]relation.Tuple, cfg.BlockTuples)
	for i := range tuples {
		tu := make(relation.Tuple, s.NumAttrs())
		for j := 0; j < s.NumAttrs(); j++ {
			tu[j] = uint64(rng.Int63n(int64(s.Domain(j).Size)))
		}
		tuples[i] = tu
	}
	s.SortTuples(tuples)
	return s, tuples
}

// paperMicroBlock builds a sorted block of n tuples of the paper's
// 16-attribute, 38-byte relation (gen.Spec38Byte), whose φ takes four
// limbs.
func paperMicroBlock(n int, seed int64) (*relation.Schema, []relation.Tuple, error) {
	s, tuples, err := gen.Spec38Byte(n, true, seed).Build()
	if err != nil {
		return nil, nil, err
	}
	s.SortTuples(tuples)
	return s, tuples, nil
}

// RunDecode measures the zero-allocation decode kernels: per-codec
// arena-versus-allocating tuple decode, the φ slab decode on a one-limb
// and a four-limb schema, and the BulkLoad/CountRange macro workload
// shared with RunObs.
func RunDecode(ctx context.Context, cfg DecodeConfig) (*DecodeResult, error) {
	cfg.fillDefaults()
	res := &DecodeResult{newEnvelope("decode", map[string]float64{
		"tuples":       float64(cfg.Tuples),
		"page_size":    float64(cfg.PageSize),
		"block_tuples": float64(cfg.BlockTuples),
		"rounds":       float64(cfg.Rounds),
		"count_iters":  float64(cfg.CountIters),
	})}
	m := res.Metrics

	s, block := decodeMicroBlock(cfg)
	ps, pblock, err := paperMicroBlock(cfg.BlockTuples, cfg.Seed)
	if err != nil {
		return nil, err
	}
	maxAllocs := 0.0
	for _, c := range allCodecs {
		key := "/" + c.String()
		enc, err := core.EncodeBlock(c, s, block, nil)
		if err != nil {
			return nil, fmt.Errorf("%v: encode: %w", c, err)
		}
		a := core.NewArena()
		arenaOp := func() {
			a.Reset()
			if _, err := core.DecodeBlockArena(s, enc, a); err != nil {
				panic(err)
			}
		}
		allocOp := func() {
			if _, err := core.DecodeBlock(s, enc); err != nil {
				panic(err)
			}
		}
		arenaNs, allocNs := bestNsPerOp(cfg.Rounds, cfg.Iters, arenaOp), bestNsPerOp(cfg.Rounds, cfg.Iters, allocOp)
		m["arena_ns_per_op"+key], m["alloc_ns_per_op"+key] = arenaNs, allocNs
		m["arena_allocs_per_op"+key] = allocsPerOp(100, arenaOp)
		m["alloc_allocs_per_op"+key] = allocsPerOp(100, allocOp)
		m["speedup_pct"+key] = 100 * ratio(allocNs-arenaNs, allocNs)
		slabOp := func() {
			a.Reset()
			if _, err := core.DecodeBlockPhis(s, enc, a); err != nil {
				panic(err)
			}
		}
		m["slab_ns_per_op"+key] = bestNsPerOp(cfg.Rounds, cfg.Iters, slabOp)
		m["slab_allocs_per_op"+key] = allocsPerOp(100, slabOp)
		penc, err := core.EncodeBlock(c, ps, pblock, nil)
		if err != nil {
			return nil, fmt.Errorf("%v: encode paper block: %w", c, err)
		}
		paperSlabOp := func() {
			a.Reset()
			if _, err := core.DecodeBlockPhis(ps, penc, a); err != nil {
				panic(err)
			}
		}
		m["slab_ns_per_op/paper"+key] = bestNsPerOp(cfg.Rounds, cfg.Iters, paperSlabOp)
		m["slab_allocs_per_op/paper"+key] = allocsPerOp(100, paperSlabOp)
		m["tuple_ns_per_op/paper"+key] = bestNsPerOp(cfg.Rounds, cfg.Iters, func() {
			a.Reset()
			if _, err := core.DecodeBlockArena(ps, penc, a); err != nil {
				panic(err)
			}
		})
		maxAllocs = max(maxAllocs, m["arena_allocs_per_op"+key], m["slab_allocs_per_op"+key], m["slab_allocs_per_op/paper"+key])
	}

	// Macro workload: RunObs's uninstrumented BulkLoad + CountRange, so
	// the gate can hold this result against BENCH_obs.json.
	spec := gen.Fig57Spec(cfg.Tuples, true, gen.VarianceLarge, cfg.Seed)
	schema, tuples, err := spec.Build()
	if err != nil {
		return nil, err
	}
	schema.SortTuples(tuples)
	var load, count time.Duration
	for r := 0; r < cfg.Rounds; r++ {
		tb, err := table.Create(schema,
			table.WithCodec(core.CodecAVQ),
			table.WithPageSize(cfg.PageSize),
			table.WithPoolFrames(256),
		)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		if err := tb.BulkLoadContext(ctx, tuples); err != nil {
			return nil, err
		}
		l := time.Since(start)
		dom := schema.Domain(0).Size
		start = time.Now()
		for i := 0; i < cfg.CountIters; i++ {
			if _, _, err := tb.CountRangeContext(ctx, 0, dom/4, dom/2); err != nil {
				return nil, err
			}
		}
		c := time.Since(start)
		if r == 0 || l < load {
			load = l
		}
		if r == 0 || c < count {
			count = c
		}
	}
	m["load_ms"], m["count_ms"] = millis(load), millis(count)

	res.Gates = []Gate{check("max_allocs_per_op", maxAllocs, "<=", 0)}
	return res, nil
}

// WriteText renders the result as an aligned report.
func (r *DecodeResult) WriteText(w io.Writer) error {
	wl, m := r.Workload, r.Metrics
	fmt.Fprintf(w, "Decode kernels: %.0f-tuple blocks, best of %.0f rounds\n", wl["block_tuples"], wl["rounds"])
	fmt.Fprintf(w, "%-12s %12s %12s %10s %10s %9s %12s %10s %12s %12s\n",
		"codec", "arena ns/op", "alloc ns/op", "arena a/op", "alloc a/op", "speedup",
		"slab ns/op", "slab a/op", "paper slab", "paper tuple")
	for _, c := range allCodecs {
		key := "/" + c.String()
		fmt.Fprintf(w, "%-12s %12.0f %12.0f %10.1f %10.1f %8.1f%% %12.0f %10.1f %12.0f %12.0f\n",
			c, m["arena_ns_per_op"+key], m["alloc_ns_per_op"+key], m["arena_allocs_per_op"+key],
			m["alloc_allocs_per_op"+key], m["speedup_pct"+key], m["slab_ns_per_op"+key],
			m["slab_allocs_per_op"+key], m["slab_ns_per_op/paper"+key], m["tuple_ns_per_op/paper"+key])
	}
	fmt.Fprintf(w, "macro (%.0f tuples, %.0f-byte pages): bulk load %.2f ms, count-range x%.0f %.2f ms\n",
		wl["tuples"], wl["page_size"], m["load_ms"], wl["count_iters"], m["count_ms"])
	writeGates(w, r.Gates)
	return nil
}
