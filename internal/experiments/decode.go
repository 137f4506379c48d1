package experiments

import (
	"context"
	"encoding/json"
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
// RunObs times so the benchgate can compare across PRs.
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

// DecodeCodecResult is one codec's full-block decode: the arena tuple
// decode against the allocating reference, and the φ slab decode on the
// flat micro schema and on the paper's 16-attribute relation.
type DecodeCodecResult struct {
	Codec                string  `json:"codec"`
	ArenaNsPerOp         float64 `json:"arena_ns_per_op"`
	AllocNsPerOp         float64 `json:"alloc_ns_per_op"`
	ArenaAllocsPerOp     float64 `json:"arena_allocs_per_op"`
	AllocAllocsPerOp     float64 `json:"alloc_allocs_per_op"`
	SpeedupPct           float64 `json:"speedup_pct"`
	SlabNsPerOp          float64 `json:"slab_ns_per_op"`
	SlabAllocsPerOp      float64 `json:"slab_allocs_per_op"`
	PaperSlabNsPerOp     float64 `json:"paper_slab_ns_per_op"`
	PaperTupleNsPerOp    float64 `json:"paper_tuple_ns_per_op"`
	PaperSlabAllocsPerOp float64 `json:"paper_slab_allocs_per_op"`
}

// DecodeResult reports the decode-kernel measurements. Gate: every
// codec's steady-state arena tuple decode and φ slab decode, on both
// schemas, allocate zero objects per block (ZeroAllocPass).
//
// LoadMillis and CountMillis repeat RunObs's uninstrumented workload so
// scripts/benchgate.sh can hold this PR against the committed
// BENCH_obs.json baseline.
type DecodeResult struct {
	Tuples      int `json:"tuples"`
	PageSize    int `json:"page_size"`
	BlockTuples int `json:"block_tuples"`
	Rounds      int `json:"rounds"`
	CountIters  int `json:"count_iters"`

	Codecs []DecodeCodecResult `json:"codecs"`

	LoadMillis  float64 `json:"load_ms"`
	CountMillis float64 `json:"count_ms"`

	ZeroAllocPass bool `json:"zero_alloc_pass"`
	Pass          bool `json:"pass"`
}

// allCodecs lists every block codec, in report order.
var allCodecs = []core.Codec{
	core.CodecRaw, core.CodecAVQ, core.CodecRepOnly,
	core.CodecDeltaChain, core.CodecPacked,
}

// verdict renders a gate outcome.
func verdict(b bool) string {
	if b {
		return "PASS"
	}
	return "FAIL"
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
	res := &DecodeResult{
		Tuples:        cfg.Tuples,
		PageSize:      cfg.PageSize,
		BlockTuples:   cfg.BlockTuples,
		Rounds:        cfg.Rounds,
		CountIters:    cfg.CountIters,
		ZeroAllocPass: true,
	}

	s, block := decodeMicroBlock(cfg)
	ps, pblock, err := paperMicroBlock(cfg.BlockTuples, cfg.Seed)
	if err != nil {
		return nil, err
	}
	for _, c := range allCodecs {
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
		cr := DecodeCodecResult{
			Codec:            c.String(),
			ArenaNsPerOp:     bestNsPerOp(cfg.Rounds, cfg.Iters, arenaOp),
			AllocNsPerOp:     bestNsPerOp(cfg.Rounds, cfg.Iters, allocOp),
			ArenaAllocsPerOp: allocsPerOp(100, arenaOp),
			AllocAllocsPerOp: allocsPerOp(100, allocOp),
		}
		if cr.AllocNsPerOp > 0 {
			cr.SpeedupPct = (cr.AllocNsPerOp - cr.ArenaNsPerOp) / cr.AllocNsPerOp * 100
		}
		slabOp := func() {
			a.Reset()
			if _, err := core.DecodeBlockPhis(s, enc, a); err != nil {
				panic(err)
			}
		}
		cr.SlabNsPerOp = bestNsPerOp(cfg.Rounds, cfg.Iters, slabOp)
		cr.SlabAllocsPerOp = allocsPerOp(100, slabOp)
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
		cr.PaperSlabNsPerOp = bestNsPerOp(cfg.Rounds, cfg.Iters, paperSlabOp)
		cr.PaperSlabAllocsPerOp = allocsPerOp(100, paperSlabOp)
		cr.PaperTupleNsPerOp = bestNsPerOp(cfg.Rounds, cfg.Iters, func() {
			a.Reset()
			if _, err := core.DecodeBlockArena(ps, penc, a); err != nil {
				panic(err)
			}
		})
		if cr.ArenaAllocsPerOp != 0 || cr.SlabAllocsPerOp != 0 || cr.PaperSlabAllocsPerOp != 0 {
			res.ZeroAllocPass = false
		}
		res.Codecs = append(res.Codecs, cr)
	}

	// Macro workload: RunObs's uninstrumented BulkLoad + CountRange, so
	// the benchgate can hold this result against BENCH_obs.json.
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
	res.LoadMillis = float64(load.Microseconds()) / 1e3
	res.CountMillis = float64(count.Microseconds()) / 1e3

	res.Pass = res.ZeroAllocPass
	return res, nil
}

// WriteText renders the result as an aligned report.
func (r *DecodeResult) WriteText(w io.Writer) error {
	fmt.Fprintf(w, "Decode kernels: %d-tuple blocks, best of %d rounds\n", r.BlockTuples, r.Rounds)
	fmt.Fprintf(w, "%-12s %12s %12s %10s %10s %9s %12s %10s %12s %12s\n",
		"codec", "arena ns/op", "alloc ns/op", "arena a/op", "alloc a/op", "speedup",
		"slab ns/op", "slab a/op", "paper slab", "paper tuple")
	for _, c := range r.Codecs {
		fmt.Fprintf(w, "%-12s %12.0f %12.0f %10.1f %10.1f %8.1f%% %12.0f %10.1f %12.0f %12.0f\n",
			c.Codec, c.ArenaNsPerOp, c.AllocNsPerOp, c.ArenaAllocsPerOp, c.AllocAllocsPerOp, c.SpeedupPct,
			c.SlabNsPerOp, c.SlabAllocsPerOp, c.PaperSlabNsPerOp, c.PaperTupleNsPerOp)
	}
	fmt.Fprintf(w, "macro (%d tuples, %d-byte pages): bulk load %.2f ms, count-range x%d %.2f ms\n",
		r.Tuples, r.PageSize, r.LoadMillis, r.CountIters, r.CountMillis)
	fmt.Fprintf(w, "gate: steady-state arena and slab decode allocate 0 objects/op: %s\n", verdict(r.ZeroAllocPass))
	return nil
}

// WriteJSON renders the result as indented JSON.
func (r *DecodeResult) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
