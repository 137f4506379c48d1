// Command avqbench regenerates the tables and figures of the paper's
// evaluation (Section 5) on this host.
//
// Usage:
//
//	avqbench -exp fig5.7|fig5.8|fig5.9|timing|ablation|...|all|gate [flags]
//
// Flags scale the workloads; defaults reproduce the paper's published
// relation characteristics (10^5 tuples for timing, ~189 uncoded blocks
// for the query simulation). The engine experiments (pipeline, pruning,
// obs, decode, join, wal, shard, serve) also record their result as
// BENCH_<experiment>.json. `-exp gate` runs decode, wal, shard, serve and
// join in process, writes no file, prints one line per gate ending in
// PASS, FAIL or WAIVED, and exits non-zero if any gate fails or a
// committed baseline is missing.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/experiments"
	"repro/internal/storage"
)

func main() {
	var (
		exp      = flag.String("exp", "all", "experiment: fig5.7, fig5.8, fig5.9, timing, ablation, blocksize, cpusweep, updates, pipeline, pruning, obs, decode, join, wal, shard, serve, all, or gate")
		tuples   = flag.Int("tuples", 0, "override relation size (0 = per-experiment default)")
		reps     = flag.Int("reps", 0, "timing repetitions (0 = paper's 100)")
		pageSize = flag.Int("pagesize", 0, "block size in bytes (0 = paper's 8192)")
		seed     = flag.Int64("seed", 1995, "generator seed")
		parallel = flag.Int("parallel", 0, "pipeline experiment worker count (0 = GOMAXPROCS)")
	)
	flag.Parse()
	// Ctrl-C cancels the running experiment at the next block boundary;
	// every experiment threads this ctx down to the executor.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, *exp, *tuples, *reps, *pageSize, *seed, *parallel); err != nil {
		fmt.Fprintln(os.Stderr, "avqbench:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, exp string, tuples, reps, pageSize int, seed int64, parallel int) error {
	out := os.Stdout
	sep := func() { fmt.Fprintln(out, "\n================================================================") }
	// runOne runs one experiment and prints its report to w; the
	// experiments that record a result return it.
	runOne := func(w io.Writer, name string) (*experiments.Envelope, error) {
		show := func(r interface{ WriteText(io.Writer) error }, err error) (*experiments.Envelope, error) {
			if err != nil {
				return nil, err
			}
			return nil, r.WriteText(w)
		}
		record := func(r interface {
			WriteText(io.Writer) error
			Result() *experiments.Envelope
		}, err error) (*experiments.Envelope, error) {
			if err != nil {
				return nil, err
			}
			return r.Result(), r.WriteText(w)
		}
		switch name {
		case "fig5.7":
			cfg := experiments.Fig57Config{PageSize: pageSize, Seed: seed}
			if tuples > 0 {
				cfg.TupleCounts = []int{tuples}
			}
			return show(experiments.RunFig57(ctx, cfg))
		case "timing":
			return show(experiments.RunTiming(ctx, experiments.TimingConfig{
				Tuples: tuples, Repetitions: reps, PageSize: pageSize, Seed: seed,
			}))
		case "fig5.8":
			return show(experiments.RunFig58(ctx, experiments.Fig58Config{
				Tuples: tuples, PageSize: pageSize, Seed: seed,
			}))
		case "fig5.9":
			return show(experiments.RunFig59(ctx, experiments.Fig59Config{
				Timing:   experiments.TimingConfig{Tuples: tuples, Repetitions: reps, Seed: seed},
				Fig58:    experiments.Fig58Config{Tuples: tuples, Seed: seed},
				PageSize: pageSize,
			}))
		case "ablation":
			return show(experiments.RunAblation(ctx, experiments.AblationConfig{
				Tuples: tuples, PageSize: pageSize, Seed: seed,
			}))
		case "blocksize":
			return show(experiments.RunBlockSize(ctx, experiments.BlockSizeConfig{
				Tuples: tuples, Seed: seed,
			}))
		case "updates":
			return show(experiments.RunUpdates(ctx, experiments.UpdatesConfig{
				Tuples: tuples, PageSize: pageSize, Seed: seed,
			}))
		case "pipeline":
			return record(experiments.RunPipeline(ctx, experiments.PipelineConfig{
				Tuples: tuples, PageSize: pageSize, Concurrency: parallel, Seed: seed,
			}))
		case "pruning":
			return record(experiments.RunPruning(ctx, experiments.PruningConfig{
				Tuples: tuples, PageSize: pageSize, Reps: reps, Seed: seed,
			}))
		case "obs":
			return record(experiments.RunObs(ctx, experiments.ObsConfig{
				Tuples: tuples, PageSize: pageSize, Seed: seed,
			}))
		case "decode":
			return record(experiments.RunDecode(ctx, experiments.DecodeConfig{
				Tuples: tuples, PageSize: pageSize, Seed: seed,
			}))
		case "join":
			return record(experiments.RunJoin(ctx, experiments.JoinConfig{
				Tuples: tuples, PageSize: pageSize, Rounds: reps, Seed: seed,
			}))
		case "shard":
			return record(experiments.RunShard(ctx, experiments.ShardConfig{
				Tuples: tuples, PageSize: pageSize, Rounds: reps, Seed: seed,
			}))
		case "wal":
			return record(experiments.RunWAL(ctx, experiments.WALConfig{
				Tuples: tuples, PageSize: pageSize, Writers: parallel, Seed: seed,
			}))
		case "serve":
			return record(experiments.RunServe(ctx, experiments.ServeConfig{
				Tuples: tuples, PageSize: pageSize, Concurrency: parallel,
				Rounds: reps, Seed: seed,
			}))
		case "cpusweep":
			return show(experiments.RunCPUSweep(ctx, experiments.CPUSweepConfig{
				Fig58:    experiments.Fig58Config{Tuples: tuples, Seed: seed},
				PageSize: pageSize,
			}))
		default:
			return nil, fmt.Errorf("unknown experiment %q", name)
		}
	}
	// runAndRecord runs one experiment and writes its result, if it
	// records one, to BENCH_<experiment>.json in the working directory.
	runAndRecord := func(name string) error {
		e, err := runOne(out, name)
		if err != nil || e == nil {
			return err
		}
		return writeBenchJSON(e)
	}
	switch exp {
	case "gate":
		return gate(out, runOne)
	case "all":
		for i, name := range []string{"fig5.7", "timing", "fig5.8", "fig5.9", "ablation", "blocksize", "cpusweep", "updates", "pipeline", "pruning", "obs", "decode", "join", "wal", "shard", "serve"} {
			if i > 0 {
				sep()
			}
			if err := runAndRecord(name); err != nil {
				return err
			}
		}
		return nil
	default:
		return runAndRecord(exp)
	}
}

// gate runs the gated experiments in process, without writing their
// reports or result files, and checks every gate plus the decode
// baselines committed in the working directory.
func gate(out io.Writer, runOne func(io.Writer, string) (*experiments.Envelope, error)) error {
	var envs []*experiments.Envelope
	for _, name := range []string{"decode", "wal", "shard", "serve", "join"} {
		fmt.Fprintf(out, "== running %s\n", name)
		e, err := runOne(io.Discard, name)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		envs = append(envs, e)
	}
	return experiments.CheckGates(out, ".", envs)
}

// writeBenchJSON records a result envelope as BENCH_<experiment>.json in
// the working directory. The write goes through the storage layer's
// temp+rename path so an interrupted bench run can never leave a torn
// result in the tree.
func writeBenchJSON(e *experiments.Envelope) error {
	raw, err := json.MarshalIndent(e, "", "  ")
	if err != nil {
		return err
	}
	return storage.WriteFileAtomic(storage.OSFS{}, "BENCH_"+e.Experiment+".json", append(raw, '\n'))
}
