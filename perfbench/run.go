package main

import (
	"context"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"time"

	"repro/internal/obs"
)

// Phase shares of --seconds. An end-to-end run spends openShare of it in
// the open-loop phase and the rest in the closed-loop phase. A traced run
// spends httpShare in an open-loop phase against the server and
// replayShare in each of the two in-process replays.
const (
	openShare   = 0.8
	httpShare   = 0.5
	replayShare = 0.25
)

// The closed-loop phases send a fixed number of requests: what the
// workload's capacity, about capacityPerRate times its open-loop rate,
// completes in the phase's planned time. They give up after
// closedTimeout times that time.
const (
	capacityPerRate = 3
	closedTimeout   = 4
)

// closedCount returns the number of requests a closed-loop phase planned
// to last d sends.
func (b *bench) closedCount(d time.Duration) int64 {
	return max(1, int64(capacityPerRate*b.rate()*d.Seconds()))
}

// closedLoop runs a closed-loop phase planned to last d.
func (b *bench) closedLoop(ctx context.Context, d *loadgen, dur time.Duration) *phase {
	return d.closedLoop(ctx, b.closedCount(dur), closedTimeout*dur, b.cfg.w.limit)
}

// warmup returns the planned length of the closed-loop warm-up that
// fills the server's pool and connections before measuring.
func (b *bench) warmup() time.Duration {
	return min(time.Second, b.seconds(0.1))
}

// bench is one run's database and server.
type bench struct {
	cfg  config
	dir  string // this run's work directory
	db   string // the served database path
	ds   *dataset
	srv  *serverProc
	rows int // tuples at this run's scale
}

// setup generates the data, creates and loads the database, closes it,
// and starts avqserve on it, returning the seconds until /healthz
// answered. A previous set-up's server is drained and its data removed
// first, outside the timing. When copies are named, the closed database
// is copied to each before the server opens it.
func (b *bench) setup(ctx context.Context, i int, copies ...string) (float64, error) {
	if b.srv != nil {
		if err := b.srv.drain(); err != nil {
			return 0, err
		}
		b.srv = nil
		if err := os.RemoveAll(b.db); err != nil {
			return 0, err
		}
	}
	b.db = filepath.Join(b.dir, fmt.Sprintf("db%d", i))
	if !b.cfg.w.sharded {
		b.db += ".avq"
	}
	start := time.Now()
	ds, err := b.cfg.w.build(b.rows, b.cfg.seed)
	if err != nil {
		return 0, fmt.Errorf("generate: %w", err)
	}
	if err := ds.create(ctx, b.db); err != nil {
		return 0, fmt.Errorf("create %s: %w", b.db, err)
	}
	for _, c := range copies {
		if err := copyTree(b.db, c); err != nil {
			return 0, err
		}
	}
	srv, err := startServer(ctx, b.cfg.server, b.db, b.cfg.conns)
	if err != nil {
		return 0, err
	}
	b.ds, b.srv = ds, srv
	return time.Since(start).Seconds(), nil
}

// newBench makes the run's work directory. close removes it and stops the
// server if it still runs.
func newBench(cfg config) (*bench, error) {
	work := filepath.Join(cfg.build, "work")
	if err := os.MkdirAll(work, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(work, cfg.w.name+"-")
	if err != nil {
		return nil, err
	}
	return &bench{cfg: cfg, dir: dir, rows: max(1000, int(float64(cfg.w.tuples)*cfg.scale))}, nil
}

func (b *bench) close() {
	if b.srv != nil {
		b.srv.kill()
	}
	_ = os.RemoveAll(b.dir) // best effort: the work directory is scratch
}

func (b *bench) rate() float64 { return b.cfg.w.rate * b.cfg.scale }

func (b *bench) seconds(share float64) time.Duration {
	return time.Duration(share * b.cfg.seconds * float64(time.Second))
}

// finish drains the server and verifies the database: its size gives
// storage_ratio, and on a written workload its contents must match the
// acknowledged writes. A verification failure counts as one failed
// check in rep.
func (b *bench) finish(ctx context.Context, st stream, rep *report) error {
	if err := b.srv.drain(); err != nil {
		return err
	}
	b.srv = nil
	size, err := dirSize(b.db)
	if err != nil {
		return err
	}
	eng, err := openEngine(b.db, b.cfg.w.sharded, nil)
	if err != nil {
		return fmt.Errorf("reopen after drain: %w", err)
	}
	rep.attempted++
	if err := st.final(ctx, eng); err != nil {
		rep.failed++
		if rep.firstErr == nil {
			rep.firstErr = fmt.Errorf("final state: %w", err)
		}
	}
	live := eng.Len()
	if err := eng.Close(); err != nil {
		return err
	}
	rep.set("storage_ratio", float64(size)/float64(live*b.ds.schema.RowSize()))
	return nil
}

// endToEnd is a --trace 0 run.
func endToEnd(ctx context.Context, cfg config) (*report, error) {
	b, err := newBench(cfg)
	if err != nil {
		return nil, err
	}
	defer b.close()
	rep := &report{values: map[string]float64{}}
	var setups []float64
	for i := 0; i < cfg.setups; i++ {
		s, err := b.setup(ctx, i)
		if err != nil {
			return nil, err
		}
		setups = append(setups, s)
	}
	rep.set("setup_s", medianFloat(setups))
	rep.notef("setup_s samples %v", setups)

	st := b.ds.stream()
	d := newLoadgen(b.srv.base, st, cfg.conns)
	defer d.close()
	limit := cfg.w.limit
	rep.addPhase(b.closedLoop(ctx, d, b.warmup()))
	open := d.openLoop(ctx, b.rate(), b.seconds(openShare), limit)
	closed := b.closedLoop(ctx, d, b.seconds(1-openShare))
	rep.addPhase(open)
	rep.addPhase(closed)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	rss, err := b.srv.peakRSSMB()
	if err != nil {
		return nil, err
	}
	rep.set("server_rss_mb", rss)
	if err := b.finish(ctx, st, rep); err != nil {
		return nil, err
	}
	rep.firstErr = firstOf(rep.firstErr, d.firstErr)

	rep.set("read_p50_ms", ms(quantile(open.reads, 0.50)))
	rep.set("read_p95_ms", ms(open.windowedReadQuantile(0.95, b.seconds(openShare))))
	rep.set("read_p99_ms", ms(quantile(open.reads, 0.99)))
	rep.set("write_p50_ms", ms(quantile(open.writes, 0.50)))
	rep.set("write_p99_ms", ms(quantile(open.writes, 0.99)))
	rep.set("capacity_ops_per_s", closed.capacity())
	rep.set("bench.gen_lag_p99_ms", ms(quantile(open.lag, 0.99)))
	rep.set("failed_frac", ratio(float64(rep.failed), float64(rep.attempted)))
	rep.notef("open loop: %d reads, %d writes at %.4g/s over %v; read round trip p50 %v, generator lag p50 %v",
		len(open.reads), len(open.writes), b.rate(), open.elapsed.Round(time.Millisecond),
		quantile(open.readRTT, 0.5), quantile(open.lag, 0.5))
	all := append(append([]time.Duration(nil), closed.reads...), closed.writes...)
	rep.notef("closed loop: %d requests over %v, %d within %v; p50 %v, p99 %v",
		closed.attempted, closed.elapsed.Round(time.Millisecond), closed.withinLimit, limit,
		quantile(all, 0.5), quantile(all, 0.99))
	return rep, nil
}

// traced is a --trace 1 run: an open-loop phase against the server with
// /metrics scraped around it, then the traced and untraced in-process
// replays, each on its own copy of the freshly set-up database.
func traced(ctx context.Context, cfg config) (*report, error) {
	b, err := newBench(cfg)
	if err != nil {
		return nil, err
	}
	defer b.close()
	rep := &report{values: map[string]float64{}}
	copies := []string{filepath.Join(b.dir, "traced"), filepath.Join(b.dir, "plain")}
	if _, err := b.setup(ctx, 0, copies...); err != nil {
		return nil, err
	}

	st := b.ds.stream()
	d := newLoadgen(b.srv.base, st, cfg.conns)
	defer d.close()
	limit := cfg.w.limit
	rep.addPhase(b.closedLoop(ctx, d, b.warmup()))
	var scrape snapshots
	if scrape.before, err = b.srv.metrics(); err != nil {
		return nil, err
	}
	open := d.openLoop(ctx, b.rate(), b.seconds(httpShare), limit)
	rep.addPhase(open)
	if scrape.after, err = b.srv.metrics(); err != nil {
		return nil, err
	}
	if err := b.finish(ctx, st, rep); err != nil {
		return nil, err
	}
	rep.firstErr = firstOf(rep.firstErr, d.firstErr)

	tr, err := b.replay(ctx, copies[0], 0, true, rep)
	if err != nil {
		return nil, err
	}
	plain, err := b.replay(ctx, copies[1], tr.requests, false, rep)
	if err != nil {
		return nil, err
	}
	spans := filepath.Join(cfg.build, "traces", fmt.Sprintf("%s-seed%d.jsonl", cfg.w.name, cfg.seed))
	if err := os.MkdirAll(filepath.Dir(spans), 0o755); err != nil {
		return nil, err
	}
	if err := writeSpans(spans, tr.spans); err != nil {
		return nil, err
	}
	rep.notef("traced replay: %d requests in %v, untraced %v; %d spans written to %s",
		tr.requests, tr.wall.Round(time.Millisecond), plain.wall.Round(time.Millisecond), len(tr.spans), spans)
	layerMetrics(rep, open, scrape, tr, plain)
	rep.set("failed_frac", ratio(float64(rep.failed), float64(rep.attempted)))
	return rep, nil
}

// replay opens a copy of the database with its own registry, replays the
// stream from its start (n requests, or for replayShare of the run when
// n is 0), verifies the final state and closes the copy.
func (b *bench) replay(ctx context.Context, path string, n int, tracing bool, rep *report) (*replayResult, error) {
	reg := obs.NewRegistry()
	eng, err := openEngine(path, b.cfg.w.sharded, reg)
	if err != nil {
		return nil, fmt.Errorf("open %s: %w", path, err)
	}
	st := b.ds.stream()
	res := replay(ctx, eng, st, reg, n, b.seconds(replayShare), tracing)
	rep.attempted += res.requests + 1
	rep.failed += res.failed
	rep.firstErr = firstOf(rep.firstErr, res.firstErr)
	if err := st.final(ctx, eng); err != nil {
		rep.failed++
		rep.firstErr = firstOf(rep.firstErr, fmt.Errorf("replay final state: %w", err))
	}
	return res, eng.Close()
}

func firstOf(a, b error) error {
	if a != nil {
		return a
	}
	return b
}

// dirSize returns the bytes of the regular files under path (or of path
// itself when it is a file), plus the table's WAL directory if any.
func dirSize(path string) (int64, error) {
	var total int64
	for _, root := range []string{path, path + ".wal"} {
		err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.Type().IsRegular() {
				fi, err := d.Info()
				if err != nil {
					return err
				}
				total += fi.Size()
			}
			return nil
		})
		if err != nil && !(root != path && os.IsNotExist(err)) {
			return 0, err
		}
	}
	return total, nil
}

// copyTree copies a file or a directory tree, plus a table's WAL
// directory if any.
func copyTree(src, dst string) error {
	for _, s := range []string{src, src + ".wal"} {
		d := dst + s[len(src):]
		err := filepath.WalkDir(s, func(p string, e fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			target := filepath.Join(d, p[len(s):])
			if e.IsDir() {
				return os.MkdirAll(target, 0o755)
			}
			data, err := os.ReadFile(p)
			if err != nil {
				return err
			}
			return os.WriteFile(target, data, 0o644)
		})
		if err != nil && !(s != src && os.IsNotExist(err)) {
			return err
		}
	}
	return nil
}
