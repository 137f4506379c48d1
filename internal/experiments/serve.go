package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/relation"
	"repro/internal/server"
	"repro/internal/storage"
	"repro/internal/table"
)

// ServeConfig parameterizes the query-server experiment (A10): end-to-end
// HTTP latency, admission control under saturation, the admission layer's
// overhead against direct Engine calls, and a leak-free drain.
type ServeConfig struct {
	// Tuples is the base relation size; default 20_000.
	Tuples int
	// Requests is the mixed-workload request count; default 2000.
	Requests int
	// Concurrency is the client worker count; default GOMAXPROCS.
	Concurrency int
	// WriteEvery makes every Nth request a mutation; default 8.
	WriteEvery int
	// PageSize is the block size; default 8192.
	PageSize int
	// Rounds is how many times the overhead comparison is measured; the
	// best round is kept. Default 5.
	Rounds int
	// OverheadIters is how many CountRange calls each overhead round
	// times; default 50 (the op visits every block, so one call is
	// milliseconds-scale).
	OverheadIters int
	// Seed makes the relation and workload deterministic.
	Seed int64
}

func (c *ServeConfig) fillDefaults() {
	if c.Tuples == 0 {
		c.Tuples = 20_000
	}
	if c.Requests == 0 {
		c.Requests = 2000
	}
	if c.Concurrency == 0 {
		// The client is I/O-bound, so keep a real concurrent load even on
		// small hosts.
		c.Concurrency = runtime.GOMAXPROCS(0)
		if c.Concurrency < 4 {
			c.Concurrency = 4
		}
	}
	if c.WriteEvery == 0 {
		c.WriteEvery = 8
	}
	if c.PageSize == 0 {
		c.PageSize = storage.DefaultPageSize
	}
	if c.Rounds == 0 {
		c.Rounds = 5
	}
	if c.OverheadIters == 0 {
		c.OverheadIters = 50
	}
}

// Gate ceilings. The p99 bound is deliberately generous — it catches a
// serialization disaster (a lost lock, a full-table decode per request),
// not host-to-host noise; the overhead gate is the precise one and holds
// the token-bucket admission path to the same ceiling as the obs layer.
const (
	serveMaxP99Millis   = 250.0
	serveMaxOverheadPct = 5.0
)

// ServeResult records the four phases of the A10 experiment.
type ServeResult struct {
	Tuples      int `json:"tuples"`
	Requests    int `json:"requests"`
	Concurrency int `json:"concurrency"`
	Writes      int `json:"writes"`
	Errors      int `json:"errors"`

	P50Millis    float64 `json:"p50_ms"`
	P95Millis    float64 `json:"p95_ms"`
	P99Millis    float64 `json:"p99_ms"`
	MaxP99Millis float64 `json:"max_p99_ms"`
	LatencyPass  bool    `json:"latency_pass"`

	OverloadRequests int  `json:"overload_requests"`
	OverloadOK       int  `json:"overload_ok"`
	OverloadRejected int  `json:"overload_rejected"`
	OverloadPass     bool `json:"overload_pass"`

	DirectMicros   float64 `json:"direct_us_per_op"`
	LimitedMicros  float64 `json:"limited_us_per_op"`
	OverheadPct    float64 `json:"admission_overhead_pct"`
	MaxOverheadPct float64 `json:"max_overhead_pct"`
	OverheadPass   bool    `json:"overhead_pass"`

	DrainPass bool `json:"drain_pass"`
	Pass      bool `json:"pass"`
}

// serveClient is one HTTP endpoint under test: a server.Server on a real
// loopback listener plus a keep-alive client pointed at it.
type serveClient struct {
	srv    *server.Server
	client *http.Client
	base   string
	done   chan error
}

// startServe binds a loopback listener, serves s on it, and returns a
// client. Callers must drain via shutdown.
func startServe(s *server.Server, conns int) (*serveClient, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	sc := &serveClient{
		srv:  s,
		base: "http://" + l.Addr().String(),
		client: &http.Client{
			Timeout: 30 * time.Second,
			Transport: &http.Transport{
				MaxIdleConns:        conns,
				MaxIdleConnsPerHost: conns,
			},
		},
		done: make(chan error, 1),
	}
	go func() { sc.done <- s.Serve(l) }()
	return sc, nil
}

// post issues one JSON request and returns the HTTP status and latency.
func (sc *serveClient) post(path string, body any) (int, time.Duration, error) {
	raw, err := json.Marshal(body)
	if err != nil {
		return 0, 0, err
	}
	start := time.Now()
	resp, err := sc.client.Post(sc.base+path, "application/json", bytes.NewReader(raw))
	if err != nil {
		return 0, 0, err
	}
	//avqlint:ignore droppederr draining the body only recycles the connection; the latency sample stands either way
	_, _ = io.Copy(io.Discard, resp.Body)
	//avqlint:ignore droppederr response body close cannot fail meaningfully after full read
	resp.Body.Close()
	return resp.StatusCode, time.Since(start), nil
}

// shutdown drains the server and joins the serve goroutine. The returned
// error is non-nil if the drain left inflight requests, pinned frames, or
// live snapshots behind — the leak-free-drain gate.
func (sc *serveClient) shutdown(ctx context.Context) error {
	sc.client.CloseIdleConnections()
	drainCtx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	if err := sc.srv.Shutdown(drainCtx); err != nil {
		return err
	}
	return <-sc.done
}

// serveWorkload is the deterministic mixed request stream: every
// WriteEvery-th request mutates, the rest rotate over count, bounded
// select, and aggregate range queries.
func serveWorkload(schema *relation.Schema, base []relation.Tuple, cfg ServeConfig, i int, rng *rand.Rand) (path string, body any, write bool) {
	dom := schema.Domain(0).Size
	if i%cfg.WriteEvery == 0 {
		tu := base[rng.Intn(len(base))].Clone()
		last := schema.NumAttrs() - 1
		tu[last] = uint64(rng.Int63n(int64(schema.Domain(last).Size)))
		op := server.OpInsert
		if i%(2*cfg.WriteEvery) == 0 {
			op = server.OpDelete
		}
		return "/v1/mutate", &server.MutateRequest{Op: op, Tuple: tu}, true
	}
	lo := uint64(rng.Int63n(int64(dom / 2)))
	hi := lo + dom/4
	if hi >= dom {
		hi = dom - 1
	}
	switch i % 3 {
	case 0:
		return "/v1/query", &server.QueryRequest{Op: server.OpCount, Attr: 0, Lo: lo, Hi: hi}, false
	case 1:
		return "/v1/query", &server.QueryRequest{Op: server.OpSelect, Attr: 0, Lo: lo, Hi: hi, Limit: 10}, false
	default:
		return "/v1/query", &server.QueryRequest{Op: server.OpAggregate, Attr: 0, Lo: lo, Hi: hi, AggAttr: 1}, false
	}
}

// percentile reads the q-quantile from a sorted latency slice.
func percentile(sorted []time.Duration, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(q * float64(len(sorted)-1))
	return float64(sorted[idx].Microseconds()) / 1e3
}

// serveEngine builds the loaded, concurrency-safe engine the servers share.
func serveEngine(ctx context.Context, cfg ServeConfig) (*relation.Schema, []relation.Tuple, *table.Table, error) {
	spec := gen.Spec38Byte(cfg.Tuples, false, cfg.Seed)
	schema, base, err := spec.Build()
	if err != nil {
		return nil, nil, nil, err
	}
	tb, err := table.Create(schema, table.WithCodec(core.CodecAVQ), table.WithPageSize(cfg.PageSize))
	if err != nil {
		return nil, nil, nil, err
	}
	if err := tb.BulkLoadContext(ctx, base); err != nil {
		return nil, nil, nil, err
	}
	return schema, base, tb, nil
}

// RunServe measures the HTTP query service end to end: p50/p95/p99 under
// a mixed read/write load, admission rejections under deliberate
// saturation, the admission layer's per-op cost against direct Engine
// calls, and a graceful drain that must leave zero pins and snapshots.
func RunServe(ctx context.Context, cfg ServeConfig) (*ServeResult, error) {
	cfg.fillDefaults()
	schema, base, eng, err := serveEngine(ctx, cfg)
	if err != nil {
		return nil, err
	}
	defer func() {
		//avqlint:ignore droppederr close after the drain gate already checked for leaks
		eng.Close()
	}()

	res := &ServeResult{
		Tuples:         cfg.Tuples,
		Requests:       cfg.Requests,
		Concurrency:    cfg.Concurrency,
		MaxP99Millis:   serveMaxP99Millis,
		MaxOverheadPct: serveMaxOverheadPct,
	}

	// Phase 1: mixed-workload latency through the full HTTP stack.
	sc, err := startServe(server.New(server.Config{Engine: eng}), cfg.Concurrency)
	if err != nil {
		return nil, err
	}
	var (
		mu        sync.Mutex
		latencies []time.Duration
		writes    int64
		httpErrs  int64
		next      atomic.Int64
		wg        sync.WaitGroup
	)
	for w := 0; w < cfg.Concurrency; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.Seed + int64(worker)))
			local := make([]time.Duration, 0, cfg.Requests/cfg.Concurrency+1)
			for {
				i := int(next.Add(1)) - 1
				if i >= cfg.Requests || ctx.Err() != nil {
					break
				}
				path, body, write := serveWorkload(schema, base, cfg, i, rng)
				code, dur, err := sc.post(path, body)
				if err != nil || code != http.StatusOK {
					atomic.AddInt64(&httpErrs, 1)
					continue
				}
				if write {
					atomic.AddInt64(&writes, 1)
				}
				local = append(local, dur)
			}
			mu.Lock()
			latencies = append(latencies, local...)
			mu.Unlock()
		}(w)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	res.Writes = int(writes)
	res.Errors = int(httpErrs)
	res.P50Millis = percentile(latencies, 0.50)
	res.P95Millis = percentile(latencies, 0.95)
	res.P99Millis = percentile(latencies, 0.99)
	res.LatencyPass = res.Errors == 0 && res.P99Millis <= serveMaxP99Millis

	// Phase 2: drain the latency server. Shutdown itself enforces the
	// leak gate: it fails on inflight requests, pinned frames, or live
	// snapshots.
	res.DrainPass = sc.shutdown(ctx) == nil &&
		eng.PinnedFrames() == 0 && eng.LiveSnapshots() == 0

	// Phase 3: saturation. One read slot and a one-deep queue, hammered
	// with full-table scans: the bucket must shed load with 429s, and
	// every request must still complete promptly with a definite answer.
	// The engine is wrapped to pin the scan service time well above the
	// client's arrival spread, so the lane genuinely fills on every host.
	over, err := startServe(server.New(server.Config{
		Engine: &slowEngine{Table: eng, delay: 20 * time.Millisecond},
		Limits: server.Limits{ReadSlots: 1, ReadQueue: 1, WriteSlots: 1, WriteQueue: 1},
	}), 32)
	if err != nil {
		return nil, err
	}
	const overload = 64
	res.OverloadRequests = overload
	var ok64, rej64 atomic.Int64
	var owg sync.WaitGroup
	for i := 0; i < overload; i++ {
		owg.Add(1)
		go func() {
			defer owg.Done()
			code, _, err := over.post("/v1/query", &server.QueryRequest{Op: server.OpScan, Limit: cfg.Tuples})
			if err != nil {
				return
			}
			switch code {
			case http.StatusOK:
				ok64.Add(1)
			case http.StatusTooManyRequests:
				rej64.Add(1)
			}
		}()
	}
	owg.Wait()
	res.OverloadOK = int(ok64.Load())
	res.OverloadRejected = int(rej64.Load())
	res.OverloadPass = res.OverloadRejected > 0 && res.OverloadOK > 0 &&
		res.OverloadOK+res.OverloadRejected == overload
	if err := over.shutdown(ctx); err != nil {
		res.DrainPass = false
	}

	// Phase 4: the admission layer's cost against direct Engine calls.
	// The two sides are measured separately — the representative query
	// (a count on a non-clustered attribute, so every block is visited)
	// and the bare AcquireRead/release handoff — and compared as a
	// ratio. Subtracting two multi-millisecond wall-clock phases would
	// drown the ~100ns token-bucket handoff in scheduler drift; the
	// ratio of two directly-measured costs is stable across hosts. Best
	// of cfg.Rounds on both sides filters the remaining noise.
	dom := schema.Domain(1).Size
	lo, hi := dom/8, dom*7/8
	direct, err := bestRound(cfg.Rounds, func() (time.Duration, error) {
		start := time.Now()
		for i := 0; i < cfg.OverheadIters; i++ {
			if _, _, err := eng.CountRangeContext(ctx, 1, lo, hi); err != nil {
				return 0, err
			}
		}
		return time.Since(start), nil
	})
	if err != nil {
		return nil, err
	}
	lim := server.NewLimiter(server.Limits{}, nil)
	const admitIters = 200_000
	admit, err := bestRound(cfg.Rounds, func() (time.Duration, error) {
		start := time.Now()
		for i := 0; i < admitIters; i++ {
			release, err := lim.AcquireRead(ctx)
			if err != nil {
				return 0, err
			}
			release()
		}
		return time.Since(start), nil
	})
	if err != nil {
		return nil, err
	}
	directPerOp := float64(direct) / float64(cfg.OverheadIters)
	admitPerOp := float64(admit) / float64(admitIters)
	res.DirectMicros = directPerOp / 1e3
	res.LimitedMicros = (directPerOp + admitPerOp) / 1e3
	if directPerOp > 0 {
		res.OverheadPct = admitPerOp / directPerOp * 100
	}
	res.OverheadPass = res.OverheadPct <= serveMaxOverheadPct

	res.Pass = res.LatencyPass && res.OverloadPass && res.OverheadPass && res.DrainPass
	return res, nil
}

// slowEngine pads ScanContext with a fixed service time so the saturation
// phase overlaps requests deterministically; everything else delegates to
// the real engine.
type slowEngine struct {
	*table.Table
	delay time.Duration
}

func (s *slowEngine) ScanContext(ctx context.Context, fn func(relation.Tuple) bool) error {
	timer := time.NewTimer(s.delay)
	defer timer.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-timer.C:
	}
	return s.Table.ScanContext(ctx, fn)
}

// bestRound runs fn rounds times and keeps the fastest measurement.
func bestRound(rounds int, fn func() (time.Duration, error)) (time.Duration, error) {
	var best time.Duration
	for r := 0; r < rounds; r++ {
		d, err := fn()
		if err != nil {
			return 0, err
		}
		if r == 0 || d < best {
			best = d
		}
	}
	return best, nil
}

// WriteText renders the result as an aligned report.
func (r *ServeResult) WriteText(w io.Writer) error {
	fmt.Fprintf(w, "Query server (A10): %d tuples, %d requests x %d workers (%d writes, %d errors)\n",
		r.Tuples, r.Requests, r.Concurrency, r.Writes, r.Errors)
	fmt.Fprintf(w, "latency: p50 %.2fms  p95 %.2fms  p99 %.2fms (gate <= %.0fms)\n",
		r.P50Millis, r.P95Millis, r.P99Millis, r.MaxP99Millis)
	fmt.Fprintf(w, "overload: %d requests through 1 slot + 1 queue: %d ok, %d rejected with 429\n",
		r.OverloadRequests, r.OverloadOK, r.OverloadRejected)
	fmt.Fprintf(w, "admission: direct %.1fus/op vs limited %.1fus/op = %+.2f%% overhead (gate <= %.1f%%)\n",
		r.DirectMicros, r.LimitedMicros, r.OverheadPct, r.MaxOverheadPct)
	verdict := func(b bool) string {
		if b {
			return "PASS"
		}
		return "FAIL"
	}
	fmt.Fprintf(w, "gates: latency %s, overload %s, overhead %s, drain %s => %s\n",
		verdict(r.LatencyPass), verdict(r.OverloadPass), verdict(r.OverheadPass),
		verdict(r.DrainPass), verdict(r.Pass))
	return nil
}

// WriteJSON emits the machine-readable benchmark record.
func (r *ServeResult) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
