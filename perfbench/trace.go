package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"repro/internal/obs"
	"repro/internal/relation"
	"repro/internal/server"
)

// The traced run replays a workload's request stream in-process, one
// request at a time, through the same public calls the server makes:
// decode and Validate (server.decode), Run against the engine
// (engine.<op>), and response encoding (server.encode). Each request is a
// root span "request" with those three children. Across each engine span
// it also reads the program's own obs counters, so the counts of every
// layer below are attributed to the request that caused them.

// span is one timed interval of the traced replay.
type span struct {
	Trace  int    `json:"trace"`  // request number; spans of one request share it
	ID     int    `json:"id"`     // unique within the replay
	Parent int    `json:"parent"` // -1 for a request's root span
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // from the replay's start
	Dur    int64  `json:"dur_ns"`
}

// counterNames are the obs counters read across every engine span.
var counterNames = []string{
	"exec.blocks_read", "exec.blocks_pruned", "exec.cache_hits", "exec.rows",
	"exec.batch_blocks", "exec.slab_rows",
	"pool.hits", "pool.misses", "pool.evictions",
	"store.encodes", "store.decodes",
	"wal.appends", "wal.fsyncs", "wal.bytes",
	"shard.queries", "shard.shards_scanned", "shard.shards_pruned",
}

// replayResult is what one replay measured.
type replayResult struct {
	requests int
	wall     time.Duration
	spans    []span
	// engine holds the engine span durations per op; decode and encode
	// the server-side spans of every request.
	engine         map[string][]time.Duration
	decode, encode []time.Duration
	// readCounts and writeCounts sum the counter deltas across the engine
	// spans of reads and of writes, indexed like counterNames.
	readCounts, writeCounts []int64
	reads, writes           int
	answerRows              int64   // rows the read responses reported
	rowsPerBlock            float64 // mean tuples per block when the replay began
	userBytes               int64   // fixed-width bytes of the tuples written
	hists                   snapshots
	failed                  int
	firstErr                error
}

func (r *replayResult) engineTotal() time.Duration {
	var t time.Duration
	for _, ds := range r.engine {
		for _, d := range ds {
			t += d
		}
	}
	return t
}

func (r *replayResult) counter(name string) (reads, writes float64) {
	for i, n := range counterNames {
		if n == name {
			return float64(r.readCounts[i]), float64(r.writeCounts[i])
		}
	}
	panic("unknown counter " + name)
}

// replay sends requests from st against eng one at a time: exactly n of
// them when n > 0, otherwise as many as fit in dur. With traced set it
// records spans and counter deltas; without, it only times the whole
// loop, so the two walls give the tracing overhead.
func replay(ctx context.Context, eng server.Engine, st stream, reg *obs.Registry, n int, dur time.Duration, traced bool) *replayResult {
	schema := eng.Schema()
	res := &replayResult{
		engine:      map[string][]time.Duration{},
		readCounts:  make([]int64, len(counterNames)),
		writeCounts: make([]int64, len(counterNames)),
	}
	res.rowsPerBlock = ratio(float64(eng.Len()), float64(eng.NumBlocks()))
	var counters []*obs.Counter
	for _, name := range counterNames {
		counters = append(counters, reg.Counter(name))
	}
	before, after := make([]int64, len(counters)), make([]int64, len(counters))
	readCounters := func(into []int64) {
		for i, c := range counters {
			into[i] = c.Value()
		}
	}
	var buf bytes.Buffer
	res.hists.before = reg.Snapshot()
	start := time.Now()
	end := start.Add(dur)
	for i := 0; n > 0 && i < n || n == 0 && time.Now().Before(end); i++ {
		r := st.next()
		var t0, t1, t2, t3 time.Time
		if traced {
			t0 = time.Now()
		}
		var (
			resp any
			err  error
			q    server.QueryRequest
			m    server.MutateRequest
		)
		if r.write {
			err = decodeStrict(r.body, &m)
			if err == nil {
				err = m.Validate(schema)
			}
		} else {
			err = decodeStrict(r.body, &q)
			if err == nil {
				err = q.Validate(schema)
			}
		}
		if traced {
			t1 = time.Now()
			readCounters(before)
		}
		if err == nil {
			if r.write {
				resp, err = m.Run(ctx, eng)
			} else {
				resp, err = q.Run(ctx, eng)
			}
		}
		if traced {
			readCounters(after)
			t2 = time.Now()
		}
		if err == nil {
			buf.Reset()
			err = json.NewEncoder(&buf).Encode(resp)
		}
		if traced {
			t3 = time.Now()
			res.record(i, r, start, t0, t1, t2, t3, before, after)
		}
		if err == nil {
			err = res.check(st, r, resp, schema)
		}
		if err != nil {
			res.failed++
			if res.firstErr == nil {
				res.firstErr = fmt.Errorf("replay %s %s: %w", r.op, r.body, err)
			}
		}
		res.requests++
	}
	res.wall = time.Since(start)
	res.hists.after = reg.Snapshot()
	return res
}

// record stores one traced request's spans and counter deltas.
func (res *replayResult) record(i int, r *request, start, t0, t1, t2, t3 time.Time, before, after []int64) {
	id := len(res.spans)
	name := "engine." + r.op
	res.spans = append(res.spans,
		span{Trace: i, ID: id, Parent: -1, Name: "request", Start: int64(t0.Sub(start)), Dur: int64(t3.Sub(t0))},
		span{Trace: i, ID: id + 1, Parent: id, Name: "server.decode", Start: int64(t0.Sub(start)), Dur: int64(t1.Sub(t0))},
		span{Trace: i, ID: id + 2, Parent: id, Name: name, Start: int64(t1.Sub(start)), Dur: int64(t2.Sub(t1))},
		span{Trace: i, ID: id + 3, Parent: id, Name: "server.encode", Start: int64(t2.Sub(start)), Dur: int64(t3.Sub(t2))},
	)
	res.decode = append(res.decode, t1.Sub(t0))
	res.engine[r.op] = append(res.engine[r.op], t2.Sub(t1))
	res.encode = append(res.encode, t3.Sub(t2))
	into := res.readCounts
	if r.write {
		into = res.writeCounts
	}
	for k := range before {
		into[k] += after[k] - before[k]
	}
}

// check judges one replayed response with the stream's oracle and counts
// what it did.
func (res *replayResult) check(st stream, r *request, resp any, schema *relation.Schema) error {
	if r.write {
		res.writes++
		got := resp.(*server.MutateResponse)
		res.userBytes += int64(got.Applied * schema.RowSize())
		return st.checkWrite(r, got)
	}
	res.reads++
	got := resp.(*server.QueryResponse)
	if got.Op == server.OpSelect {
		res.answerRows += int64(len(got.Rows))
	} else {
		res.answerRows += int64(got.Count)
	}
	return st.checkRead(r, got)
}

// decodeStrict decodes a request body the way the server's handlers do:
// unknown fields and trailing data are errors.
func decodeStrict(body []byte, dst any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return err
	}
	if dec.More() {
		return fmt.Errorf("trailing data after request object")
	}
	return nil
}

// writeSpans writes the spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
