package main

import (
	"time"
)

// medianOf returns the median of ds.
func medianOf(ds []time.Duration) time.Duration { return quantile(ds, 0.5) }

// layerMetrics derives the per-layer metrics of a traced run from the
// open-loop phase against the server (open), the server's registry
// scraped around it (scrape), and the traced and untraced replays.
func layerMetrics(rep *report, open *phase, scrape snapshots, tr, plain *replayResult) {
	// server: wire decode and encode, admission, handler.
	rep.set("server.decode_us", us(medianOf(tr.decode)))
	rep.set("server.encode_us", us(medianOf(tr.encode)))
	admitted := int64(scrape.counter("server.read_admitted") + scrape.counter("server.write_admitted"))
	_, _, waits := scrape.hist("server.read_queue_wait", "server.write_queue_wait")
	rep.set("server.queue_wait_p99_ms", ms(bucketQuantile(waits, admitted, 0.99)))
	rejected := scrape.counter("server.read_rejects") + scrape.counter("server.write_rejects")
	rep.set("server.rejected_frac", ratio(rejected, scrape.counter("server.requests")))
	_, _, handler := scrape.hist("server.query_latency")
	handlerP50 := bucketQuantile(handler, 0, 0.5)
	rep.set("server.handler_p50_ms", ms(handlerP50))
	rtt := medianOf(open.readRTT)
	rep.set("net.overhead_us", us(rtt-handlerP50))
	var readEngine []time.Duration
	for op, ds := range tr.engine {
		if op != "insert" && op != "delete" && op != "batch" {
			readEngine = append(readEngine, ds...)
		}
	}
	rep.set("net.engine_frac", ratio(float64(medianOf(readEngine)), float64(rtt)))

	// table (or shard.DB): the engine span per op.
	for _, op := range []string{"count", "aggregate", "groupby", "select", "insert", "delete", "batch"} {
		rep.set("table."+op+"_us", us(medianOf(tr.engine[op])))
	}
	reads, writes := float64(tr.reads), float64(tr.writes)
	requests := reads + writes
	c := func(name string) float64 {
		r, w := tr.counter(name)
		return r + w
	}
	cr := func(name string) float64 {
		r, _ := tr.counter(name)
		return r
	}
	cw := func(name string) float64 {
		_, w := tr.counter(name)
		return w
	}

	// shard: scatter width and pruning.
	rep.set("shard.scanned_per_query", ratio(c("shard.shards_scanned"), c("shard.queries")))
	rep.set("shard.pruned_frac", ratio(c("shard.shards_pruned"), c("shard.shards_scanned")+c("shard.shards_pruned")))

	// exec: blocks, fence pruning, wasted rows, batch path.
	rep.set("exec.blocks_read_per_query", ratio(cr("exec.blocks_read"), reads))
	rep.set("exec.pruned_frac", ratio(cr("exec.blocks_pruned"), cr("exec.blocks_read")+cr("exec.blocks_pruned")))
	rep.set("exec.rows_per_match", ratio(cr("exec.rows"), float64(tr.answerRows)))
	rep.set("exec.batch_frac", ratio(cr("exec.batch_blocks"), cr("exec.blocks_read")))
	rep.set("exec.slab_rows", ratio(cr("exec.slab_rows"), reads))

	// core: full tuple decodes, timed by the store.decode histogram.
	decodes, decodeNs, _ := tr.hists.hist("store.decode")
	rep.set("core.decode_frac", ratio(float64(decodeNs), float64(tr.engineTotal())))
	// A full decode yields a whole block; the mean block holds
	// rowsPerBlock tuples.
	rep.set("core.decode_ns_per_row", ratio(float64(decodeNs), float64(decodes)*tr.rowsPerBlock))

	// buffer: pool hits and evictions.
	rep.set("buffer.hit_frac", ratio(c("pool.hits"), c("pool.hits")+c("pool.misses")))
	rep.set("buffer.evictions_per_query", ratio(c("pool.evictions"), requests))

	// blockstore: decoded-block cache, block re-encodes on the write path.
	rep.set("blockstore.cache_hit_frac", ratio(c("exec.cache_hits"), c("exec.cache_hits")+c("exec.blocks_read")))
	_, encodeNs, _ := tr.hists.hist("store.encode")
	rep.set("blockstore.encode_us_per_write", ratio(float64(encodeNs)/1e3, writes))
	rep.set("blockstore.encodes_per_write", ratio(cw("store.encodes"), writes))

	// wal: fsyncs, group commit, log volume.
	rep.set("wal.fsyncs_per_write", ratio(cw("wal.fsyncs"), writes))
	groups, groupSum, _ := tr.hists.hist("wal.group_size")
	rep.set("wal.group_size_mean", ratio(float64(groupSum), float64(groups)))
	rep.set("wal.bytes_per_user_byte", ratio(cw("wal.bytes"), float64(tr.userBytes)))

	// End-to-end write latency (sharded-rw only) and the generator itself.
	rep.set("write_p50_ms", ms(quantile(open.writes, 0.50)))
	rep.set("write_p99_ms", ms(quantile(open.writes, 0.99)))
	rep.set("bench.gen_lag_p99_ms", ms(quantile(open.lag, 0.99)))
	rep.set("bench.trace_overhead_pct", 100*ratio(float64(tr.wall-plain.wall), float64(plain.wall)))

	// Self times along the span tree, for the summary.
	var self []time.Duration
	for i := 0; i+3 < len(tr.spans); i += 4 {
		sp := tr.spans[i : i+4]
		self = append(self, time.Duration(sp[0].Dur-sp[1].Dur-sp[2].Dur-sp[3].Dur))
	}
	rep.notef("span self time p50: request %v, server.decode %v, engine %v, server.encode %v; client read round trip p50 %v",
		medianOf(self), medianOf(tr.decode), medianOf(readEngine), medianOf(tr.encode), rtt)
}
