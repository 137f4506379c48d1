// Parallel codec pipeline. AVQ blocks encode and decode independently
// (Section 3, Examples 3.2/3.3), so the hot paths fan per-block codec work
// out over a worker pool while keeping the on-disk result byte-identical
// to the serial reference path:
//
//   - Bulk loading splits into a parallel pair-cost pass, a cheap serial
//     chunker that reproduces MaxFit's boundaries exactly (both run on
//     core.Sizer), a parallel encode of the chunks, and a serial committer
//     that allocates pages in chunk order — so page ids, block order, and
//     page bytes all match the serial path.
//   - Scans decode blocks on a worker pool with bounded lookahead and
//     deliver them to the visitor strictly in clustered order.
//
// Everything is gated behind Config: Concurrency <= 1 keeps the serial
// code as the reference for differential testing.
package blockstore

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/relation"
	"repro/internal/storage"
)

// Config tunes the store's concurrency. The zero value is the serial
// reference configuration.
type Config struct {
	// Concurrency is the number of codec workers used by BulkLoadContext,
	// BulkLoadStreamContext, ScanBlocksContext, and ComputeStats. Values
	// <= 1 select the serial path. The effective scan fan-out is
	// additionally clamped to the buffer pool's capacity so workers cannot
	// pin every frame.
	Concurrency int
	// CacheBlocks is the capacity, in blocks, of the decoded-block LRU
	// cache consulted by ReadBlock and the scan pipeline. 0 disables it.
	CacheBlocks int
	// Obs wires the store's instruments (encode/decode counters and
	// latencies, snapshot accounting, and the executor's per-pass
	// counters) into a registry. nil disables instrumentation: the store
	// then holds nil instruments, whose methods no-op.
	Obs *obs.Registry
}

// Configure applies the concurrency and observability configuration. It
// must not be called while other goroutines use the store. Reconfiguring
// the cache size discards previously cached blocks.
func (s *Store) Configure(cfg Config) {
	s.conc = cfg.Concurrency
	if cfg.CacheBlocks > 0 {
		s.cache = newBlockCache(cfg.CacheBlocks)
	} else {
		s.cache = nil
	}
	if cfg.Obs != nil {
		s.met = storeMetrics{
			encodes:       cfg.Obs.Counter("store.encodes"),
			decodes:       cfg.Obs.Counter("store.decodes"),
			encodeHist:    cfg.Obs.Histogram("store.encode"),
			decodeHist:    cfg.Obs.Histogram("store.decode"),
			snapshots:     cfg.Obs.Counter("store.snapshots"),
			snapshotsLive: cfg.Obs.Gauge("store.snapshots_live"),
			exec: &ExecMetrics{
				BlocksRead:   cfg.Obs.Counter("exec.blocks_read"),
				BlocksPruned: cfg.Obs.Counter("exec.blocks_pruned"),
				CacheHits:    cfg.Obs.Counter("exec.cache_hits"),
				Rows:         cfg.Obs.Counter("exec.rows"),
				ArenaReuses:  cfg.Obs.Counter("exec.arena_reuses"),
				SlabBytes:    cfg.Obs.Counter("exec.slab_bytes"),
				BatchBlocks:  cfg.Obs.Counter("exec.batch_blocks"),
				SlabRows:     cfg.Obs.Counter("exec.slab_rows"),
			},
		}
	} else {
		s.met = storeMetrics{}
	}
}

// storeMetrics are the store's pre-resolved obs instruments; the zero
// value (nil instruments) is "observability off".
type storeMetrics struct {
	encodes       *obs.Counter
	decodes       *obs.Counter
	encodeHist    *obs.Histogram
	decodeHist    *obs.Histogram
	snapshots     *obs.Counter
	snapshotsLive *obs.Gauge
	exec          *ExecMetrics
}

// ExecMetrics are the pre-resolved counters the streaming executor folds
// its per-pass Stats into, one atomic add per counter per pass. They hang
// off the store (resolved once in Configure) so the executor never takes
// the registry's registration lock on a query path.
type ExecMetrics struct {
	BlocksRead   *obs.Counter
	BlocksPruned *obs.Counter
	CacheHits    *obs.Counter
	Rows         *obs.Counter
	ArenaReuses  *obs.Counter
	SlabBytes    *obs.Counter
	BatchBlocks  *obs.Counter
	SlabRows     *obs.Counter
}

// timeEncode wraps core.EncodeBlock with the store's encode instruments.
// The stream is appended to dst, so callers control buffer reuse: the
// serial path hands in the store's persistent encode buffer, the parallel
// path hands in exact-capacity per-chunk buffers.
func (s *Store) timeEncode(tuples []relation.Tuple, dst []byte) ([]byte, error) {
	if s.met.encodeHist == nil {
		return core.EncodeBlock(s.codec, s.schema, tuples, dst)
	}
	t0 := time.Now()
	stream, err := core.EncodeBlock(s.codec, s.schema, tuples, dst)
	s.met.encodeHist.Observe(time.Since(t0))
	s.met.encodes.Inc()
	return stream, err
}

// CacheStats returns decoded-block cache counters; zero when disabled.
func (s *Store) CacheStats() CacheStats {
	if s.cache == nil {
		return CacheStats{}
	}
	return s.cache.stats()
}

// parallel reports whether the pipeline paths are enabled.
func (s *Store) parallel() bool { return s.conc > 1 }

// scanWorkers bounds the scan fan-out: each decode worker pins one frame,
// so the pool must retain at least one spare frame for the rest of the
// system (e.g. Check reading a successor block inside the visit).
func (s *Store) scanWorkers(blocks int) int {
	w := min(s.conc, blocks)
	if c := s.pool.Capacity() - 1; w > c {
		w = c
	}
	return max(w, 1)
}

// minIndexErr tracks the error with the lowest item index across workers,
// so the parallel paths report the same failure the serial scan would have
// hit first.
type minIndexErr struct {
	mu  sync.Mutex
	idx int
	err error
}

func (m *minIndexErr) record(idx int, err error) {
	m.mu.Lock()
	if m.err == nil || idx < m.idx {
		m.idx, m.err = idx, err
	}
	m.mu.Unlock()
}

func (m *minIndexErr) get() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.err
}

// pairCosts computes, in parallel, costs[i] = Sizer.PairCost(t[i-1], t[i])
// for i in [1, n). costs[0] is unused.
func (s *Store) pairCosts(tuples []relation.Tuple) ([]int, error) {
	n := len(tuples)
	costs := make([]int, n)
	if n < 2 {
		return costs, nil
	}
	workers := min(s.conc, n-1)
	span := (n - 1 + workers - 1) / workers
	var wg sync.WaitGroup
	var firstErr minIndexErr
	for w := 0; w < workers; w++ {
		lo := 1 + w*span
		hi := min(lo+span, n)
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			z, ok := core.NewSizer(s.codec, s.schema)
			if !ok {
				return // caller checked the codec is additive
			}
			for i := lo; i < hi; i++ {
				cost, err := z.PairCost(tuples[i-1], tuples[i])
				if err != nil {
					firstErr.record(i, err)
					return
				}
				costs[i] = cost
			}
		}(lo, hi)
	}
	wg.Wait()
	if err := firstErr.get(); err != nil {
		return nil, err
	}
	return costs, nil
}

// chunkGreedy partitions tuples into maximal page-sized runs using the
// pre-computed pair costs — the same greedy rule as repeated MaxFit calls,
// evaluated on the same Sizer, so the boundaries are identical. Alongside
// each chunk it returns the exact encoded stream size (Sizer.BlockSize is
// exact), which encodeChunks uses to preallocate streams to capacity.
func (s *Store) chunkGreedy(z *core.Sizer, tuples []relation.Tuple, costs []int) ([][]relation.Tuple, []int, error) {
	var chunks [][]relation.Tuple
	var sizes []int
	capacity := s.capacity()
	start, acc := 0, 0
	for i := range tuples {
		u := i - start + 1
		cost := 0
		if u > 1 {
			cost = costs[i]
		}
		if z.BlockSize(u, acc+cost) <= capacity {
			acc += cost
			continue
		}
		if u == 1 {
			return nil, nil, ErrTupleTooLarge
		}
		chunks = append(chunks, tuples[start:i])
		sizes = append(sizes, z.BlockSize(i-start, acc))
		start, acc = i, 0
		if z.BlockSize(1, 0) > capacity {
			return nil, nil, ErrTupleTooLarge
		}
	}
	chunks = append(chunks, tuples[start:])
	sizes = append(sizes, z.BlockSize(len(tuples)-start, acc))
	return chunks, sizes, nil
}

// encodeChunks codes every chunk on the worker pool, returning the streams
// indexed like the chunks. Every stream is preallocated to its exact
// encoded size from the chunker's accounting, so the encoders never
// reallocate mid-stream.
func (s *Store) encodeChunks(chunks [][]relation.Tuple, sizes []int) ([][]byte, error) {
	streams := make([][]byte, len(chunks))
	workers := min(s.conc, len(chunks))
	var next atomic.Int64
	var wg sync.WaitGroup
	var firstErr minIndexErr
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(chunks) {
					return
				}
				stream, err := s.timeEncode(chunks[i], make([]byte, 0, sizes[i]))
				if err != nil {
					firstErr.record(i, err)
					continue
				}
				streams[i] = stream
			}
		}()
	}
	wg.Wait()
	if err := firstErr.get(); err != nil {
		return nil, err
	}
	return streams, nil
}

// commitChunks appends the pre-encoded chunks as blocks of m, allocating
// pages strictly in chunk order so the layout matches a serial load.
// Cancellation is honored between chunks: pages already committed stay in
// m (which the caller publishes even on error) so Reset can reclaim them.
func (s *Store) commitChunks(ctx context.Context, m *manifest, chunks [][]relation.Tuple, streams [][]byte) ([]BlockRef, error) {
	refs := make([]BlockRef, 0, len(chunks))
	for i, stream := range streams {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		id, err := s.writeStream(stream)
		if err != nil {
			return nil, err
		}
		f := fenceFor(chunks[i])
		m.append(id, f)
		refs = append(refs, BlockRef{Page: id, First: f.First, Count: len(chunks[i])})
	}
	return refs, nil
}

// bulkLoadParallel is the pipelined BulkLoadContext body for additive codecs. The
// caller has validated ordering and emptiness and publishes m.
func (s *Store) bulkLoadParallel(ctx context.Context, m *manifest, z *core.Sizer, tuples []relation.Tuple) ([]BlockRef, error) {
	if len(tuples) == 0 {
		return nil, nil
	}
	costs, err := s.pairCosts(tuples)
	if err != nil {
		return nil, err
	}
	chunks, sizes, err := s.chunkGreedy(z, tuples, costs)
	if err != nil {
		return nil, err
	}
	streams, err := s.encodeChunks(chunks, sizes)
	if err != nil {
		return nil, err
	}
	return s.commitChunks(ctx, m, chunks, streams)
}

// loadWindowParallel chunks and loads the window's complete blocks through
// the pipeline, returning the unconsumed tail. When dry, the tail is
// loaded too and comes back empty. grown reports that no complete block
// fit in the window, so the caller must widen it.
func (s *Store) loadWindowParallel(ctx context.Context, m *manifest, z *core.Sizer, window []relation.Tuple, dry bool) (refs []BlockRef, tail []relation.Tuple, grown bool, err error) {
	costs, err := s.pairCosts(window)
	if err != nil {
		return nil, window, false, err
	}
	chunks, sizes, err := s.chunkGreedy(z, window, costs)
	if err != nil {
		return nil, window, false, err
	}
	if !dry {
		// The last chunk could still grow as the stream refills; hold it.
		tail = chunks[len(chunks)-1]
		chunks = chunks[:len(chunks)-1]
		sizes = sizes[:len(sizes)-1]
		if len(chunks) == 0 {
			return nil, window, true, nil
		}
	}
	streams, err := s.encodeChunks(chunks, sizes)
	if err != nil {
		return nil, window, false, err
	}
	refs, err = s.commitChunks(ctx, m, chunks, streams)
	if err != nil {
		return nil, window, false, err
	}
	return refs, tail, false, nil
}

// scanResult carries one decoded block through the scan pipeline.
type scanResult struct {
	tuples []relation.Tuple
	err    error
}

// scanBlocksParallel decodes blocks on a worker pool with bounded
// lookahead and delivers them to fn strictly in clustered order. fn
// returning false (or a decode error) stops the pipeline; in-flight
// workers are drained before returning so no goroutine outlives the call.
func (s *Store) scanBlocksParallel(ctx context.Context, m *manifest, fn func(id storage.PageID, tuples []relation.Tuple) bool) error {
	ids := m.blocks
	workers := s.scanWorkers(len(ids))
	futures := make(chan chan scanResult, workers*2)
	sem := make(chan struct{}, workers)
	done := make(chan struct{})
	var wg sync.WaitGroup
	go func() {
		defer close(futures)
		for _, id := range ids {
			select {
			case <-done:
				return
			case sem <- struct{}{}:
			}
			c := make(chan scanResult, 1)
			select {
			case <-done:
				<-sem
				return
			case futures <- c:
			}
			wg.Add(1)
			go func(id storage.PageID, c chan<- scanResult) {
				defer wg.Done()
				tuples, err := s.decodeBlockCached(id)
				c <- scanResult{tuples, err}
				<-sem
			}(id, c)
		}
	}()
	var err error
	stopped := false
	i := 0
	for c := range futures {
		r := <-c
		if !stopped {
			switch {
			case ctx.Err() != nil:
				err = ctx.Err()
				stopped = true
				close(done)
			case r.err != nil:
				err = r.err
				stopped = true
				close(done)
			case !fn(ids[i], r.tuples):
				stopped = true
				close(done)
			}
		}
		i++
	}
	wg.Wait()
	return err
}

// computeStatsParallel inspects blocks on the worker pool; the sums are
// order-independent, so only error selection needs the index.
func (s *Store) computeStatsParallel(m *manifest) (Stats, error) {
	st := Stats{Blocks: len(m.blocks), PageBytes: len(m.blocks) * s.pool.PageSize()}
	workers := s.scanWorkers(len(m.blocks))
	parts := make([]Stats, workers)
	var next atomic.Int64
	var wg sync.WaitGroup
	var firstErr minIndexErr
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(part *Stats) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(m.blocks) {
					return
				}
				info, err := s.inspectBlock(m.blocks[i])
				if err != nil {
					firstErr.record(i, err)
					return
				}
				part.StreamBytes += info.StreamSize
				part.Tuples += info.TupleCount
			}
		}(&parts[w])
	}
	wg.Wait()
	if err := firstErr.get(); err != nil {
		return Stats{}, err
	}
	for _, part := range parts {
		st.StreamBytes += part.StreamBytes
		st.Tuples += part.Tuples
	}
	st.RawDataBytes = st.Tuples * s.schema.RowSize()
	return st, nil
}
