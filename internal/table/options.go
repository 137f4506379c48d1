package table

import (
	"time"

	"repro/internal/btree"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/simdisk"
	"repro/internal/storage"
)

// Option configures a table at Create/Open time. Options apply left to
// right over the documented defaults, so later options override earlier
// ones:
//
//	table.Create(schema, table.WithConcurrency(8), table.WithBlockCache(256))
type Option func(*Options)

// Resolve folds a Create/Open option list over the defaults each Options
// field documents. Layered callers (the shard layer) use it to inspect a
// configuration — e.g. the page size — before constructing per-shard
// backends.
func Resolve(opts []Option) Options {
	o := Options{
		Codec:      core.CodecAVQ,
		PageSize:   storage.DefaultPageSize,
		PoolFrames: 128,
		DiskParams: simdisk.PaperParams(),
		IndexOrder: btree.DefaultOrder,
	}
	for _, op := range opts {
		op(&o)
	}
	return o
}

// WithCodec selects the block representation (default core.CodecAVQ).
func WithCodec(c core.Codec) Option {
	return func(o *Options) { o.Codec = c }
}

// WithPageSize sets the disk block size in bytes.
func WithPageSize(n int) Option {
	return func(o *Options) { o.PageSize = n }
}

// WithPoolFrames sets the buffer pool capacity in frames.
func WithPoolFrames(n int) Option {
	return func(o *Options) { o.PoolFrames = n }
}

// WithDiskParams sets the simulated disk cost model.
func WithDiskParams(p simdisk.Params) Option {
	return func(o *Options) { o.DiskParams = p }
}

// WithIndexOrder sets the B+ tree node width.
func WithIndexOrder(n int) Option {
	return func(o *Options) { o.IndexOrder = n }
}

// WithSecondaryAttrs lists attribute positions to maintain secondary
// indexes on.
func WithSecondaryAttrs(attrs ...int) Option {
	return func(o *Options) { o.SecondaryAttrs = attrs }
}

// WithSecondaryKind selects the secondary-index backend.
func WithSecondaryKind(k IndexKind) Option {
	return func(o *Options) { o.SecondaryKind = k }
}

// WithPath backs the table with a page file at the given location.
func WithPath(path string) Option {
	return func(o *Options) { o.Path = path }
}

// WithPager injects the page store directly instead of deriving one from
// Path: the shard layer hands in a backend.Pager so the table's pages
// live in a keyed object store. Combined with WithPath (which then only
// anchors the WAL directory and the persistence contract), the pager must
// implement storage.DurablePager.
func WithPager(p storage.Pager) Option {
	return func(o *Options) { o.Pager = p }
}

// WithConcurrency sets the block-codec worker count for bulk loads, scans,
// and stats; values <= 1 keep the serial reference path.
func WithConcurrency(n int) Option {
	return func(o *Options) { o.Concurrency = n }
}

// WithBlockCache enables the decoded-block LRU cache with the given
// capacity in blocks; 0 disables it.
func WithBlockCache(blocks int) Option {
	return func(o *Options) { o.CacheBlocks = blocks }
}

// WithObs attaches an observability registry: the buffer pool, block
// store, executor, and indexes resolve their instruments from it, and the
// table's public operations record op-latency spans through it. A nil
// registry (the default) keeps every hot path un-instrumented.
func WithObs(reg *obs.Registry) Option {
	return func(o *Options) { o.Obs = reg }
}

// WithSlowOpThreshold overrides the attached registry's slow-op admission
// threshold. It only has effect together with WithObs.
func WithSlowOpThreshold(d time.Duration) Option {
	return func(o *Options) { o.SlowOpThreshold = d }
}

// WithDurability selects the crash-durability contract (see Durability).
// Only meaningful together with WithPath.
func WithDurability(d Durability) Option {
	return func(o *Options) { o.Durability = d }
}

// WithVFS overrides the filesystem backing the page file and WAL; crash
// tests inject a fault-injecting implementation here. Nil (the default)
// means the real filesystem.
func WithVFS(fs storage.FS) Option {
	return func(o *Options) { o.FS = fs }
}

// WithWALSegmentSize overrides the WAL segment rotation threshold in bytes.
func WithWALSegmentSize(n int64) Option {
	return func(o *Options) { o.WALSegmentSize = n }
}

// WithWALSyncEveryAppend forces one fsync per logged record instead of
// group commit — the naive durability baseline benchmarks compare against.
func WithWALSyncEveryAppend(on bool) Option {
	return func(o *Options) { o.WALSyncEveryAppend = on }
}
