// Package server is the network front-end: a concurrent HTTP/JSON query
// service over the ctx-first engine API, with per-request deadlines
// propagated into block-boundary cancellation, token-bucket admission
// control with separate read and write lanes, and graceful drain.
//
// The embedding seam is the Engine interface below. The engine stays a
// library — the gorelly layering (query → table → btree → buffer → disk)
// with the server as one more caller on top, never something the storage
// layers know about. One server binary fronts a single-file table
// (table.Table) or a φ-range sharded directory (shard.DB) transparently;
// both are safe for concurrent readers and writers.
package server

import (
	"context"

	"repro/internal/relation"
	"repro/internal/shard"
	"repro/internal/table"
)

// Engine is the unified embedding seam the server runs on: every query
// and mutation entry point in its Context-suffixed form, all returning
// the engine's QueryStats, plus the introspection hooks the drain path
// and status endpoint need.
//
// table.Table satisfies it for a single-file table and shard.DB for a
// φ-range sharded directory; the differential server test holds the two
// to byte-identical HTTP behaviour.
type Engine interface {
	// Schema returns the relation schema (immutable once created).
	Schema() *relation.Schema
	// Len returns the live tuple count.
	Len() int
	// NumBlocks returns the data block count.
	NumBlocks() int

	// InsertContext adds one tuple.
	InsertContext(ctx context.Context, tu relation.Tuple) error
	// InsertBatchContext adds a batch of tuples.
	InsertBatchContext(ctx context.Context, tuples []relation.Tuple) error
	// DeleteContext removes one tuple, reporting whether it was present.
	DeleteContext(ctx context.Context, tu relation.Tuple) (bool, error)

	// SelectRangeContext returns the tuples with lo <= A_attr <= hi in φ
	// order.
	SelectRangeContext(ctx context.Context, attr int, lo, hi uint64) ([]relation.Tuple, table.QueryStats, error)
	// CountRangeContext counts the tuples with lo <= A_attr <= hi.
	CountRangeContext(ctx context.Context, attr int, lo, hi uint64) (int, table.QueryStats, error)
	// AggregateRangeContext folds COUNT/SUM/MIN/MAX of A_aggAttr over the
	// range predicate.
	AggregateRangeContext(ctx context.Context, attr int, lo, hi uint64, aggAttr int) (table.AggregateResult, table.QueryStats, error)
	// GroupByContext groups the rows matching the filter by A_groupAttr
	// and aggregates A_aggAttr per group, ascending by group value.
	GroupByContext(ctx context.Context, filterAttr int, lo, hi uint64, groupAttr, aggAttr int) ([]table.GroupResult, table.QueryStats, error)
	// ScanContext streams every tuple in φ order until fn returns false.
	ScanContext(ctx context.Context, fn func(relation.Tuple) bool) error

	// Check runs the engine's deepest self-validation pass.
	Check() error
	// PinnedFrames reports currently pinned buffer-pool frames; the drain
	// path asserts it reaches zero once the last request finishes.
	PinnedFrames() int
	// LiveSnapshots reports manifest snapshots still held.
	LiveSnapshots() int
	// Close releases the engine.
	Close() error
}

// The two engine implementations, held to the seam at compile time.
var (
	_ Engine = (*table.Table)(nil)
	_ Engine = (*shard.DB)(nil)
)
