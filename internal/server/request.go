package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	"repro/internal/blockstore"
	"repro/internal/relation"
	"repro/internal/table"
)

// The wire vocabulary. One request type per verb class — reads and
// writes — decoded identically by the HTTP handlers and the avqdb CLI,
// validated once, executed through the Engine seam. Adding a flag to a
// subcommand and a field to an endpoint is the same one-line change.

// Query operations.
const (
	OpSelect    = "select"    // rows with lo <= A_attr <= hi, φ order
	OpCount     = "count"     // count of the same predicate
	OpAggregate = "aggregate" // COUNT/SUM/MIN/MAX of A_agg over it
	OpGroupBy   = "groupby"   // per-A_group aggregates of A_agg over it
	OpScan      = "scan"      // every tuple, φ order
)

// Mutate operations.
const (
	OpInsert = "insert" // one tuple
	OpDelete = "delete" // one tuple, reports found
	OpBatch  = "batch"  // many tuples, one lock/commit
)

// Sentinel errors of the server layer. Engine errors keep their own
// sentinels (table.ErrClosed, relation.ErrDomainRange, ...); HTTPStatus
// maps the union onto response codes.
var (
	// ErrBadRequest marks a request that failed validation before
	// touching the engine: unknown op, attribute out of range, malformed
	// tuple arity, undecodable JSON.
	ErrBadRequest = errors.New("server: bad request")
	// ErrOverload marks an admission-control rejection: the lane's queue
	// is full. Clients should back off and retry (429 + Retry-After).
	ErrOverload = errors.New("server: overloaded")
	// ErrDraining marks a request that arrived after shutdown began.
	ErrDraining = errors.New("server: draining")
)

// HTTPStatus maps the error vocabulary onto HTTP response codes: one
// mapping, used by the handlers and asserted by the tests.
func HTTPStatus(err error) int {
	switch {
	case err == nil:
		return http.StatusOK
	case errors.Is(err, ErrOverload):
		return http.StatusTooManyRequests // 429
	case errors.Is(err, ErrDraining), errors.Is(err, table.ErrClosed):
		return http.StatusServiceUnavailable // 503
	case errors.Is(err, ErrBadRequest), errors.Is(err, relation.ErrDomainRange):
		return http.StatusBadRequest // 400
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout // 504
	case errors.Is(err, context.Canceled):
		return http.StatusRequestTimeout // 408: the client went away
	case errors.Is(err, blockstore.ErrCorruptBlock), errors.Is(err, blockstore.ErrSnapshotStale):
		return http.StatusInternalServerError // 500
	default:
		return http.StatusInternalServerError
	}
}

// QueryRequest is one read. The zero values of Lo/Hi/Attr are valid, so
// Op alone decides how much of the struct is consulted.
type QueryRequest struct {
	Op   string `json:"op"`
	Attr int    `json:"attr"`
	Lo   uint64 `json:"lo"`
	Hi   uint64 `json:"hi"`
	// AggAttr is the aggregated attribute (aggregate, groupby).
	AggAttr int `json:"agg_attr,omitempty"`
	// GroupAttr is the grouping attribute (groupby).
	GroupAttr int `json:"group_attr,omitempty"`
	// Limit caps the rows materialized for select/scan; 0 means no cap.
	// The response reports Truncated and the full match count.
	Limit int `json:"limit,omitempty"`
	// Stats asks for the access-path accounting in the response. Off by
	// default so responses are byte-identical across engine layouts
	// (single-file vs sharded read different block counts).
	Stats bool `json:"stats,omitempty"`
	// TimeoutMs bounds this request's execution; 0 uses the server
	// default, and the server's MaxTimeout clamps it either way.
	TimeoutMs int `json:"timeout_ms,omitempty"`
}

// Validate checks the request against the schema without touching data.
func (q *QueryRequest) Validate(s *relation.Schema) error {
	switch q.Op {
	case OpSelect, OpCount, OpScan:
	case OpAggregate:
		if err := attrInRange(s, q.AggAttr, "agg_attr"); err != nil {
			return err
		}
	case OpGroupBy:
		if err := attrInRange(s, q.AggAttr, "agg_attr"); err != nil {
			return err
		}
		if err := attrInRange(s, q.GroupAttr, "group_attr"); err != nil {
			return err
		}
	default:
		return fmt.Errorf("%w: unknown query op %q", ErrBadRequest, q.Op)
	}
	if q.Op != OpScan {
		if err := attrInRange(s, q.Attr, "attr"); err != nil {
			return err
		}
		if q.Lo > q.Hi {
			return fmt.Errorf("%w: lo %d > hi %d", ErrBadRequest, q.Lo, q.Hi)
		}
		if q.Hi >= s.Domain(q.Attr).Size {
			return fmt.Errorf("%w: hi %d outside domain of size %d", relation.ErrDomainRange, q.Hi, s.Domain(q.Attr).Size)
		}
	}
	if q.Limit < 0 {
		return fmt.Errorf("%w: negative limit %d", ErrBadRequest, q.Limit)
	}
	if q.TimeoutMs < 0 {
		return fmt.Errorf("%w: negative timeout_ms %d", ErrBadRequest, q.TimeoutMs)
	}
	return nil
}

func attrInRange(s *relation.Schema, attr int, name string) error {
	if attr < 0 || attr >= s.NumAttrs() {
		return fmt.Errorf("%w: %s %d outside schema of %d attributes", ErrBadRequest, name, attr, s.NumAttrs())
	}
	return nil
}

// AggregateJSON is table.AggregateResult on the wire.
type AggregateJSON struct {
	Count int    `json:"count"`
	Sum   uint64 `json:"sum"`
	Min   uint64 `json:"min"`
	Max   uint64 `json:"max"`
}

// GroupJSON is one GroupBy group on the wire.
type GroupJSON struct {
	Value uint64        `json:"value"`
	Agg   AggregateJSON `json:"agg"`
}

// StatsJSON is table.QueryStats on the wire.
type StatsJSON struct {
	Strategy     string `json:"strategy"`
	BlocksRead   int    `json:"blocks_read"`
	CacheHits    int    `json:"cache_hits"`
	BlocksPruned int    `json:"blocks_pruned"`
	Matches      int    `json:"matches"`
	// φ-slab accounting: blocks decoded and the rows they held.
	BatchBlocks int `json:"batch_blocks,omitempty"`
	SlabRows    int `json:"slab_rows,omitempty"`
}

func statsJSON(qs table.QueryStats) *StatsJSON {
	return &StatsJSON{
		Strategy:     qs.Strategy.String(),
		BlocksRead:   qs.BlocksRead,
		CacheHits:    qs.CacheHits,
		BlocksPruned: qs.BlocksPruned,
		Matches:      qs.Matches,
		BatchBlocks:  qs.BatchBlocks,
		SlabRows:     qs.SlabRows,
	}
}

func aggJSON(a table.AggregateResult) AggregateJSON {
	return AggregateJSON{Count: a.Count, Sum: a.Sum, Min: a.Min, Max: a.Max}
}

// QueryResponse is one read's result. Count is always the total match
// count, even when Limit truncated Rows.
type QueryResponse struct {
	Op        string         `json:"op"`
	Count     int            `json:"count"`
	Rows      [][]uint64     `json:"rows,omitempty"`
	Truncated bool           `json:"truncated,omitempty"`
	Agg       *AggregateJSON `json:"agg,omitempty"`
	Groups    []GroupJSON    `json:"groups,omitempty"`
	Stats     *StatsJSON     `json:"stats,omitempty"`
}

// Run executes a validated query against the engine. The ctx carries the
// per-request deadline; the engine observes it at block boundaries.
func (q *QueryRequest) Run(ctx context.Context, e Engine) (*QueryResponse, error) {
	resp := &QueryResponse{Op: q.Op}
	switch q.Op {
	case OpSelect:
		rows, qs, err := e.SelectRangeContext(ctx, q.Attr, q.Lo, q.Hi)
		if err != nil {
			return nil, err
		}
		resp.Count = qs.Matches
		resp.Rows, resp.Truncated = clampRows(rows, q.Limit)
		q.maybeStats(resp, qs)
	case OpCount:
		n, qs, err := e.CountRangeContext(ctx, q.Attr, q.Lo, q.Hi)
		if err != nil {
			return nil, err
		}
		resp.Count = n
		q.maybeStats(resp, qs)
	case OpAggregate:
		res, qs, err := e.AggregateRangeContext(ctx, q.Attr, q.Lo, q.Hi, q.AggAttr)
		if err != nil {
			return nil, err
		}
		a := aggJSON(res)
		resp.Agg = &a
		resp.Count = res.Count
		q.maybeStats(resp, qs)
	case OpGroupBy:
		groups, qs, err := e.GroupByContext(ctx, q.Attr, q.Lo, q.Hi, q.GroupAttr, q.AggAttr)
		if err != nil {
			return nil, err
		}
		resp.Groups = make([]GroupJSON, len(groups))
		for i, g := range groups {
			resp.Groups[i] = GroupJSON{Value: g.Value, Agg: aggJSON(g.Agg)}
			resp.Count += g.Agg.Count
		}
		q.maybeStats(resp, qs)
	case OpScan:
		// Stream with early exit one past the limit so Truncated is known
		// without materializing the tail.
		n := 0
		err := e.ScanContext(ctx, func(tu relation.Tuple) bool {
			n++
			if q.Limit > 0 && len(resp.Rows) >= q.Limit {
				resp.Truncated = true
				return false
			}
			resp.Rows = append(resp.Rows, tu)
			return true
		})
		if err != nil {
			return nil, err
		}
		resp.Count = n
		if resp.Truncated {
			// n stopped at limit+1; report the engine's full size instead
			// of a partial count.
			resp.Count = e.Len()
		}
	default:
		return nil, fmt.Errorf("%w: unknown query op %q", ErrBadRequest, q.Op)
	}
	return resp, nil
}

func (q *QueryRequest) maybeStats(resp *QueryResponse, qs table.QueryStats) {
	if q.Stats {
		resp.Stats = statsJSON(qs)
	}
}

// clampRows converts to the wire type, applying the row cap.
func clampRows(rows []relation.Tuple, limit int) ([][]uint64, bool) {
	truncated := false
	if limit > 0 && len(rows) > limit {
		rows, truncated = rows[:limit], true
	}
	out := make([][]uint64, len(rows))
	for i, tu := range rows {
		out[i] = tu
	}
	return out, truncated
}

// MutateRequest is one write.
type MutateRequest struct {
	Op     string     `json:"op"`
	Tuple  []uint64   `json:"tuple,omitempty"`  // insert, delete
	Tuples [][]uint64 `json:"tuples,omitempty"` // batch
	// TimeoutMs bounds this request's execution (see QueryRequest).
	TimeoutMs int `json:"timeout_ms,omitempty"`
}

// Validate checks op shape and every tuple against the schema. Domain
// violations surface as relation.ErrDomainRange (→ 400), exactly the
// error the engine itself would return.
func (m *MutateRequest) Validate(s *relation.Schema) error {
	switch m.Op {
	case OpInsert, OpDelete:
		if len(m.Tuples) != 0 {
			return fmt.Errorf("%w: %s takes \"tuple\", not \"tuples\"", ErrBadRequest, m.Op)
		}
		return validateTuple(s, m.Tuple)
	case OpBatch:
		if len(m.Tuple) != 0 {
			return fmt.Errorf("%w: batch takes \"tuples\", not \"tuple\"", ErrBadRequest)
		}
		for i, tu := range m.Tuples {
			if err := validateTuple(s, tu); err != nil {
				return fmt.Errorf("tuple %d: %w", i, err)
			}
		}
		return nil
	default:
		return fmt.Errorf("%w: unknown mutate op %q", ErrBadRequest, m.Op)
	}
}

func validateTuple(s *relation.Schema, vals []uint64) error {
	if len(vals) != s.NumAttrs() {
		return fmt.Errorf("%w: tuple has %d values, schema has %d attributes", ErrBadRequest, len(vals), s.NumAttrs())
	}
	return s.ValidateTuple(relation.Tuple(vals))
}

// MutateResponse is one write's result.
type MutateResponse struct {
	Op string `json:"op"`
	// Found reports whether a delete removed anything.
	Found bool `json:"found,omitempty"`
	// Applied is the number of tuples written (1 for insert, 0 or 1 for
	// delete, len(tuples) for batch).
	Applied int `json:"applied"`
	// Len is the engine's tuple count after the mutation.
	Len int `json:"len"`
}

// Run executes a validated mutation against the engine.
func (m *MutateRequest) Run(ctx context.Context, e Engine) (*MutateResponse, error) {
	resp := &MutateResponse{Op: m.Op}
	switch m.Op {
	case OpInsert:
		if err := e.InsertContext(ctx, relation.Tuple(m.Tuple)); err != nil {
			return nil, err
		}
		resp.Applied = 1
	case OpDelete:
		found, err := e.DeleteContext(ctx, relation.Tuple(m.Tuple))
		if err != nil {
			return nil, err
		}
		resp.Found = found
		if found {
			resp.Applied = 1
		}
	case OpBatch:
		tuples := make([]relation.Tuple, len(m.Tuples))
		for i, tu := range m.Tuples {
			tuples[i] = tu
		}
		if err := e.InsertBatchContext(ctx, tuples); err != nil {
			return nil, err
		}
		resp.Applied = len(tuples)
	default:
		return nil, fmt.Errorf("%w: unknown mutate op %q", ErrBadRequest, m.Op)
	}
	resp.Len = e.Len()
	return resp, nil
}

// decodeStrict decodes one JSON request body, rejecting unknown fields
// and trailing garbage so typos fail loudly as 400s instead of silently
// defaulting.
func decodeStrict(r io.Reader, dst any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return fmt.Errorf("%w: %w", ErrBadRequest, err)
	}
	if dec.More() {
		return fmt.Errorf("%w: trailing data after request object", ErrBadRequest)
	}
	return nil
}
