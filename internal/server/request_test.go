package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"os"
	"strings"
	"testing"

	"repro/internal/blockstore"
	"repro/internal/relation"
	"repro/internal/table"
)

func testSchema(t *testing.T) *relation.Schema {
	t.Helper()
	s, err := relation.NewSchema(
		relation.Domain{Name: "dept", Size: 64},
		relation.Domain{Name: "job", Size: 16},
		relation.Domain{Name: "years", Size: 64},
		relation.Domain{Name: "empno", Size: 4096},
	)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestWireGolden round-trips every request and response shape through
// its typed struct and holds the re-encoding to the committed golden
// bytes: the wire format (field names, order, omitempty behaviour) can
// only change together with the golden file.
func TestWireGolden(t *testing.T) {
	raw, err := os.ReadFile("testdata/wire_golden.json")
	if err != nil {
		t.Fatal(err)
	}
	var cases []struct {
		Kind string          `json:"kind"`
		Name string          `json:"name"`
		JSON json.RawMessage `json:"json"`
	}
	if err := json.Unmarshal(raw, &cases); err != nil {
		t.Fatal(err)
	}
	if len(cases) == 0 {
		t.Fatal("golden file is empty")
	}
	for _, tc := range cases {
		t.Run(tc.Kind+"/"+tc.Name, func(t *testing.T) {
			var v any
			switch tc.Kind {
			case "query":
				v = &QueryRequest{}
			case "mutate":
				v = &MutateRequest{}
			case "query_response":
				v = &QueryResponse{}
			case "mutate_response":
				v = &MutateResponse{}
			case "error":
				v = &errorBody{}
			default:
				t.Fatalf("unknown golden kind %q", tc.Kind)
			}
			if err := decodeStrict(bytes.NewReader(tc.JSON), v); err != nil {
				t.Fatalf("decode: %v", err)
			}
			got, err := json.Marshal(v)
			if err != nil {
				t.Fatal(err)
			}
			var want bytes.Buffer
			if err := json.Compact(&want, tc.JSON); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want.Bytes()) {
				t.Fatalf("round-trip drifted from golden:\n got %s\nwant %s", got, want.Bytes())
			}
		})
	}
}

func TestDecodeStrictRejects(t *testing.T) {
	var q QueryRequest
	if err := decodeStrict(strings.NewReader(`{"op":"count","atr":0}`), &q); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("unknown field: got %v, want ErrBadRequest", err)
	}
	if err := decodeStrict(strings.NewReader(`{"op":"count"} trailing`), &q); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("trailing data: got %v, want ErrBadRequest", err)
	}
	if err := decodeStrict(strings.NewReader(`{`), &q); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("truncated JSON: got %v, want ErrBadRequest", err)
	}
}

func TestQueryValidate(t *testing.T) {
	s := testSchema(t)
	bad := []QueryRequest{
		{Op: "explode"},
		{Op: OpCount, Attr: -1},
		{Op: OpCount, Attr: 4},
		{Op: OpCount, Attr: 0, Lo: 5, Hi: 2},
		{Op: OpSelect, Attr: 0, Limit: -1},
		{Op: OpCount, Attr: 0, TimeoutMs: -5},
		{Op: OpAggregate, Attr: 0, Hi: 1, AggAttr: 9},
		{Op: OpGroupBy, Attr: 0, Hi: 1, AggAttr: 1, GroupAttr: -2},
	}
	for i, q := range bad {
		if err := q.Validate(s); !errors.Is(err, ErrBadRequest) {
			t.Errorf("case %d (%+v): got %v, want ErrBadRequest", i, q, err)
		}
	}
	over := QueryRequest{Op: OpCount, Attr: 1, Lo: 0, Hi: 99}
	if err := over.Validate(s); !errors.Is(err, relation.ErrDomainRange) {
		t.Errorf("hi past domain: got %v, want ErrDomainRange", err)
	}
	good := []QueryRequest{
		{Op: OpCount, Attr: 0, Lo: 0, Hi: 63},
		{Op: OpScan, Limit: 10},
		{Op: OpGroupBy, Attr: 0, Hi: 63, GroupAttr: 1, AggAttr: 2},
	}
	for i, q := range good {
		if err := q.Validate(s); err != nil {
			t.Errorf("good case %d: %v", i, err)
		}
	}
}

func TestMutateValidate(t *testing.T) {
	s := testSchema(t)
	bad := []MutateRequest{
		{Op: "truncate"},
		{Op: OpInsert, Tuple: []uint64{1, 2}},
		{Op: OpInsert, Tuple: []uint64{1, 2, 3, 4}, Tuples: [][]uint64{{1, 2, 3, 4}}},
		{Op: OpBatch, Tuple: []uint64{1, 2, 3, 4}},
		{Op: OpBatch, Tuples: [][]uint64{{1, 2, 3}}},
	}
	for i, m := range bad {
		if err := m.Validate(s); !errors.Is(err, ErrBadRequest) {
			t.Errorf("case %d (%+v): got %v, want ErrBadRequest", i, m, err)
		}
	}
	dom := MutateRequest{Op: OpInsert, Tuple: []uint64{99, 0, 0, 0}}
	if err := dom.Validate(s); !errors.Is(err, relation.ErrDomainRange) {
		t.Errorf("out-of-domain value: got %v, want ErrDomainRange", err)
	}
	ok := MutateRequest{Op: OpBatch, Tuples: [][]uint64{{1, 2, 3, 4}, {5, 6, 7, 8}}}
	if err := ok.Validate(s); err != nil {
		t.Errorf("good batch: %v", err)
	}
}

// TestHTTPStatusMapping pins the error vocabulary: every sentinel the
// engine or the server can surface maps to exactly one response code.
func TestHTTPStatusMapping(t *testing.T) {
	cases := []struct {
		err  error
		want int
	}{
		{nil, http.StatusOK},
		{ErrOverload, http.StatusTooManyRequests},
		{ErrDraining, http.StatusServiceUnavailable},
		{table.ErrClosed, http.StatusServiceUnavailable},
		{ErrBadRequest, http.StatusBadRequest},
		{relation.ErrDomainRange, http.StatusBadRequest},
		{ErrTooLarge, http.StatusRequestEntityTooLarge},
		{context.DeadlineExceeded, http.StatusGatewayTimeout},
		{context.Canceled, http.StatusRequestTimeout},
		{blockstore.ErrCorruptBlock, http.StatusInternalServerError},
		{blockstore.ErrSnapshotStale, http.StatusInternalServerError},
		{errors.New("anything else"), http.StatusInternalServerError},
	}
	for _, tc := range cases {
		if got := HTTPStatus(tc.err); got != tc.want {
			t.Errorf("HTTPStatus(%v) = %d, want %d", tc.err, got, tc.want)
		}
	}
	// Wrapped sentinels keep their mapping (the handlers always wrap).
	wrapped := errors.Join(errors.New("context"), ErrOverload)
	if got := HTTPStatus(wrapped); got != http.StatusTooManyRequests {
		t.Errorf("wrapped overload = %d, want 429", got)
	}
}
