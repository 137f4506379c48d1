package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/relation"
	"repro/internal/table"
)

// loadedTable builds a table with a deterministic dataset: tuple i is
// (i%64, i%16, i%64, i) for i in [0, n).
func loadedTable(t *testing.T, n int) *table.Table {
	t.Helper()
	tab, err := table.Create(testSchema(t), table.WithPageSize(512), table.WithBlockCache(16))
	if err != nil {
		t.Fatal(err)
	}
	tuples := make([]relation.Tuple, n)
	for i := range tuples {
		tuples[i] = testTuple(i)
	}
	if err := tab.BulkLoadContext(context.Background(), tuples); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tab.Close() }) //avqlint:ignore droppederr test cleanup
	return tab
}

func testTuple(i int) relation.Tuple {
	return relation.Tuple{uint64(i % 64), uint64(i % 16), uint64(i % 64), uint64(i)}
}

func postJSON(t *testing.T, url, body string) (int, []byte, http.Header) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, buf.Bytes(), resp.Header
}

func TestServerEndToEnd(t *testing.T) {
	const n = 500
	eng := loadedTable(t, n)
	s := New(Config{Engine: eng, Obs: obs.NewRegistry()})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	query := ts.URL + "/v1/query"
	mutate := ts.URL + "/v1/mutate"

	// Expected values computed straight from the generator.
	wantCount := 0
	var wantSum uint64
	for i := 0; i < n; i++ {
		if d := i % 64; d >= 3 && d <= 9 {
			wantCount++
			wantSum += uint64(i)
		}
	}

	t.Run("count", func(t *testing.T) {
		code, body, _ := postJSON(t, query, `{"op":"count","attr":0,"lo":3,"hi":9}`)
		if code != 200 {
			t.Fatalf("code %d: %s", code, body)
		}
		var qr QueryResponse
		if err := json.Unmarshal(body, &qr); err != nil {
			t.Fatal(err)
		}
		if qr.Count != wantCount {
			t.Fatalf("count = %d, want %d", qr.Count, wantCount)
		}
	})

	t.Run("select-limit", func(t *testing.T) {
		code, body, _ := postJSON(t, query, `{"op":"select","attr":0,"lo":3,"hi":9,"limit":5}`)
		if code != 200 {
			t.Fatalf("code %d: %s", code, body)
		}
		var qr QueryResponse
		if err := json.Unmarshal(body, &qr); err != nil {
			t.Fatal(err)
		}
		if len(qr.Rows) != 5 || !qr.Truncated || qr.Count != wantCount {
			t.Fatalf("rows=%d truncated=%v count=%d, want 5/true/%d", len(qr.Rows), qr.Truncated, qr.Count, wantCount)
		}
	})

	t.Run("aggregate", func(t *testing.T) {
		code, body, _ := postJSON(t, query, `{"op":"aggregate","attr":0,"lo":3,"hi":9,"agg_attr":3}`)
		if code != 200 {
			t.Fatalf("code %d: %s", code, body)
		}
		var qr QueryResponse
		if err := json.Unmarshal(body, &qr); err != nil {
			t.Fatal(err)
		}
		if qr.Agg == nil || qr.Agg.Count != wantCount || qr.Agg.Sum != wantSum {
			t.Fatalf("agg = %+v, want count %d sum %d", qr.Agg, wantCount, wantSum)
		}
	})

	t.Run("groupby", func(t *testing.T) {
		code, body, _ := postJSON(t, query, `{"op":"groupby","attr":0,"lo":3,"hi":9,"group_attr":1,"agg_attr":3}`)
		if code != 200 {
			t.Fatalf("code %d: %s", code, body)
		}
		var qr QueryResponse
		if err := json.Unmarshal(body, &qr); err != nil {
			t.Fatal(err)
		}
		if len(qr.Groups) == 0 || qr.Count != wantCount {
			t.Fatalf("groups=%d count=%d, want >0/%d", len(qr.Groups), qr.Count, wantCount)
		}
		total := 0
		for _, g := range qr.Groups {
			total += g.Agg.Count
		}
		if total != wantCount {
			t.Fatalf("group counts sum to %d, want %d", total, wantCount)
		}
	})

	t.Run("scan-limit", func(t *testing.T) {
		code, body, _ := postJSON(t, query, `{"op":"scan","limit":7}`)
		if code != 200 {
			t.Fatalf("code %d: %s", code, body)
		}
		var qr QueryResponse
		if err := json.Unmarshal(body, &qr); err != nil {
			t.Fatal(err)
		}
		if len(qr.Rows) != 7 || !qr.Truncated || qr.Count != n {
			t.Fatalf("rows=%d truncated=%v count=%d, want 7/true/%d", len(qr.Rows), qr.Truncated, qr.Count, n)
		}
	})

	t.Run("stats-opt-in", func(t *testing.T) {
		_, body, _ := postJSON(t, query, `{"op":"count","attr":0,"lo":3,"hi":9}`)
		if bytes.Contains(body, []byte(`"stats"`)) {
			t.Fatalf("stats leaked into default response: %s", body)
		}
		_, body, _ = postJSON(t, query, `{"op":"count","attr":0,"lo":3,"hi":9,"stats":true}`)
		var qr QueryResponse
		if err := json.Unmarshal(body, &qr); err != nil {
			t.Fatal(err)
		}
		if qr.Stats == nil || qr.Stats.Strategy == "" {
			t.Fatalf("stats requested but missing: %s", body)
		}
	})

	t.Run("mutate-cycle", func(t *testing.T) {
		code, body, _ := postJSON(t, mutate, `{"op":"insert","tuple":[1,2,3,4000]}`)
		if code != 200 {
			t.Fatalf("insert code %d: %s", code, body)
		}
		var mr MutateResponse
		if err := json.Unmarshal(body, &mr); err != nil {
			t.Fatal(err)
		}
		if mr.Applied != 1 || mr.Len != n+1 {
			t.Fatalf("insert resp %+v, want applied 1 len %d", mr, n+1)
		}
		_, body, _ = postJSON(t, mutate, `{"op":"delete","tuple":[1,2,3,4000]}`)
		var del MutateResponse
		if err := json.Unmarshal(body, &del); err != nil {
			t.Fatal(err)
		}
		if !del.Found || del.Applied != 1 || del.Len != n {
			t.Fatalf("delete resp %+v, want found/applied 1/len %d", del, n)
		}
		_, body, _ = postJSON(t, mutate, `{"op":"delete","tuple":[1,2,3,4000]}`)
		var del2 MutateResponse
		if err := json.Unmarshal(body, &del2); err != nil {
			t.Fatal(err)
		}
		if del2.Found || del2.Applied != 0 {
			t.Fatalf("second delete resp %+v, want not-found", del2)
		}
		code, body, _ = postJSON(t, mutate, `{"op":"batch","tuples":[[1,1,1,4001],[2,2,2,4002]]}`)
		if code != 200 {
			t.Fatalf("batch code %d: %s", code, body)
		}
		var batch MutateResponse
		if err := json.Unmarshal(body, &batch); err != nil {
			t.Fatal(err)
		}
		if batch.Applied != 2 || batch.Len != n+2 {
			t.Fatalf("batch resp %+v, want applied 2 len %d", batch, n+2)
		}
	})

	t.Run("error-codes", func(t *testing.T) {
		cases := []struct {
			url, body string
			want      int
		}{
			{query, `not json`, 400},
			{query, `{"op":"count","atr":0}`, 400},              // unknown field
			{query, `{"op":"frobnicate"}`, 400},                 // unknown op
			{query, `{"op":"count","attr":9}`, 400},             // attr out of schema
			{query, `{"op":"count","attr":1,"hi":999}`, 400},    // past domain
			{mutate, `{"op":"insert","tuple":[1,2]}`, 400},      // arity
			{mutate, `{"op":"insert","tuple":[99,0,0,0]}`, 400}, // domain
		}
		for i, tc := range cases {
			code, body, _ := postJSON(t, tc.url, tc.body)
			if code != tc.want {
				t.Errorf("case %d (%s): code %d, want %d (%s)", i, tc.body, code, tc.want, body)
			}
			var eb errorBody
			if err := json.Unmarshal(body, &eb); err != nil {
				t.Errorf("case %d: error body not JSON: %s", i, body)
			} else if eb.Code != tc.want || eb.Error == "" {
				t.Errorf("case %d: envelope %+v, want code %d", i, eb, tc.want)
			}
		}
		// Wrong method on a POST route.
		resp, err := http.Get(query)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("GET /v1/query = %d, want 405", resp.StatusCode)
		}
	})

	t.Run("healthz-statusz", func(t *testing.T) {
		resp, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("healthz = %d", resp.StatusCode)
		}
		resp, err = http.Get(ts.URL + "/statusz")
		if err != nil {
			t.Fatal(err)
		}
		var st statusz
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if st.Tuples != n+2 || st.Schema == "" || st.Blocks <= 0 {
			t.Fatalf("statusz %+v", st)
		}
	})

	// Nothing above may leak a pin or snapshot.
	if p, sn := eng.PinnedFrames(), eng.LiveSnapshots(); p != 0 || sn != 0 {
		t.Fatalf("workload leaked %d pins, %d snapshots", p, sn)
	}
}

// gatedEngine blocks ScanContext until its gate opens, so tests can hold
// a request inflight deterministically.
type gatedEngine struct {
	*table.Table
	gate    chan struct{}
	entered atomic.Int64
}

func (g *gatedEngine) ScanContext(ctx context.Context, fn func(relation.Tuple) bool) error {
	g.entered.Add(1)
	select {
	case <-g.gate:
	case <-ctx.Done():
		return ctx.Err()
	}
	return g.Table.ScanContext(ctx, fn)
}

// TestServerAdmissionSaturation drives a 1-slot/1-queue server with three
// concurrent scans: one executes, one queues, and the third is shed with
// 429 + Retry-After. After the gate opens, the first two complete.
func TestServerAdmissionSaturation(t *testing.T) {
	eng := &gatedEngine{Table: loadedTable(t, 64), gate: make(chan struct{})}
	s := New(Config{
		Engine: eng,
		Obs:    obs.NewRegistry(),
		Limits: Limits{ReadSlots: 1, ReadQueue: 1, WriteSlots: 1, WriteQueue: 1},
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	query := ts.URL + "/v1/query"

	codes := make(chan int, 2)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			code, _, _ := postJSON(t, query, `{"op":"scan"}`)
			codes <- code
		}()
	}
	// Wait until one scan holds the token and the other sits in the queue.
	deadline := time.Now().Add(5 * time.Second)
	for eng.entered.Load() < 1 || s.lim.read.queued.Load() < 1 {
		if time.Now().After(deadline) {
			t.Fatalf("saturation never reached: entered=%d queued=%d",
				eng.entered.Load(), s.lim.read.queued.Load())
		}
		time.Sleep(time.Millisecond)
	}

	code, body, hdr := postJSON(t, query, `{"op":"scan"}`)
	if code != http.StatusTooManyRequests {
		t.Fatalf("third scan = %d (%s), want 429", code, body)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	var eb errorBody
	if err := json.Unmarshal(body, &eb); err != nil || eb.Code != 429 {
		t.Fatalf("429 envelope: %s", body)
	}

	// Writes still flow: separate lane.
	if code, body, _ := postJSON(t, ts.URL+"/v1/mutate", `{"op":"insert","tuple":[1,2,3,4095]}`); code != 200 {
		t.Fatalf("write during read saturation = %d (%s)", code, body)
	}

	close(eng.gate)
	wg.Wait()
	close(codes)
	for code := range codes {
		if code != 200 {
			t.Fatalf("admitted scan finished with %d", code)
		}
	}
	if rejects := s.lim.read.rejects; rejects.Value() != 1 {
		t.Fatalf("reject counter = %d, want 1", rejects.Value())
	}
}

// TestServerGracefulDrain starts a real listener, holds scans inflight,
// then shuts down: Shutdown must wait for them, leave zero pins and zero
// snapshots, and later requests must see 503 + Retry-After.
func TestServerGracefulDrain(t *testing.T) {
	eng := &gatedEngine{Table: loadedTable(t, 256), gate: make(chan struct{})}
	s := New(Config{
		Engine: eng,
		Obs:    obs.NewRegistry(),
		Limits: Limits{ReadSlots: 8, ReadQueue: 8, WriteSlots: 2, WriteQueue: 2},
	})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- s.Serve(l) }()
	base := fmt.Sprintf("http://%s", l.Addr())

	const inflight = 4
	codes := make(chan int, inflight)
	for i := 0; i < inflight; i++ {
		go func() {
			code, _, _ := postJSON(t, base+"/v1/query", `{"op":"scan","limit":3}`)
			codes <- code
		}()
	}
	deadline := time.Now().Add(5 * time.Second)
	for eng.entered.Load() < inflight {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d scans inflight", eng.entered.Load(), inflight)
		}
		time.Sleep(time.Millisecond)
	}

	// Open the gate shortly after drain begins, so Shutdown demonstrably
	// waits for work that was running when it was called.
	time.AfterFunc(50*time.Millisecond, func() { close(eng.gate) })
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if err := <-serveDone; err != nil {
		t.Fatalf("Serve returned %v after clean shutdown", err)
	}
	for i := 0; i < inflight; i++ {
		if code := <-codes; code != 200 {
			t.Fatalf("inflight scan finished with %d during drain", code)
		}
	}

	// The drained engine is clean and still consistent.
	if p, sn := eng.PinnedFrames(), eng.LiveSnapshots(); p != 0 || sn != 0 {
		t.Fatalf("drain leaked %d pins, %d snapshots", p, sn)
	}
	if err := eng.Check(); err != nil {
		t.Fatalf("post-drain Check: %v", err)
	}
	if !s.Draining() {
		t.Fatal("Draining() false after Shutdown")
	}

	// The listener is gone; the handler itself now refuses work with 503.
	rec := httptest.NewRecorder()
	req := httptest.NewRequest("POST", "/v1/query", strings.NewReader(`{"op":"count","attr":0,"lo":0,"hi":1}`))
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("post-drain request = %d, want 503", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}
	resp, err := http.Get(base + "/healthz")
	if err == nil {
		// If some stack kept the port alive, health must at least be 503.
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("post-drain healthz = %d", resp.StatusCode)
		}
		resp.Body.Close()
	}
}

// TestServerRequestTimeout verifies the per-request deadline reaches the
// engine: a request whose timeout fires while the engine stalls comes
// back 504 and releases its admission token.
func TestServerRequestTimeout(t *testing.T) {
	eng := &gatedEngine{Table: loadedTable(t, 64), gate: make(chan struct{})}
	defer close(eng.gate)
	s := New(Config{Engine: eng, Obs: obs.NewRegistry()})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	code, body, _ := postJSON(t, ts.URL+"/v1/query", `{"op":"scan","timeout_ms":30}`)
	if code != http.StatusGatewayTimeout {
		t.Fatalf("stalled scan = %d (%s), want 504", code, body)
	}
	if r, w := s.lim.Inflight(); r != 0 || w != 0 {
		t.Fatalf("timed-out request left tokens held: (%d,%d)", r, w)
	}
}
