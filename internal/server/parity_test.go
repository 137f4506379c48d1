package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/backend"
	"repro/internal/blockstore"
	"repro/internal/gen"
	"repro/internal/relation"
	"repro/internal/shard"
	"repro/internal/table"
)

// The engine parity test: every engine — a single table, a 4-shard
// database, and the HTTP server over each — must answer every read
// byte for byte like a decode-all-then-filter oracle over the loaded
// tuples, on a flat schema (φ is one limb) and on the paper's
// 16-attribute relation (φ is four limbs).

// oracle is the reference: the loaded tuples in φ order.
type oracle []relation.Tuple

func newOracle(s *relation.Schema, tuples []relation.Tuple) oracle {
	o := make(oracle, len(tuples))
	for i, tu := range tuples {
		o[i] = tu.Clone()
	}
	s.SortTuples(o)
	return o
}

// filter returns the rows satisfying every predicate, in φ order.
func (o oracle) filter(preds ...table.Predicate) []relation.Tuple {
	var out []relation.Tuple
next:
	for _, tu := range o {
		for _, p := range preds {
			if tu[p.Attr] < p.Lo || tu[p.Attr] > p.Hi {
				continue next
			}
		}
		out = append(out, tu)
	}
	return out
}

func aggregateOf(rows []relation.Tuple, aggAttr int) table.AggregateResult {
	var a table.AggregateResult
	for i, tu := range rows {
		v := tu[aggAttr]
		if i == 0 || v < a.Min {
			a.Min = v
		}
		a.Max = max(a.Max, v)
		a.Count++
		a.Sum += v
	}
	return a
}

func groupsOf(rows []relation.Tuple, groupAttr, aggAttr int) []table.GroupResult {
	byKey := map[uint64][]relation.Tuple{}
	for _, tu := range rows {
		byKey[tu[groupAttr]] = append(byKey[tu[groupAttr]], tu)
	}
	var out []table.GroupResult
	for k, g := range byKey {
		out = append(out, table.GroupResult{Value: k, Agg: aggregateOf(g, aggAttr)})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Value < out[j].Value })
	return out
}

// mergeJoin pairs rows of equal attribute 0, left-major within a key, in
// φ order — the merge join's output order.
func mergeJoin(l, r oracle) []table.JoinRow {
	var out []table.JoinRow
	for _, lt := range l {
		for _, rt := range r {
			if lt[0] == rt[0] {
				out = append(out, table.JoinRow{Left: lt, Right: rt})
			}
		}
	}
	return out
}

// hashJoin pairs rows with equal join attributes in the hash join's
// order: probe side (the larger) in φ order, build matches in φ order.
func hashJoin(l, r oracle, lattr, rattr int) []table.JoinRow {
	var out []table.JoinRow
	if len(l) <= len(r) {
		for _, rt := range r {
			for _, lt := range l {
				if lt[lattr] == rt[rattr] {
					out = append(out, table.JoinRow{Left: lt, Right: rt})
				}
			}
		}
		return out
	}
	for _, lt := range l {
		for _, rt := range r {
			if lt[lattr] == rt[rattr] {
				out = append(out, table.JoinRow{Left: lt, Right: rt})
			}
		}
	}
	return out
}

// wantResponse is the oracle's wire answer to q.
func (o oracle) wantResponse(q QueryRequest) []byte {
	rows := o.filter(table.Predicate{Attr: q.Attr, Lo: q.Lo, Hi: q.Hi})
	resp := QueryResponse{Op: q.Op, Count: len(rows)}
	switch q.Op {
	case OpSelect:
		for _, tu := range rows {
			resp.Rows = append(resp.Rows, tu)
		}
	case OpAggregate:
		a := aggregateOf(rows, q.AggAttr)
		resp.Agg = &AggregateJSON{Count: a.Count, Sum: a.Sum, Min: a.Min, Max: a.Max}
	case OpGroupBy:
		for _, g := range groupsOf(rows, q.GroupAttr, q.AggAttr) {
			resp.Groups = append(resp.Groups, GroupJSON{Value: g.Value, Agg: AggregateJSON{
				Count: g.Agg.Count, Sum: g.Agg.Sum, Min: g.Agg.Min, Max: g.Agg.Max,
			}})
		}
	}
	b, err := json.Marshal(resp)
	if err != nil {
		panic(err)
	}
	return b
}

// sameJSON fails unless got and want encode to the same bytes.
func sameJSON(t *testing.T, what string, got, want any) {
	t.Helper()
	gb, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	wb, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gb, wb) {
		t.Fatalf("%s:\n got %.400s\nwant %.400s", what, gb, wb)
	}
}

// paritySchemas returns the two relations: the flat employee schema with
// random rows, and the paper's Spec38Byte relation; each with a left
// side and a sparser right side for the joins.
func paritySchemas(t *testing.T) []struct {
	name        string
	s           *relation.Schema
	left, right []relation.Tuple
} {
	flat := relation.MustSchema(
		relation.Domain{Name: "dept", Size: 8},
		relation.Domain{Name: "job", Size: 16},
		relation.Domain{Name: "years", Size: 64},
		relation.Domain{Name: "hours", Size: 64},
		relation.Domain{Name: "empno", Size: 64},
	)
	rng := rand.New(rand.NewSource(38))
	random := func(n int, keyMask uint64) []relation.Tuple {
		out := make([]relation.Tuple, n)
		for i := range out {
			tu := make(relation.Tuple, flat.NumAttrs())
			for j := range tu {
				tu[j] = uint64(rng.Int63n(int64(flat.Domain(j).Size)))
			}
			tu[0] &^= keyMask
			out[i] = tu
		}
		return out
	}
	paper, left, err := gen.Spec38Byte(2400, true, 7).Build()
	if err != nil {
		t.Fatal(err)
	}
	_, right, err := gen.Spec38Byte(600, true, 8).Build()
	if err != nil {
		t.Fatal(err)
	}
	if k := paper.Limbs().K; k != 4 {
		t.Fatalf("Spec38Byte takes %d limbs, want 4", k)
	}
	return []struct {
		name        string
		s           *relation.Schema
		left, right []relation.Tuple
	}{
		{"flat", flat, random(2400, 0), random(500, 1)},
		{"spec38", paper, left, right},
	}
}

func TestEngineParityFlatAndNonFlat(t *testing.T) {
	ctx := context.Background()
	for _, pc := range paritySchemas(t) {
		t.Run(pc.name, func(t *testing.T) {
			s := pc.s
			last := s.NumAttrs() - 1
			opts := []table.Option{table.WithPageSize(1024), table.WithSecondaryAttrs(2)}
			mkTable := func(tuples []relation.Tuple) *table.Table {
				tb, err := table.Create(s, opts...)
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { tb.Close() }) //avqlint:ignore droppederr test cleanup
				if err := tb.BulkLoadContext(ctx, tuples); err != nil {
					t.Fatal(err)
				}
				return tb
			}
			mkDB := func(tuples []relation.Tuple) *shard.DB {
				db, err := shard.Create(s, shard.Config{Kind: backend.KindMemory, Shards: 4, Options: opts})
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { db.Close() }) //avqlint:ignore droppederr test cleanup
				if err := db.BulkLoad(ctx, tuples); err != nil {
					t.Fatal(err)
				}
				return db
			}
			lt, rt := mkTable(pc.left), mkTable(pc.right)
			ldb, rdb := mkDB(pc.left), mkDB(pc.right)
			lo, ro := newOracle(s, pc.left), newOracle(s, pc.right)
			engines := []struct {
				name string
				eng  Engine
			}{{"table", lt}, {"shard", ldb}}

			// Ranges: a clustered band and a point on attribute 0, a
			// secondary-indexed attribute, and an unindexed one (full scan).
			mid := lo[len(lo)/2]
			ranges := []table.Predicate{
				{Attr: 0, Lo: lo[len(lo)/4][0], Hi: lo[len(lo)*3/4][0]},
				{Attr: 0, Lo: mid[0], Hi: mid[0]},
				{Attr: 2, Lo: mid[2], Hi: mid[2] + 2},
				{Attr: last, Lo: mid[last] / 2, Hi: mid[last]},
			}
			for _, p := range ranges {
				want := lo.filter(p)
				for _, e := range engines {
					what := fmt.Sprintf("%s %s", e.name, p)
					n, _, err := e.eng.CountRangeContext(ctx, p.Attr, p.Lo, p.Hi)
					if err != nil {
						t.Fatal(err)
					}
					sameJSON(t, what+" count", n, len(want))
					for _, agg := range []int{0, 1, last} {
						a, _, err := e.eng.AggregateRangeContext(ctx, p.Attr, p.Lo, p.Hi, agg)
						if err != nil {
							t.Fatal(err)
						}
						sameJSON(t, fmt.Sprintf("%s aggregate(%d)", what, agg), a, aggregateOf(want, agg))
					}
					for _, g := range []int{0, 1, last - 1} {
						groups, _, err := e.eng.GroupByContext(ctx, p.Attr, p.Lo, p.Hi, g, last)
						if err != nil {
							t.Fatal(err)
						}
						sameJSON(t, fmt.Sprintf("%s groupby(%d)", what, g), groups, groupsOf(want, g, last))
					}
					rows, _, err := e.eng.SelectRangeContext(ctx, p.Attr, p.Lo, p.Hi)
					if err != nil {
						t.Fatal(err)
					}
					sameJSON(t, what+" select", rows, want)
				}
			}

			// The table's access paths: one per strategy.
			for _, c := range []struct {
				p        table.Predicate
				strategy table.Strategy
			}{
				{ranges[0], table.StrategyClustered},
				{ranges[2], table.StrategySecondary},
				{ranges[3], table.StrategyFullScan},
			} {
				_, st, err := lt.SelectRangeContext(ctx, c.p.Attr, c.p.Lo, c.p.Hi)
				if err != nil {
					t.Fatal(err)
				}
				if st.Strategy != c.strategy {
					t.Fatalf("select %s took %s, want %s", c.p, st.Strategy, c.strategy)
				}
			}

			// A conjunction: a clustered bound, a secondary-indexed range,
			// and a residual predicate on the last limb's attribute.
			conj := []table.Predicate{ranges[0], {Attr: 2, Lo: 0, Hi: mid[2] + 20}, {Attr: last, Lo: 0, Hi: mid[last]}}
			rows, _, err := lt.SelectContext(ctx, conj)
			if err != nil {
				t.Fatal(err)
			}
			sameJSON(t, "conjunction select", rows, lo.filter(conj...))

			// Cursor: a full pass; then seeks to an existing row, to a point
			// between rows, and — after reading past it — back to the start,
			// each followed by a drain.
			drain := func(cur *table.Cursor) []relation.Tuple {
				var out []relation.Tuple
				for {
					tu, ok, err := cur.Next()
					if err != nil {
						t.Fatal(err)
					}
					if !ok {
						return out
					}
					out = append(out, tu)
				}
			}
			from := func(target relation.Tuple) []relation.Tuple {
				var out []relation.Tuple
				for _, tu := range lo {
					if s.Compare(tu, target) >= 0 {
						out = append(out, tu)
					}
				}
				return out
			}
			sameJSON(t, "cursor scan", drain(lt.NewCursorContext(ctx)), []relation.Tuple(lo))
			between := mid.Clone()
			if between[last]++; between[last] == s.Domain(last).Size {
				between[last] -= 2
			}
			for _, target := range []relation.Tuple{mid, between} {
				cur := lt.NewCursorContext(ctx)
				if err := cur.Seek(target); err != nil {
					t.Fatal(err)
				}
				sameJSON(t, fmt.Sprintf("cursor seek %v", target), drain(cur), from(target))
			}
			cur := lt.NewCursorContext(ctx)
			if err := cur.Seek(mid); err != nil {
				t.Fatal(err)
			}
			if _, _, err := cur.Next(); err != nil {
				t.Fatal(err)
			}
			if err := cur.Seek(lo[0]); err != nil {
				t.Fatal(err)
			}
			sameJSON(t, "cursor seek back", drain(cur), []relation.Tuple(lo))
			// An exhausted or Closed cursor has handed its arena back to the
			// pool: Next keeps reporting the end, and a Seek (or a Next
			// after Close mid-scan) fails instead of decoding into an arena
			// another pass may hold.
			if _, ok, err := cur.Next(); ok || err != nil {
				t.Fatalf("Next after exhaustion = %v, %v; want the end", ok, err)
			}
			if err := cur.Seek(lo[0]); !errors.Is(err, blockstore.ErrSnapshotStale) {
				t.Fatalf("Seek after exhaustion: %v, want ErrSnapshotStale", err)
			}
			closed := lt.NewCursorContext(ctx)
			if _, _, err := closed.Next(); err != nil {
				t.Fatal(err)
			}
			closed.Close()
			if _, _, err := closed.Next(); !errors.Is(err, blockstore.ErrSnapshotStale) {
				t.Fatalf("Next after Close: %v, want ErrSnapshotStale", err)
			}
			if err := closed.Seek(mid); !errors.Is(err, blockstore.ErrSnapshotStale) {
				t.Fatalf("Seek after Close: %v, want ErrSnapshotStale", err)
			}

			// Joins: hash join on a non-clustering attribute, merge join on
			// attribute 0, single table and sharded.
			hj, _, err := table.HashJoinContext(ctx, lt, rt, 1, 1)
			if err != nil {
				t.Fatal(err)
			}
			sameJSON(t, "hash join", hj, hashJoin(lo, ro, 1, 1))
			mj, _, err := table.MergeJoinContext(ctx, lt, rt)
			if err != nil {
				t.Fatal(err)
			}
			wantMJ := mergeJoin(lo, ro)
			if len(wantMJ) == 0 {
				t.Fatal("merge join oracle is empty; the fixture joins nothing")
			}
			sameJSON(t, "table merge join", mj, wantMJ)
			smj, _, err := ldb.MergeJoin(ctx, rdb)
			if err != nil {
				t.Fatalf("shard merge join: %v", err)
			}
			sameJSON(t, "shard merge join", smj, wantMJ)

			// The HTTP server over each engine.
			for _, e := range engines {
				srv := httptest.NewServer(New(Config{Engine: e.eng}).Handler())
				for _, p := range ranges {
					for _, q := range []QueryRequest{
						{Op: OpCount, Attr: p.Attr, Lo: p.Lo, Hi: p.Hi},
						{Op: OpSelect, Attr: p.Attr, Lo: p.Lo, Hi: p.Hi},
						{Op: OpAggregate, Attr: p.Attr, Lo: p.Lo, Hi: p.Hi, AggAttr: last},
						{Op: OpGroupBy, Attr: p.Attr, Lo: p.Lo, Hi: p.Hi, GroupAttr: 1, AggAttr: last},
						{Op: OpGroupBy, Attr: p.Attr, Lo: p.Lo, Hi: p.Hi, GroupAttr: 0, AggAttr: 2},
					} {
						body, err := json.Marshal(q)
						if err != nil {
							t.Fatal(err)
						}
						resp, err := http.Post(srv.URL+"/v1/query", "application/json", strings.NewReader(string(body)))
						if err != nil {
							t.Fatal(err)
						}
						got, err := io.ReadAll(resp.Body)
						resp.Body.Close()
						if err != nil {
							t.Fatal(err)
						}
						if resp.StatusCode != http.StatusOK {
							t.Fatalf("%s %s: status %d: %s", e.name, body, resp.StatusCode, got)
						}
						if want := lo.wantResponse(q); !bytes.Equal(bytes.TrimSpace(got), want) {
							t.Fatalf("%s over HTTP %s:\n got %.400s\nwant %.400s", e.name, body, got, want)
						}
					}
				}
				srv.Close()
			}
		})
	}
}

// TestMergeJoinAcrossKeyDomains merge-joins the four-limb paper relation
// with a flat relation whose attribute-0 domain is far wider, both ways
// round, on tables and 4-shard databases. The flat side holds keys the
// paper side has and keys past the paper side's attribute-0 domain; a
// seek on the paper side to such a key must end that side, not scale
// the key into limb 0, where key * w0 overflows a uint64 from about
// 219606 on.
func TestMergeJoinAcrossKeyDomains(t *testing.T) {
	ctx := context.Background()
	paper, ptuples, err := gen.Spec38Byte(800, true, 11).Build()
	if err != nil {
		t.Fatal(err)
	}
	wide := relation.MustSchema(
		relation.Domain{Name: "key", Size: 1 << 40},
		relation.Domain{Name: "tag", Size: 16},
	)
	po := newOracle(paper, ptuples)
	// Keys shared with the first half of the paper side, then keys from
	// the first one whose scaling into the paper side's limb 0 wraps
	// (just past 2^64/w0, which lands near zero) on up. The paper side
	// still holds rows when the wide side reaches them.
	var wtuples []relation.Tuple
	for i := 0; i < len(po)/2; i += 97 {
		wtuples = append(wtuples, relation.Tuple{po[i][0], uint64(i % 16)})
	}
	wrap := ^uint64(0)/paper.Limbs().Weight[0] + 1
	for i, key := range []uint64{wrap, wrap + 1, 300000, 1 << 39} {
		wtuples = append(wtuples, relation.Tuple{key, uint64(i)})
	}
	opts := []table.Option{table.WithPageSize(1024)}
	type side struct {
		tb *table.Table
		db *shard.DB
		o  oracle
	}
	load := func(s *relation.Schema, tuples []relation.Tuple) side {
		tb, err := table.Create(s, opts...)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { tb.Close() }) //avqlint:ignore droppederr test cleanup
		if err := tb.BulkLoadContext(ctx, tuples); err != nil {
			t.Fatal(err)
		}
		db, err := shard.Create(s, shard.Config{Kind: backend.KindMemory, Shards: 4, Options: opts})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { db.Close() }) //avqlint:ignore droppederr test cleanup
		if err := db.BulkLoad(ctx, tuples); err != nil {
			t.Fatal(err)
		}
		return side{tb, db, newOracle(s, tuples)}
	}
	p, w := load(paper, ptuples), load(wide, wtuples)
	if last := po[len(po)-1][0]; wtuples[len(wtuples)-5][0] >= last {
		t.Fatal("the paper side ends before the wide side's wrapping keys")
	}
	// join runs f with a deadline: a seek that fails to advance spins
	// without reading a block, so it would never see a cancelled context.
	join := func(what string, f func() ([]table.JoinRow, error)) []table.JoinRow {
		type result struct {
			rows []table.JoinRow
			err  error
		}
		done := make(chan result, 1)
		go func() {
			rows, err := f()
			done <- result{rows, err}
		}()
		select {
		case r := <-done:
			if r.err != nil {
				t.Fatalf("%s: %v", what, r.err)
			}
			return r.rows
		case <-time.After(time.Minute):
			t.Fatalf("%s: no answer within a minute", what)
			return nil
		}
	}
	for _, c := range []struct {
		name string
		l, r side
	}{{"paper-wide", p, w}, {"wide-paper", w, p}} {
		want := mergeJoin(c.l.o, c.r.o)
		if len(want) == 0 {
			t.Fatal("merge join oracle is empty; the fixture joins nothing")
		}
		got := join(c.name+" table", func() ([]table.JoinRow, error) {
			rows, _, err := table.MergeJoinContext(ctx, c.l.tb, c.r.tb)
			return rows, err
		})
		sameJSON(t, c.name+" table merge join", got, want)
		got = join(c.name+" shard", func() ([]table.JoinRow, error) {
			rows, _, err := c.l.db.MergeJoin(ctx, c.r.db)
			return rows, err
		})
		sameJSON(t, c.name+" shard merge join", got, want)
	}
}
