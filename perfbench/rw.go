package main

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sync"

	"repro/internal/relation"
	"repro/internal/server"
)

// batchSize is the number of fresh tuples in one batch write.
const batchSize = 8

// Reads on sharded-rw race the writes, so their exact answers depend on
// timing. The oracle therefore checks each read against bounds that hold
// whatever the interleaving (rows in φ order and inside the range, counts
// between what was loaded minus every delete sent so far and plus every
// insert sent so far), and checks the final contents exactly: writes
// touch disjoint tuples, so the end state does not depend on their order.
type rwStream struct {
	mu   sync.Mutex
	rng  *rand.Rand
	perm []int // deletion order over the loaded tuples
	dels int   // deletes sent so far

	loaded []relation.Tuple
	// everSeen holds every key that was loaded or drawn for insertion;
	// fresh inserts are drawn outside it and every returned row must be in
	// it.
	everSeen map[uint64]bool
	// base, inserted and deleted count tuples per attribute-0 value:
	// loaded, drawn for insertion, drawn for deletion.
	base, inserted, deleted [512]int

	writes []*rwWrite
}

// rwWrite is one write sent and whether the server acknowledged it.
type rwWrite struct {
	r      *request
	tuples []relation.Tuple
	del    bool
	acked  bool
}

func newRWStream(loaded []relation.Tuple, seed int64) *rwStream {
	s := &rwStream{
		rng:      rand.New(rand.NewSource(seed ^ 0x77)),
		loaded:   loaded,
		everSeen: make(map[uint64]bool, len(loaded)),
	}
	s.perm = s.rng.Perm(len(loaded))
	for _, tu := range loaded {
		s.everSeen[flatKey(tu)] = true
		s.base[tu[0]]++
	}
	return s
}

func (s *rwStream) next() *request {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.rng.Intn(4) == 0 {
		return s.nextWrite()
	}
	switch s.rng.Intn(3) {
	case 0: // ordered select across at least one shard boundary
		lo := uint64(s.rng.Intn(257))
		return queryRequest(server.QueryRequest{Op: server.OpSelect, Attr: 0, Lo: lo, Hi: lo + 255, Limit: 50})
	case 1: // narrow count, pruned to one shard
		v := uint64(s.rng.Intn(512 - 3))
		return queryRequest(server.QueryRequest{Op: server.OpCount, Attr: 0, Lo: v, Hi: v + 3})
	default: // full-range group-by across every shard
		return queryRequest(server.QueryRequest{Op: server.OpGroupBy, Attr: 0, Lo: 0, Hi: 511, GroupAttr: 1, AggAttr: 3})
	}
}

func (s *rwStream) nextWrite() *request {
	w := &rwWrite{}
	kind := s.rng.Intn(3)
	if kind == 1 && s.dels == len(s.perm) {
		kind = 0 // every loaded tuple is deleted already
	}
	switch kind {
	case 0:
		w.tuples = []relation.Tuple{s.fresh()}
		w.r = mutateRequest(server.MutateRequest{Op: server.OpInsert, Tuple: w.tuples[0]})
	case 1:
		tu := s.loaded[s.perm[s.dels]]
		s.dels++
		w.tuples, w.del = []relation.Tuple{tu}, true
		s.deleted[tu[0]]++
		w.r = mutateRequest(server.MutateRequest{Op: server.OpDelete, Tuple: tu})
	default:
		w.tuples = make([]relation.Tuple, batchSize)
		wire := make([][]uint64, batchSize)
		for i := range w.tuples {
			w.tuples[i] = s.fresh()
			wire[i] = w.tuples[i]
		}
		w.r = mutateRequest(server.MutateRequest{Op: server.OpBatch, Tuples: wire})
	}
	s.writes = append(s.writes, w)
	w.r.rw = w
	return w.r
}

// fresh draws a tuple never loaded or drawn before and counts it as
// drawn for insertion.
func (s *rwStream) fresh() relation.Tuple {
	tu := drawFlat(s.rng, s.everSeen)
	s.inserted[tu[0]]++
	return tu
}

// bounds returns the least and greatest number of tuples with attribute 0
// in [lo, hi] that can exist at any point up to now.
func (s *rwStream) bounds(lo, hi uint64) (least, most int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for v := lo; v <= hi; v++ {
		least += s.base[v] - s.deleted[v]
		most += s.base[v] + s.inserted[v]
	}
	return least, most
}

func (s *rwStream) checkRead(r *request, got *server.QueryResponse) error {
	q := r.q
	if got.Op != q.Op {
		return fmt.Errorf("op %q, want %q", got.Op, q.Op)
	}
	least, most := s.bounds(q.Lo, q.Hi)
	if got.Count < least || got.Count > most {
		return fmt.Errorf("%s [%d,%d]: count %d outside [%d,%d]", q.Op, q.Lo, q.Hi, got.Count, least, most)
	}
	switch q.Op {
	case server.OpSelect:
		if want := min(got.Count, q.Limit); len(got.Rows) != want {
			return fmt.Errorf("select: %d rows for count %d and limit %d", len(got.Rows), got.Count, q.Limit)
		}
		if got.Truncated != (got.Count > q.Limit) {
			return fmt.Errorf("select: truncated %v for count %d and limit %d", got.Truncated, got.Count, q.Limit)
		}
		s.mu.Lock()
		defer s.mu.Unlock()
		for i, row := range got.Rows {
			if len(row) != 4 || row[0] < q.Lo || row[0] > q.Hi {
				return fmt.Errorf("select: row %d %v outside [%d,%d]", i, row, q.Lo, q.Hi)
			}
			if i > 0 && slices.Compare(got.Rows[i-1], row) >= 0 {
				return fmt.Errorf("select: row %d %v not after %v in φ order", i, row, got.Rows[i-1])
			}
			if !s.everSeen[flatKey(row)] {
				return fmt.Errorf("select: row %v was never written", row)
			}
		}
	case server.OpGroupBy:
		total := 0
		for i, g := range got.Groups {
			if g.Value >= 16 || i > 0 && g.Value <= got.Groups[i-1].Value {
				return fmt.Errorf("groupby: group %d value %d out of order or range", i, g.Value)
			}
			a := g.Agg
			if a.Count < 1 || a.Min > a.Max || a.Max >= 4096 || a.Sum < uint64(a.Count)*a.Min || a.Sum > uint64(a.Count)*a.Max {
				return fmt.Errorf("groupby: group %d aggregate %+v inconsistent", g.Value, a)
			}
			total += a.Count
		}
		if total != got.Count {
			return fmt.Errorf("groupby: groups hold %d rows, count says %d", total, got.Count)
		}
	}
	return nil
}

func (s *rwStream) checkWrite(r *request, got *server.MutateResponse) error {
	w := r.rw
	want := len(w.tuples)
	if got.Op != r.op || got.Applied != want || w.del && !got.Found {
		return fmt.Errorf("%s: response %+v, want %d applied", r.op, got, want)
	}
	s.mu.Lock()
	w.acked = true
	s.mu.Unlock()
	return nil
}

// final scans the database and requires it to hold exactly the loaded
// tuples minus acknowledged deletes plus acknowledged inserts. A tuple of
// a write that was never acknowledged may be in either state. It then
// runs the engine's own deep check.
func (s *rwStream) final(ctx context.Context, eng server.Engine) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	want := make(map[uint64]bool, len(s.loaded))
	for _, tu := range s.loaded {
		want[flatKey(tu)] = true
	}
	either := map[uint64]bool{}
	for _, w := range s.writes {
		for _, tu := range w.tuples {
			k := flatKey(tu)
			switch {
			case !w.acked:
				either[k] = true
			case w.del:
				delete(want, k)
			default:
				want[k] = true
			}
		}
	}
	for k := range either {
		delete(want, k)
	}
	got := make(map[uint64]bool, len(want))
	var bad error
	err := eng.ScanContext(ctx, func(tu relation.Tuple) bool {
		k := flatKey(tu)
		switch {
		case got[k]:
			bad = fmt.Errorf("final state holds %v twice", tu)
		case !want[k] && !either[k]:
			bad = fmt.Errorf("final state holds %v, which no acknowledged write left there", tu)
		}
		got[k] = true
		return bad == nil
	})
	if err != nil {
		return fmt.Errorf("final scan: %w", err)
	}
	if bad != nil {
		return bad
	}
	for k := range want {
		if !got[k] {
			return fmt.Errorf("final state lacks tuple with φ %d, which acknowledged writes leave there", k)
		}
	}
	if err := eng.Check(); err != nil {
		return fmt.Errorf("engine check: %w", err)
	}
	return nil
}
