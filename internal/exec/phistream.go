package exec

import "repro/internal/relation"

// PhiStream is a φ-ordered stream of per-block φ slabs — the shape
// merge-style operators consume. BatchIterator implements it over one
// snapshot; ChainPhiStreams concatenates per-shard iterators into one
// table-wide stream (φ-range shards are disjoint and ordered, so shard
// order is φ order).
type PhiStream interface {
	// NextPhis returns the next nondecreasing slab, or nil at the end.
	// The slab is valid only until the next NextPhis call.
	NextPhis() ([]uint64, error)
	// SeekPhi advances the stream (forward only) past blocks that cannot
	// hold a row whose limb 0 is >= target. Best-effort: the stream may
	// still deliver smaller rows (unknown fences, in-block prefixes);
	// consumers must skip within slabs themselves.
	SeekPhi(target uint64) error
}

// chainedPhis concatenates streams end to end, carrying the high-water
// seek target into each subsequent stream: a seek raised while stream i
// is draining must still prune stream i+1's prefix when the chain gets
// there.
type chainedPhis struct {
	streams []PhiStream
	at      int
	hw      uint64
	hasHW   bool
}

// ChainPhiStreams returns the concatenation of streams in order. The
// caller asserts the concatenation is φ-ordered (true for φ-range shards
// in catalog order).
func ChainPhiStreams(streams ...PhiStream) PhiStream {
	return &chainedPhis{streams: streams}
}

func (c *chainedPhis) NextPhis() ([]uint64, error) {
	for c.at < len(c.streams) {
		phis, err := c.streams[c.at].NextPhis()
		if err != nil {
			return nil, err
		}
		if phis != nil {
			return phis, nil
		}
		c.at++
		if c.at < len(c.streams) && c.hasHW {
			if err := c.streams[c.at].SeekPhi(c.hw); err != nil {
				return nil, err
			}
		}
	}
	return nil, nil
}

func (c *chainedPhis) SeekPhi(target uint64) error {
	if !c.hasHW || target > c.hw {
		c.hw, c.hasHW = target, true
	}
	if c.at < len(c.streams) {
		return c.streams[c.at].SeekPhi(target)
	}
	return nil
}

// phiRun is one side of a φ-space merge join: a PhiStream plus the
// in-slab cursor and a reusable group buffer (a key group can span slab
// boundaries, and slabs die at the next pull, so groups are copied out).
// Rows are k limbs wide; the join key is attribute 0, which lives in
// limb 0 with weight w0, so every comparison reads one word per row.
type phiRun struct {
	src  PhiStream
	k    int
	w0   uint64 // attribute 0's weight in limb 0: key = limb0 / w0
	u0   uint64 // attribute 0's domain size: every key is below it
	slab []uint64
	pos  int // row index into slab
	done bool
	buf  []uint64
}

func newPhiRun(src PhiStream, s *relation.Schema) *phiRun {
	l := s.Limbs()
	return &phiRun{src: src, k: l.K, w0: l.Weight[0], u0: l.Size[0]}
}

// rows returns the number of rows in the current slab.
func (r *phiRun) rows() int { return len(r.slab) / r.k }

// head returns row i's limb 0.
func (r *phiRun) head(i int) uint64 { return r.slab[i*r.k] }

// fill ensures the run is positioned on a row or done.
func (r *phiRun) fill() error {
	for !r.done && r.pos >= r.rows() {
		slab, err := r.src.NextPhis()
		if err != nil {
			return err
		}
		if slab == nil {
			r.done = true
			return nil
		}
		r.slab, r.pos = slab, 0
	}
	return nil
}

// key returns the current row's join key (the attribute-0 digit).
func (r *phiRun) key() uint64 { return r.head(r.pos) / r.w0 }

// firstAtLeast returns the first row at or after the cursor whose limb 0
// is >= target, by binary search.
func (r *phiRun) firstAtLeast(target uint64) int {
	lo, hi := r.pos, r.rows()
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if r.head(mid) < target {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// seekKey advances the run to the first row with key >= k: binary search
// within the current slab, and a fence-level stream seek once the slab is
// exhausted below the target. k comes from the other side, whose
// attribute-0 domain may be wider: a key at or past this side's domain
// ends the run (k * w0 would overflow limb 0's radix).
func (r *phiRun) seekKey(k uint64) error {
	if k >= r.u0 {
		r.slab, r.pos, r.done = nil, 0, true
		return nil
	}
	target := k * r.w0
	for {
		if err := r.fill(); err != nil || r.done {
			return err
		}
		if r.head(r.rows()-1) >= target {
			r.pos = r.firstAtLeast(target)
			return nil
		}
		// Whole remaining slab is below the key: skip ahead on fences.
		r.slab, r.pos = nil, 0
		if err := r.src.SeekPhi(target); err != nil {
			return err
		}
	}
}

// collectGroup copies every row with key k (starting at the current
// position, which must hold one) into the run's reusable buffer, crossing
// slab boundaries as needed, and leaves the run positioned after the
// group.
func (r *phiRun) collectGroup(k uint64) ([]uint64, error) {
	r.buf = r.buf[:0]
	limit := (k + 1) * r.w0 // first limb 0 past the group; ≤ limb 0's radix
	for {
		end := r.firstAtLeast(limit)
		r.buf = append(r.buf, r.slab[r.pos*r.k:end*r.k]...)
		r.pos = end
		if end < r.rows() {
			return r.buf, nil
		}
		if err := r.fill(); err != nil {
			return nil, err
		}
		if r.done || r.head(r.pos) >= limit {
			return r.buf, nil
		}
	}
}

// MergeJoinPhis advances two φ-ordered streams over schemas ls and rs in
// lockstep, comparing raw attribute-0 digits (limb 0 / w0 — one word and
// one divide per row, no tuples), and hands emitGroup each matching key
// with both sides' complete groups as stride-K φ slabs. The group slices
// are reused across calls; emitGroup must copy what it keeps, and
// returning false stops the join. The lagging side skips ahead by
// in-slab binary search and fence-level SeekPhi, so a sparse join touches
// only the blocks that can hold matching keys.
func MergeJoinPhis(left, right PhiStream, ls, rs *relation.Schema, emitGroup func(key uint64, lphis, rphis []uint64) bool) error {
	l := newPhiRun(left, ls)
	r := newPhiRun(right, rs)
	if err := l.fill(); err != nil {
		return err
	}
	if err := r.fill(); err != nil {
		return err
	}
	for !l.done && !r.done {
		lk, rk := l.key(), r.key()
		switch {
		case lk < rk:
			if err := l.seekKey(rk); err != nil {
				return err
			}
		case rk < lk:
			if err := r.seekKey(lk); err != nil {
				return err
			}
		default:
			lg, err := l.collectGroup(lk)
			if err != nil {
				return err
			}
			rg, err := r.collectGroup(lk)
			if err != nil {
				return err
			}
			if !emitGroup(lk, lg, rg) {
				return nil
			}
		}
	}
	return nil
}
