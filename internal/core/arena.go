package core

import (
	"sync"

	"repro/internal/relation"
)

// Arena is a bump allocator for decode output: one backing slab of uint64
// digits, one slab of tuple headers, and one byte scratch buffer. A block
// decode that used to make one heap allocation per tuple carves everything
// out of the arena instead, so a steady-state decode (arena pooled and
// Reset between blocks) performs zero heap allocations.
//
// Ownership and aliasing rules (see DESIGN.md §11):
//
//   - Tuples returned by arena-backed decoders alias the arena's slab. They
//     are valid until the arena is Reset or returned to the pool; a caller
//     that retains a tuple past that point must Clone() it first.
//   - Tuples carved by one decode never overlap each other (each header is
//     a full-slice expression over a disjoint slab range), so mutating one
//     cannot clobber a neighbour, and append on one cannot grow into the
//     next.
//   - An Arena is not safe for concurrent use; pool it per goroutine.
//
// The zero value is ready to use.
type Arena struct {
	vals    []uint64
	hdrs    []relation.Tuple
	scratch []byte
	resets  uint64
}

// NewArena returns an empty arena.
func NewArena() *Arena { return &Arena{} }

// Reset truncates the arena so its slabs can be reused. Every tuple
// previously carved from the arena becomes invalid: its digits will be
// overwritten by the next decode. Reset keeps slab capacity, which is what
// makes steady-state decode allocation-free.
func (a *Arena) Reset() {
	a.vals = a.vals[:0]
	a.hdrs = a.hdrs[:0]
	a.resets++
}

// Reuses reports how many times the arena has been Reset — the number of
// decodes that reused its slabs instead of allocating.
func (a *Arena) Reuses() uint64 { return a.resets }

// SlabBytes reports the arena's resident slab capacity in bytes.
func (a *Arena) SlabBytes() int {
	const hdrSize = 24 // slice header: pointer + len + cap
	return cap(a.vals)*8 + cap(a.hdrs)*hdrSize + cap(a.scratch)
}

// grow replaces the value slab with one of at least need free capacity.
// The old slab is abandoned, not copied: tuples already carved keep
// referencing it (the GC keeps it alive), and the arena converges on a
// right-sized slab after a few blocks.
func (a *Arena) grow(need int) {
	c := 2 * cap(a.vals)
	if c < need {
		c = need
	}
	if c < 256 {
		c = 256
	}
	a.vals = make([]uint64, 0, c)
}

// Tuple carves one n-digit tuple from the arena. The digits are NOT
// zeroed; callers must write every digit (all decode kernels do).
func (a *Arena) Tuple(n int) relation.Tuple {
	if len(a.vals)+n > cap(a.vals) {
		a.grow(n)
	}
	at := len(a.vals)
	a.vals = a.vals[:at+n]
	return relation.Tuple(a.vals[at : at+n : at+n])
}

// Phis carves an n-word φ slab from the arena — the executor's per-block
// limb rows. Like Tuple it is a full-slice expression over a disjoint
// slab range, not zeroed, and valid until the next Reset.
func (a *Arena) Phis(n int) []uint64 { return []uint64(a.Tuple(n)) }

// Tuples carves count tuples of n digits each, backed by one contiguous
// slab range, and returns their headers. Each header is a full-slice
// expression over its own disjoint range, so appending to one returned
// tuple can never overwrite another. Digits are not zeroed.
func (a *Arena) Tuples(count, n int) []relation.Tuple {
	if len(a.vals)+count*n > cap(a.vals) {
		a.grow(count * n)
	}
	at := len(a.vals)
	a.vals = a.vals[:at+count*n]
	if len(a.hdrs)+count > cap(a.hdrs) {
		c := 2 * cap(a.hdrs)
		if c < len(a.hdrs)+count {
			c = len(a.hdrs) + count
		}
		grown := make([]relation.Tuple, len(a.hdrs), c)
		copy(grown, a.hdrs)
		a.hdrs = grown
	}
	h := len(a.hdrs)
	a.hdrs = a.hdrs[:h+count]
	out := a.hdrs[h : h+count : h+count]
	for i := 0; i < count; i++ {
		lo, hi := at+i*n, at+(i+1)*n
		out[i] = relation.Tuple(a.vals[lo:hi:hi])
	}
	return out
}

// Scratch returns an m-byte scratch buffer owned by the arena. Successive
// calls return the same buffer; it is for transient per-diff byte staging,
// not for carving.
func (a *Arena) Scratch(m int) []byte {
	if cap(a.scratch) < m {
		a.scratch = make([]byte, m)
	}
	return a.scratch[:m]
}

// arenaPool recycles arenas across transient decode passes.
var arenaPool = sync.Pool{New: func() any { return &Arena{} }}

// GetArena returns a pooled arena, already Reset. Pair with PutArena.
func GetArena() *Arena { return arenaPool.Get().(*Arena) }

// PutArena resets a and returns it to the pool. The caller must guarantee
// no tuple carved from a is still referenced: the next GetArena caller
// will overwrite the slab.
func PutArena(a *Arena) {
	a.Reset()
	arenaPool.Put(a)
}
