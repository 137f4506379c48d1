package core

import (
	"math/rand"
	"sync"
	"testing"
)

func TestArenaTuplesDisjoint(t *testing.T) {
	a := NewArena()
	ts := a.Tuples(4, 3)
	if len(ts) != 4 {
		t.Fatalf("Tuples(4, 3) returned %d headers", len(ts))
	}
	for i, tu := range ts {
		if len(tu) != 3 {
			t.Fatalf("tuple %d has arity %d", i, len(tu))
		}
		for j := range tu {
			tu[j] = uint64(i*10 + j)
		}
	}
	extra := a.Tuple(3)
	for j := range extra {
		extra[j] = 999
	}
	for i, tu := range ts {
		for j, v := range tu {
			if v != uint64(i*10+j) {
				t.Fatalf("tuple %d digit %d clobbered: got %d", i, j, v)
			}
		}
	}
}

// TestArenaAppendCannotClobber checks the full-slice carving: growing a
// carved tuple with append must reallocate, never scribble on the
// neighbouring carve.
func TestArenaAppendCannotClobber(t *testing.T) {
	a := NewArena()
	first := a.Tuple(2)
	second := a.Tuple(2)
	first[0], first[1] = 1, 2
	second[0], second[1] = 3, 4
	grown := append(first, 77)
	_ = grown
	if second[0] != 3 || second[1] != 4 {
		t.Fatalf("append on a carved tuple clobbered its neighbour: %v", second)
	}
}

func TestArenaResetReuse(t *testing.T) {
	a := NewArena()
	a.Tuples(64, 5)
	a.Scratch(128)
	bytesBefore := a.SlabBytes()
	if bytesBefore == 0 {
		t.Fatal("expected slab capacity after carving")
	}
	r0 := a.Reuses()
	a.Reset()
	if a.Reuses() != r0+1 {
		t.Fatalf("Reuses() = %d, want %d", a.Reuses(), r0+1)
	}
	a.Tuples(64, 5)
	a.Scratch(128)
	if a.SlabBytes() != bytesBefore {
		t.Fatalf("slab grew across Reset with identical demand: %d -> %d", bytesBefore, a.SlabBytes())
	}
}

func TestArenaPoolStress(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 200; i++ {
				a := GetArena()
				ts := a.Tuples(1+rng.Intn(32), 1+rng.Intn(8))
				for _, tu := range ts {
					for j := range tu {
						tu[j] = uint64(seed)
					}
				}
				for _, tu := range ts {
					for j := range tu {
						if tu[j] != uint64(seed) {
							t.Errorf("cross-goroutine clobber: got %d want %d", tu[j], seed)
							return
						}
						_ = j
					}
				}
				PutArena(a)
			}
		}(int64(g))
	}
	wg.Wait()
}

// TestDecodeBlockArenaMatchesAllocating is the arena/allocating
// differential: for every codec, both full-block decode paths must produce
// element-equal tuples, as must tuple-at decodes.
func TestDecodeBlockArenaMatchesAllocating(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 40; iter++ {
		s := randomSchema(rng)
		block := randomSortedBlock(s, rng, 1+rng.Intn(100))
		for _, c := range allCodecs() {
			enc, err := EncodeBlock(c, s, block, nil)
			if err != nil {
				t.Fatalf("%v: encode: %v", c, err)
			}
			ref, err := DecodeBlock(s, enc)
			if err != nil {
				t.Fatalf("%v: decode: %v", c, err)
			}
			a := GetArena()
			got, err := DecodeBlockArena(s, enc, a)
			if err != nil {
				t.Fatalf("%v: arena decode: %v", c, err)
			}
			if len(got) != len(ref) {
				t.Fatalf("%v: arena decoded %d tuples, want %d", c, len(got), len(ref))
			}
			for i := range ref {
				if s.Compare(got[i], ref[i]) != 0 {
					t.Fatalf("%v: tuple %d: arena %v, allocating %v", c, i, got[i], ref[i])
				}
			}
			// Point decode.
			idx := rng.Intn(len(block))
			tu, err := DecodeTupleAt(s, enc, idx)
			if err != nil {
				t.Fatalf("%v: at %d: %v", c, idx, err)
			}
			if s.Compare(tu, ref[idx]) != 0 {
				t.Fatalf("%v: tuple at %d mismatch", c, idx)
			}
			PutArena(a)
		}
	}
}

// TestDecodeBlockArenaZeroAllocs pins the steady-state allocation count of
// the arena decode kernels at zero for every codec: after one warm-up
// decode sizes the slabs, Reset + decode must not touch the heap.
func TestDecodeBlockArenaZeroAllocs(t *testing.T) {
	s := employeeSchema(t)
	rng := rand.New(rand.NewSource(11))
	block := randomSortedBlock(s, rng, 64)
	for _, c := range allCodecs() {
		enc, err := EncodeBlock(c, s, block, nil)
		if err != nil {
			t.Fatalf("%v: encode: %v", c, err)
		}
		a := NewArena()
		if _, err := DecodeBlockArena(s, enc, a); err != nil {
			t.Fatalf("%v: warm-up decode: %v", c, err)
		}
		allocs := testing.AllocsPerRun(100, func() {
			a.Reset()
			if _, err := DecodeBlockArena(s, enc, a); err != nil {
				t.Fatalf("%v: decode: %v", c, err)
			}
		})
		if allocs != 0 {
			t.Errorf("%v: steady-state DecodeBlockArena allocates %.1f objects/op, want 0", c, allocs)
		}
	}
}

func BenchmarkDecodeBlockArena(b *testing.B) {
	s := employeeSchema(b)
	rng := rand.New(rand.NewSource(13))
	block := randomSortedBlock(s, rng, 256)
	for _, c := range allCodecs() {
		enc, err := EncodeBlock(c, s, block, nil)
		if err != nil {
			b.Fatalf("%v: encode: %v", c, err)
		}
		b.Run(c.String(), func(b *testing.B) {
			b.ReportAllocs()
			a := NewArena()
			for i := 0; i < b.N; i++ {
				a.Reset()
				if _, err := DecodeBlockArena(s, enc, a); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkDecodeBlockAllocating(b *testing.B) {
	s := employeeSchema(b)
	rng := rand.New(rand.NewSource(13))
	block := randomSortedBlock(s, rng, 256)
	for _, c := range allCodecs() {
		enc, err := EncodeBlock(c, s, block, nil)
		if err != nil {
			b.Fatalf("%v: encode: %v", c, err)
		}
		b.Run(c.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := DecodeBlock(s, enc); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
