package blockstore

import (
	"context"
	"testing"

	"repro/internal/core"
)

// TestReadBlockArenaMatchesReadBlock checks the arena read path against
// the allocating one, with and without the decoded-block cache (hits come
// back as slab copies; both must be element-equal to a fresh decode).
func TestReadBlockArenaMatchesReadBlock(t *testing.T) {
	for _, cached := range []bool{false, true} {
		s := newStore(t, core.CodecAVQ, 512)
		if cached {
			s.Configure(Config{CacheBlocks: 8})
		}
		tuples := randomTuples(t, 600, 42)
		refs, err := s.BulkLoadContext(context.Background(), tuples)
		if err != nil {
			t.Fatal(err)
		}
		a := core.NewArena()
		for pass := 0; pass < 2; pass++ { // second pass exercises cache hits
			for _, ref := range refs {
				want, err := s.ReadBlock(ref.Page)
				if err != nil {
					t.Fatal(err)
				}
				a.Reset()
				got, err := s.ReadBlockArena(ref.Page, a)
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != len(want) {
					t.Fatalf("cached=%v pass %d: %d tuples, want %d", cached, pass, len(got), len(want))
				}
				for i := range want {
					if s.schema.Compare(got[i], want[i]) != 0 {
						t.Fatalf("cached=%v pass %d block %d tuple %d: %v != %v",
							cached, pass, ref.Page, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestCacheHitSlabIsolation checks that scribbling on tuples returned from
// a cache hit cannot poison later reads: entries are copied out, never
// aliased.
func TestCacheHitSlabIsolation(t *testing.T) {
	s := newStore(t, core.CodecAVQ, 512)
	s.Configure(Config{CacheBlocks: 8})
	tuples := randomTuples(t, 200, 43)
	refs, err := s.BulkLoadContext(context.Background(), tuples)
	if err != nil {
		t.Fatal(err)
	}
	id := refs[0].Page
	first, err := s.ReadBlock(id) // miss: fills the cache
	if err != nil {
		t.Fatal(err)
	}
	clean := make([][]uint64, len(first))
	for i, tu := range first {
		clean[i] = append([]uint64(nil), tu...)
	}
	hit, err := s.ReadBlock(id) // hit: slab copy
	if err != nil {
		t.Fatal(err)
	}
	for _, tu := range hit {
		for j := range tu {
			tu[j] = ^uint64(0)
		}
	}
	again, err := s.ReadBlock(id)
	if err != nil {
		t.Fatal(err)
	}
	for i, tu := range again {
		for j, v := range tu {
			if v != clean[i][j] {
				t.Fatalf("cache entry poisoned at tuple %d digit %d: %d", i, j, v)
			}
		}
	}
}

// TestEncodeBufferReuse pins the serial append path's encode-buffer
// behaviour: after the first block sizes the buffer, appending further
// blocks of the same shape must not grow it again.
func TestEncodeBufferReuse(t *testing.T) {
	s := newStore(t, core.CodecAVQ, 512)
	tuples := randomTuples(t, 400, 44)
	refs, err := s.BulkLoadContext(context.Background(), tuples)
	if err != nil {
		t.Fatal(err)
	}
	if cap(s.encBuf) == 0 {
		t.Fatal("serial bulk load left no encode buffer behind")
	}
	// Mutations re-encode blocks through the same buffer; after a warm-up
	// mutation sizes it, further mutations must reuse the capacity.
	if _, err := s.InsertIntoBlock(refs[0].Page, refs[0].First.Clone()); err != nil {
		t.Fatal(err)
	}
	steady := cap(s.encBuf)
	for i := 1; i < 32; i++ {
		ref := refs[i%len(refs)]
		if _, err := s.InsertIntoBlock(ref.Page, ref.First.Clone()); err != nil {
			t.Fatal(err)
		}
	}
	if cap(s.encBuf) != steady {
		t.Fatalf("encode buffer kept growing across mutations: %d -> %d", steady, cap(s.encBuf))
	}
}

// TestEncodeChunksExactCapacity checks the parallel path: chunk streams
// are preallocated from the Sizer's exact accounting, so the encoder never
// reallocates and len == cap on every stream.
func TestEncodeChunksExactCapacity(t *testing.T) {
	for _, codec := range []core.Codec{core.CodecRaw, core.CodecAVQ, core.CodecDeltaChain, core.CodecPacked} {
		s := newStore(t, codec, 512)
		s.Configure(Config{Concurrency: 4})
		tuples := randomTuples(t, 800, 45)
		z, ok := core.NewSizer(codec, s.schema)
		if !ok {
			t.Fatalf("%v: no sizer", codec)
		}
		costs, err := s.pairCosts(tuples)
		if err != nil {
			t.Fatal(err)
		}
		chunks, sizes, err := s.chunkGreedy(z, tuples, costs)
		if err != nil {
			t.Fatal(err)
		}
		streams, err := s.encodeChunks(chunks, sizes)
		if err != nil {
			t.Fatal(err)
		}
		for i, stream := range streams {
			if len(stream) != sizes[i] {
				t.Errorf("%v chunk %d: stream %d bytes, sizer predicted %d", codec, i, len(stream), sizes[i])
			}
			if cap(stream) != len(stream) {
				t.Errorf("%v chunk %d: stream reallocated (len %d, cap %d)", codec, i, len(stream), cap(stream))
			}
		}
	}
}
