package core

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/ordinal"
	"repro/internal/relation"
)

// FuzzDecodeBlock drives the decoders with arbitrary bytes, reading each
// input under a one-limb schema and a two-limb one. Properties: no
// panics; the limb slab decode (the executor's kernel) and the tuple
// decode (maintenance's) accept or reject together, and when they accept
// every slab row is the limb form of the matching tuple; anything that
// decodes re-encodes to a stream that decodes to the same tuples (decode
// is a retraction of encode).
func FuzzDecodeBlock(f *testing.F) {
	schemas := []*relation.Schema{
		relation.MustSchema(
			relation.Domain{Name: "a", Size: 8},
			relation.Domain{Name: "b", Size: 300},
			relation.Domain{Name: "c", Size: 64},
		),
		relation.MustSchema(
			relation.Domain{Name: "a", Size: 8},
			relation.Domain{Name: "b", Size: 1 << 62},
			relation.Domain{Name: "c", Size: 300},
		),
	}
	rng := rand.New(rand.NewSource(1))
	for _, s := range schemas {
		for _, c := range allCodecs() {
			block := randomSortedBlock(s, rng, 20)
			enc, err := EncodeBlock(c, s, block, nil)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(enc)
		}
	}
	f.Add([]byte{})
	f.Add([]byte{0xA7, 0x01, 0x00})

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, s := range schemas {
			fuzzDecodeBlock(t, s, data)
		}
	})
}

func fuzzDecodeBlock(t *testing.T, s *relation.Schema, data []byte) {
	a := GetArena()
	defer PutArena(a)
	k := s.Limbs().K
	phis, slabErr := DecodeBlockPhis(s, data, a)
	tuples, err := DecodeBlock(s, data)
	if (err == nil) != (slabErr == nil) {
		t.Fatalf("%v: tuple decode err = %v, slab decode err = %v", s, err, slabErr)
	}
	if err != nil {
		return
	}
	if len(phis) != len(tuples)*k {
		t.Fatalf("%v: slab has %d words for %d tuples of %d limbs", s, len(phis), len(tuples), k)
	}
	want := make([]uint64, k)
	for i, tu := range tuples {
		if err := s.ValidateTuple(tu); err != nil {
			t.Fatalf("decode produced invalid tuple %v: %v", tu, err)
		}
		if ordinal.CompareLimbs(phis[i*k:(i+1)*k], ordinal.PhiLimbs(s, want, tu)) != 0 {
			t.Fatalf("%v: slab row %d = %v, tuple %v has limbs %v", s, i, phis[i*k:(i+1)*k], tu, want)
		}
	}
	// Partial decode must agree wherever the full decode succeeded.
	for idx := range tuples {
		got, err := DecodeTupleAt(s, data, idx)
		if err != nil {
			t.Fatalf("full decode succeeded but partial at %d failed: %v", idx, err)
		}
		if s.Compare(got, tuples[idx]) != 0 {
			t.Fatalf("partial decode at %d disagrees", idx)
		}
	}
	// The arena kernel must be element-equal to the allocating path.
	a.Reset()
	av, err := DecodeBlockArena(s, data, a)
	if err != nil {
		t.Fatalf("allocating decode succeeded but arena decode failed: %v", err)
	}
	if len(av) != len(tuples) {
		t.Fatalf("arena decode count %d != %d", len(av), len(tuples))
	}
	for i := range av {
		if s.Compare(av[i], tuples[i]) != 0 {
			t.Fatalf("arena decode tuple %d disagrees", i)
		}
	}
	// Re-encode and compare: every accepted block is in φ order.
	if !s.TuplesSorted(tuples) {
		t.Fatalf("%v: decode accepted an unsorted block", s)
	}
	info, err := Inspect(data)
	if err != nil {
		t.Fatalf("decoded but Inspect failed: %v", err)
	}
	enc, err := EncodeBlock(info.Codec, s, tuples, nil)
	if err != nil {
		t.Fatalf("re-encode failed: %v", err)
	}
	back, err := DecodeBlock(s, enc)
	if err != nil {
		t.Fatalf("re-encoded stream does not decode: %v", err)
	}
	if len(back) != len(tuples) {
		t.Fatalf("round trip changed tuple count %d -> %d", len(tuples), len(back))
	}
	for i := range back {
		if s.Compare(back[i], tuples[i]) != 0 {
			t.Fatalf("round trip changed tuple %d", i)
		}
	}
}

// FuzzEncodeArbitraryTuples feeds arbitrary digit material through the
// sort-encode-decode pipeline.
func FuzzEncodeArbitraryTuples(f *testing.F) {
	s := relation.MustSchema(
		relation.Domain{Name: "a", Size: 16},
		relation.Domain{Name: "b", Size: 1000},
	)
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add(bytes.Repeat([]byte{0}, 32))
	f.Fuzz(func(t *testing.T, data []byte) {
		var tuples []relation.Tuple
		for i := 0; i+3 <= len(data) && len(tuples) < 64; i += 3 {
			tuples = append(tuples, relation.Tuple{
				uint64(data[i]) % 16,
				(uint64(data[i+1])<<8 | uint64(data[i+2])) % 1000,
			})
		}
		s.SortTuples(tuples)
		for _, c := range allCodecs() {
			enc, err := EncodeBlock(c, s, tuples, nil)
			if err != nil {
				t.Fatalf("%v: encode: %v", c, err)
			}
			got, err := DecodeBlock(s, enc)
			if err != nil {
				t.Fatalf("%v: decode: %v", c, err)
			}
			if len(got) != len(tuples) {
				t.Fatalf("%v: count changed", c)
			}
			for i := range got {
				if s.Compare(got[i], tuples[i]) != 0 {
					t.Fatalf("%v: tuple %d changed", c, i)
				}
			}
		}
	})
}
