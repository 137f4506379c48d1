package core

import (
	"errors"
	"math/big"
	"math/rand"
	"testing"

	"repro/internal/gen"
	"repro/internal/ordinal"
	"repro/internal/relation"
)

// paperBlock returns the paper's 16-attribute, 38-byte relation
// (gen.Spec38Byte, four limbs) and n of its tuples in φ order.
func paperBlock(t testing.TB, n int) (*relation.Schema, []relation.Tuple) {
	t.Helper()
	s, tuples, err := gen.Spec38Byte(n, true, 5).Build()
	if err != nil {
		t.Fatal(err)
	}
	s.SortTuples(tuples)
	return s, tuples
}

// slabSchemas returns a one-limb and a multi-limb schema with a sorted
// block for each.
func slabSchemas(t testing.TB, n int) []struct {
	s     *relation.Schema
	block []relation.Tuple
} {
	rng := rand.New(rand.NewSource(5))
	flat := employeeSchema(t)
	paper, pblock := paperBlock(t, n)
	return []struct {
		s     *relation.Schema
		block []relation.Tuple
	}{{flat, randomSortedBlock(flat, rng, n)}, {paper, pblock}}
}

// limbsBig evaluates a slab row as the number in the limb radices.
func limbsBig(s *relation.Schema, row []uint64) *big.Int {
	l := s.Limbs()
	v := new(big.Int)
	var tmp big.Int
	for j := 0; j < l.K; j++ {
		v.Mul(v, tmp.SetUint64(l.Radix[j]))
		v.Add(v, tmp.SetUint64(row[j]))
	}
	return v
}

// TestDecodeBlockPhisMatchesTupleDecode pins the slab kernel to the
// definitionally correct answer on random schemas — one-limb and
// multi-limb — and blocks, for every codec: each slab row must be the
// limb form of the tuple decode's row, and equal the big.Int φ.
func TestDecodeBlockPhisMatchesTupleDecode(t *testing.T) {
	rng := rand.New(rand.NewSource(1023))
	for iter := 0; iter < 60; iter++ {
		s := randomSchema(rng)
		k := s.Limbs().K
		block := randomSortedBlock(s, rng, 1+rng.Intn(150))
		for _, c := range allCodecs() {
			enc, err := EncodeBlock(c, s, block, nil)
			if err != nil {
				t.Fatalf("%v: encode: %v", c, err)
			}
			ref, err := DecodeBlock(s, enc)
			if err != nil {
				t.Fatalf("%v: decode: %v", c, err)
			}
			phis, err := DecodeBlockPhis(s, enc, NewArena())
			if err != nil {
				t.Fatalf("%v: DecodeBlockPhis: %v", c, err)
			}
			if len(phis) != len(ref)*k {
				t.Fatalf("%v: slab has %d words, block has %d tuples of %d limbs", c, len(phis), len(ref), k)
			}
			want := make([]uint64, k)
			for i, tu := range ref {
				row := phis[i*k : (i+1)*k]
				if ordinal.CompareLimbs(row, ordinal.PhiLimbs(s, want, tu)) != 0 {
					t.Fatalf("%v: row %d = %v, want %v", c, i, row, want)
				}
				if limbsBig(s, row).Cmp(ordinal.Phi(s, tu)) != 0 {
					t.Fatalf("%v: row %d = %v disagrees with big.Int reference", c, i, row)
				}
			}
		}
	}
}

// TestDecodeBlockPhisDigitsRoundTrip: a DigitExtractor on the limb
// holding each attribute must recover every attribute of every row
// without φ⁻¹, on a one-limb and a four-limb schema.
func TestDecodeBlockPhisDigitsRoundTrip(t *testing.T) {
	for _, sb := range slabSchemas(t, 120) {
		s, block := sb.s, sb.block
		l := s.Limbs()
		enc, err := EncodeBlock(CodecAVQ, s, block, nil)
		if err != nil {
			t.Fatal(err)
		}
		phis, err := DecodeBlockPhis(s, enc, NewArena())
		if err != nil {
			t.Fatal(err)
		}
		for i := range block {
			row := phis[i*l.K : (i+1)*l.K]
			for g := 0; g < s.NumAttrs(); g++ {
				d := NewDigitExtractor(s, g)
				if got := d.Digit(row[d.Limb]); got != block[i][g] {
					t.Fatalf("%v row %d attr %d: digit = %d, want %d", s, i, g, got, block[i][g])
				}
			}
			if got := row[0] / l.Weight[0]; got != block[i][0] {
				t.Fatalf("%v row %d: prefix digit limb0/w0 = %d, want %d", s, i, got, block[i][0])
			}
		}
	}
}

// TestDecodeBlockPhisZeroAlloc holds the slab kernel to the same
// steady-state guarantee as the tuple decode kernels: a Reset arena makes
// repeated slab decodes allocation-free for every codec, on a one-limb
// and a four-limb schema.
func TestDecodeBlockPhisZeroAlloc(t *testing.T) {
	for _, sb := range slabSchemas(t, 200) {
		for _, c := range allCodecs() {
			enc, err := EncodeBlock(c, sb.s, sb.block, nil)
			if err != nil {
				t.Fatalf("%v: encode: %v", c, err)
			}
			a := NewArena()
			allocs := testing.AllocsPerRun(100, func() {
				a.Reset()
				if _, err := DecodeBlockPhis(sb.s, enc, a); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Errorf("%v %v: DecodeBlockPhis allocates %.1f objects/op steady-state, want 0", sb.s.Limbs().K, c, allocs)
			}
		}
	}
}

// TestDecodeBlockPhisRejectsCorruption: flipped payload bytes must
// surface as decode errors (checksum or chain validation), never as a
// silently wrong slab, and a truncated stream must fail cleanly.
func TestDecodeBlockPhisRejectsCorruption(t *testing.T) {
	for _, sb := range slabSchemas(t, 60) {
		for _, c := range allCodecs() {
			enc, err := EncodeBlock(c, sb.s, sb.block, nil)
			if err != nil {
				t.Fatalf("%v: encode: %v", c, err)
			}
			bad := append([]byte(nil), enc...)
			bad[len(bad)/2] ^= 0x41
			if _, err := DecodeBlockPhis(sb.s, bad, NewArena()); err == nil {
				t.Errorf("%v: corrupted stream decoded without error", c)
			}
			if _, err := DecodeBlockPhis(sb.s, enc[:len(enc)-3], NewArena()); err == nil {
				t.Errorf("%v: truncated stream decoded without error", c)
			}
		}
	}
}

// TestDecodeBlockPhisNonFlatSchema: a schema space beyond 64 bits
// decodes to multi-limb rows, one limb per 40-bit attribute here.
func TestDecodeBlockPhisNonFlatSchema(t *testing.T) {
	s := relation.MustSchema(
		relation.Domain{Name: "a", Size: 1 << 40},
		relation.Domain{Name: "b", Size: 1 << 40},
	)
	if k := s.Limbs().K; k != 2 {
		t.Fatalf("2^80 space has %d limbs, want 2", k)
	}
	block := []relation.Tuple{{1, 2}, {1, 1<<40 - 1}, {2, 0}, {1<<40 - 1, 7}}
	for _, c := range allCodecs() {
		enc, err := EncodeBlock(c, s, block, nil)
		if err != nil {
			t.Fatal(err)
		}
		phis, err := DecodeBlockPhis(s, enc, NewArena())
		if err != nil {
			t.Fatalf("%v: %v", c, err)
		}
		for i, tu := range block {
			if phis[2*i] != tu[0] || phis[2*i+1] != tu[1] {
				t.Fatalf("%v: row %d = %v, want %v", c, i, phis[2*i:2*i+2], tu)
			}
		}
	}
}

// TestDecodeBlockPhisEmptyBlock round-trips a zero-tuple block.
func TestDecodeBlockPhisEmptyBlock(t *testing.T) {
	for _, sb := range slabSchemas(t, 1) {
		for _, c := range allCodecs() {
			enc, err := EncodeBlock(c, sb.s, nil, nil)
			if err != nil {
				// Some codecs may refuse empty blocks; that is fine here.
				continue
			}
			phis, err := DecodeBlockPhis(sb.s, enc, NewArena())
			if err != nil {
				if errors.Is(err, ErrCorrupt) {
					continue
				}
				t.Fatalf("%v: %v", c, err)
			}
			if len(phis) != 0 {
				t.Fatalf("%v: empty block produced %d φ entries", c, len(phis))
			}
		}
	}
}

// TestPhiSpanSorted pins the slab clip against a linear scan of the same
// slab's limb 0, on one-limb and multi-limb schemas.
func TestPhiSpanSorted(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for iter := 0; iter < 60; iter++ {
		s := randomSchema(rng)
		l := s.Limbs()
		block := randomSortedBlock(s, rng, 1+rng.Intn(100))
		enc, err := EncodeBlock(CodecAVQ, s, block, nil)
		if err != nil {
			t.Fatal(err)
		}
		phis, err := DecodeBlockPhis(s, enc, NewArena())
		if err != nil {
			t.Fatal(err)
		}
		lo := rng.Uint64() % l.Radix[0]
		hi := lo + rng.Uint64()%(l.Radix[0]-lo)
		wantFrom, wantTo := len(block), len(block)
		for i := len(block) - 1; i >= 0; i-- {
			if phis[i*l.K] > hi {
				wantTo = i
			}
			if phis[i*l.K] >= lo {
				wantFrom = i
			}
		}
		if wantFrom > wantTo {
			wantFrom = wantTo
		}
		from, to := SlabSpan(phis, l.K, lo, hi)
		if from != wantFrom || to != wantTo {
			t.Fatalf("SlabSpan(%d, %d) = [%d, %d), linear scan [%d, %d)", lo, hi, from, to, wantFrom, wantTo)
		}
	}
}

// PhiDigit is the reference digit extraction: attribute digit g of the
// limb holding it is (limb / w_g) mod u_g.
func PhiDigit(limb, weight, radix uint64) uint64 { return limb / weight % radix }

// TestPhiSpanMatchesLinearScan checks the slab clip of a clustering
// predicate against the definitionally correct answer on every codec:
// decode the block to tuples and scan for the run with lo <= A_0 <= hi.
// The predicate becomes the limb-0 interval [lo·w0, hi·w0 + w0 − 1].
func TestPhiSpanMatchesLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for iter := 0; iter < 60; iter++ {
		s := randomSchema(rng)
		l := s.Limbs()
		block := randomSortedBlock(s, rng, 1+rng.Intn(120))
		for _, c := range allCodecs() {
			enc, err := EncodeBlock(c, s, block, nil)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := DecodeBlock(s, enc)
			if err != nil {
				t.Fatal(err)
			}
			phis, err := DecodeBlockPhis(s, enc, NewArena())
			if err != nil {
				t.Fatal(err)
			}
			lo := ref[rng.Intn(len(ref))][0]
			hi := lo + uint64(rng.Intn(3))
			hi = min(hi, l.Size[0]-1)
			wantFrom, wantTo := len(ref), len(ref)
			for i := len(ref) - 1; i >= 0; i-- {
				if ref[i][0] > hi {
					wantTo = i
				}
				if ref[i][0] >= lo {
					wantFrom = i
				}
			}
			w0 := l.Weight[0]
			from, to := SlabSpan(phis, l.K, lo*w0, hi*w0+w0-1)
			if from != wantFrom || to != wantTo {
				t.Fatalf("%v %v: span of %d<=A0<=%d = [%d, %d), linear scan [%d, %d)", s, c, lo, hi, from, to, wantFrom, wantTo)
			}
		}
	}
}

// TestDigitExtractorMatchesPhiDigit pins the strength-reduced extractor
// to PhiDigit on random schemas, mixing powers of two (shift+mask path)
// with arbitrary radices (divide path).
func TestDigitExtractorMatchesPhiDigit(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 300; trial++ {
		doms := make([]relation.Domain, 1+rng.Intn(10))
		for i := range doms {
			size := uint64(rng.Int63n(4096) + 1)
			if trial%2 == 0 {
				size = uint64(1) << rng.Intn(20)
			}
			doms[i] = relation.Domain{Name: string(rune('a' + i)), Size: size}
		}
		s := relation.MustSchema(doms...)
		l := s.Limbs()
		row := make([]uint64, l.K)
		for j := range row {
			row[j] = rng.Uint64() % l.Radix[j]
		}
		tu, err := ordinal.PhiInverseLimbs(s, make(relation.Tuple, s.NumAttrs()), row)
		if err != nil {
			t.Fatal(err)
		}
		for g := range doms {
			d := NewDigitExtractor(s, g)
			want := PhiDigit(row[l.Limb[g]], l.Weight[g], l.Size[g])
			if got := d.Digit(row[d.Limb]); got != want || got != tu[g] {
				t.Fatalf("%v attr %d: Digit = %d, PhiDigit = %d, tuple %d", s, g, got, want, tu[g])
			}
		}
	}
}

// TestLimbArithmeticMatchesBigInt pins addLimbs and subLimbs to big.Int
// arithmetic at the limb boundaries: on a space of exactly 2^64 (two
// 32-bit limbs, so every carry crosses a limb) and on the paper's
// four-limb relation, sums that leave the space and differences that go
// negative must be refused, and every other result must be exact.
func TestLimbArithmeticMatchesBigInt(t *testing.T) {
	exact := relation.MustSchema(
		relation.Domain{Name: "a", Size: 1 << 32},
		relation.Domain{Name: "b", Size: 1 << 32},
	)
	paper, _ := paperBlock(t, 1)
	rng := rand.New(rand.NewSource(64))
	for _, s := range []*relation.Schema{exact, paper} {
		l := s.Limbs()
		space := s.SpaceSize()
		draw := func() []uint64 {
			row := make([]uint64, l.K)
			for j := range row {
				switch rng.Intn(3) {
				case 0:
					row[j] = l.Radix[j] - 1
				case 1:
					row[j] = 0
				default:
					row[j] = rng.Uint64() % l.Radix[j]
				}
			}
			return row
		}
		for trial := 0; trial < 3000; trial++ {
			a, d := draw(), draw()
			ab, db := limbsBig(s, a), limbsBig(s, d)
			sum := make([]uint64, l.K)
			ok := addLimbs(l.Radix, sum, a, d)
			want := new(big.Int).Add(ab, db)
			if fits := want.Cmp(space) < 0; ok != fits {
				t.Fatalf("%v: addLimbs(%v, %v) ok = %v, sum fits = %v", s, a, d, ok, fits)
			}
			if ok && limbsBig(s, sum).Cmp(want) != 0 {
				t.Fatalf("%v: addLimbs(%v, %v) = %v, want %s", s, a, d, sum, want)
			}
			diff := make([]uint64, l.K)
			ok = subLimbs(l.Radix, diff, a, d)
			want.Sub(ab, db)
			if ok != (want.Sign() >= 0) {
				t.Fatalf("%v: subLimbs(%v, %v) ok = %v, difference %s", s, a, d, ok, want)
			}
			if ok && limbsBig(s, diff).Cmp(want) != 0 {
				t.Fatalf("%v: subLimbs(%v, %v) = %v, want %s", s, a, d, diff, want)
			}
		}
	}
}
