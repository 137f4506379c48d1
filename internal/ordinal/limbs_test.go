package ordinal

import (
	"math/big"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/gen"
	"repro/internal/relation"
)

// limbsToBig evaluates a limb-form phi as the K-digit number in the limb
// radices it is defined to be.
func limbsToBig(s *relation.Schema, phi []uint64) *big.Int {
	l := s.Limbs()
	v := new(big.Int)
	var tmp big.Int
	for j := 0; j < l.K; j++ {
		v.Mul(v, tmp.SetUint64(l.Radix[j]))
		v.Add(v, tmp.SetUint64(phi[j]))
	}
	return v
}

// randomSchema draws 1..16 attributes; wide draws push the space far past
// 64 bits so most schemas take several limbs.
func randomSchema(rng *rand.Rand) *relation.Schema {
	n := 1 + rng.Intn(16)
	doms := make([]relation.Domain, n)
	for i := range doms {
		size := uint64(2 + rng.Intn(500))
		if rng.Intn(3) == 0 {
			size = 1 + uint64(rng.Int63())>>uint(rng.Intn(63))
		}
		doms[i] = relation.Domain{Name: string(rune('a' + i)), Size: size}
	}
	return relation.MustSchema(doms...)
}

// TestPhiLimbsMatchesBigInt cross-checks the limb form against the
// big.Int reference on random tuples of random schemas, one-limb and
// multi-limb, in both directions.
func TestPhiLimbsMatchesBigInt(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for iter := 0; iter < 400; iter++ {
		s := randomSchema(rng)
		l := s.Limbs()
		tu := make(relation.Tuple, s.NumAttrs())
		for i := range tu {
			tu[i] = uint64(rng.Int63()) % s.Domain(i).Size
		}
		got := PhiLimbs(s, make([]uint64, l.K), tu)
		want := Phi(s, tu)
		if limbsToBig(s, got).Cmp(want) != 0 {
			t.Fatalf("%v: PhiLimbs(%v) = %v, Phi = %s", s, tu, got, want)
		}
		for j, v := range got {
			if v >= l.Radix[j] {
				t.Fatalf("%v: limb %d = %d outside radix %d", s, j, v, l.Radix[j])
			}
		}
		if PhiLimb0(s, tu) != got[0] {
			t.Fatalf("%v: PhiLimb0 = %d, limb 0 = %d", s, PhiLimb0(s, tu), got[0])
		}
		back, err := PhiInverseLimbs(s, make(relation.Tuple, s.NumAttrs()), got)
		if err != nil {
			t.Fatalf("PhiInverseLimbs(%v): %v", got, err)
		}
		ref, err := PhiInverse(s, want)
		if err != nil {
			t.Fatal(err)
		}
		if s.Compare(back, tu) != 0 || s.Compare(back, ref) != 0 {
			t.Fatalf("%v: inverse %v, tuple %v, reference %v", s, back, tu, ref)
		}
		// Limb order is phi order.
		other := make(relation.Tuple, s.NumAttrs())
		for i := range other {
			other[i] = uint64(rng.Int63()) % s.Domain(i).Size
		}
		og := PhiLimbs(s, make([]uint64, l.K), other)
		if CompareLimbs(got, og) != want.Cmp(Phi(s, other)) {
			t.Fatalf("%v: CompareLimbs disagrees with big.Int order", s)
		}
	}
}

func TestPhiInverseLimbsBounds(t *testing.T) {
	s := relation.MustSchema(
		relation.Domain{Name: "a", Size: 3},
		relation.Domain{Name: "b", Size: 5},
	)
	if l := s.Limbs(); l.K != 1 || l.Radix[0] != 15 {
		t.Fatalf("limbs = %+v; want one limb of radix 15", l)
	}
	dst := make(relation.Tuple, 2)
	if _, err := PhiInverseLimbs(s, dst, []uint64{15}); err == nil {
		t.Fatal("PhiInverseLimbs accepted an ordinal outside the space")
	}
	if got, err := PhiInverseLimbs(s, dst, []uint64{14}); err != nil || got[0] != 2 || got[1] != 4 {
		t.Fatalf("PhiInverseLimbs(14) = %v, %v; want [2 4]", got, err)
	}
}

// TestLimbLayout pins the greedy grouping: a space below 2^64 is one
// limb, a space of exactly 2^64 needs two (a limb's radix must itself
// fit a uint64), and the paper's 16-attribute relation takes four limbs
// with attribute groups 0-3, 4-7, 8-13 and 14-15.
func TestLimbLayout(t *testing.T) {
	cases := []struct {
		name   string
		sizes  []uint64
		first  []int
		radix  []uint64
		weight []uint64
	}{
		{"2^63", []uint64{1 << 32, 1 << 31}, []int{0, 2}, []uint64{1 << 63}, []uint64{1 << 31, 1}},
		{"2^64", []uint64{1 << 32, 1 << 32}, []int{0, 1, 2}, []uint64{1 << 32, 1 << 32}, []uint64{1, 1}},
		{"2^64 in three", []uint64{1 << 16, 1 << 16, 1 << 32}, []int{0, 2, 3}, []uint64{1 << 32, 1 << 32}, []uint64{1 << 16, 1, 1}},
		{"max domain", []uint64{^uint64(0), 2}, []int{0, 1, 2}, []uint64{^uint64(0), 2}, []uint64{1, 1}},
	}
	for _, c := range cases {
		doms := make([]relation.Domain, len(c.sizes))
		for i, size := range c.sizes {
			doms[i] = relation.Domain{Name: string(rune('a' + i)), Size: size}
		}
		l := relation.MustSchema(doms...).Limbs()
		if !reflect.DeepEqual(l.First, c.first) || !reflect.DeepEqual(l.Radix, c.radix) || !reflect.DeepEqual(l.Weight, c.weight) {
			t.Errorf("%s: first %v radix %v weight %v; want %v %v %v", c.name, l.First, l.Radix, l.Weight, c.first, c.radix, c.weight)
		}
	}

	wide := make([]relation.Domain, 16)
	for i := range wide {
		wide[i] = relation.Domain{Name: string(rune('a' + i)), Size: 64}
	}
	if l := relation.MustSchema(wide...).Limbs(); l.K != 2 || !reflect.DeepEqual(l.First, []int{0, 10, 16}) {
		t.Errorf("64^16 = 2^96: K = %d, first %v; want 2 limbs split at 10", l.K, l.First)
	}

	paper, _, err := gen.Spec38Byte(10, true, 1).Build()
	if err != nil {
		t.Fatal(err)
	}
	l := paper.Limbs()
	if l.K != 4 || !reflect.DeepEqual(l.First, []int{0, 4, 8, 14, 16}) {
		t.Fatalf("Spec38Byte: K = %d, first %v; want 4 limbs at 0, 4, 8, 14", l.K, l.First)
	}
	for i := 0; i < paper.NumAttrs(); i++ {
		j := l.Limb[i]
		if i < l.First[j] || i >= l.First[j+1] {
			t.Errorf("attribute %d mapped to limb %d spanning [%d,%d)", i, j, l.First[j], l.First[j+1])
		}
	}
}

// TestPhiLimbsPaperValues replays the Figure 2.2 / 3.3 ordinals: the
// employee schema is one limb, so limb 0 is phi itself.
func TestPhiLimbsPaperValues(t *testing.T) {
	s := employeeSchema(t)
	cases := []struct {
		tuple relation.Tuple
		want  uint64
	}{
		{relation.Tuple{3, 8, 36, 39, 35}, 14830051},
		{relation.Tuple{3, 8, 32, 34, 12}, 14813324},
		{relation.Tuple{3, 8, 32, 25, 19}, 14812755},
		{relation.Tuple{3, 9, 24, 32, 0}, 15042560},
		{relation.Tuple{3, 9, 26, 27, 37}, 15050469},
		{relation.Tuple{0, 0, 4, 5, 23}, 16727},
		{relation.Tuple{0, 0, 0, 8, 57}, 569},
		{relation.Tuple{0, 0, 0, 0, 0}, 0},
	}
	for _, c := range cases {
		if got := PhiLimbs(s, make([]uint64, 1), c.tuple); got[0] != c.want {
			t.Errorf("PhiLimbs(%v) = %v, want [%d]", c.tuple, got, c.want)
		}
	}
}

// FuzzPhiLimbs round-trips arbitrary digit material through the limb
// form on the one-limb employee schema and a four-limb 16-attribute one.
func FuzzPhiLimbs(f *testing.F) {
	flat := employeeSchema(f)
	paper, _, err := gen.Spec38Byte(10, true, 1).Build()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(uint64(3), uint64(8), uint64(36), uint64(39), uint64(35))
	f.Add(uint64(0), uint64(0), uint64(0), uint64(0), uint64(0))
	f.Fuzz(func(t *testing.T, a, b, c, d, e uint64) {
		seed := []uint64{a, b, c, d, e}
		for _, s := range []*relation.Schema{flat, paper} {
			tu := make(relation.Tuple, s.NumAttrs())
			for i := range tu {
				tu[i] = (seed[i%5] >> uint(i)) % s.Domain(i).Size
			}
			got := PhiLimbs(s, make([]uint64, s.Limbs().K), tu)
			if limbsToBig(s, got).Cmp(Phi(s, tu)) != 0 {
				t.Fatalf("PhiLimbs(%v) = %v disagrees with Phi", tu, got)
			}
			back, err := PhiInverseLimbs(s, make(relation.Tuple, s.NumAttrs()), got)
			if err != nil {
				t.Fatalf("PhiInverseLimbs(%v): %v", got, err)
			}
			if s.Compare(back, tu) != 0 {
				t.Fatalf("round trip %v -> %v -> %v", tu, got, back)
			}
		}
	})
}
