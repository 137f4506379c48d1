package relation

import "math/bits"

// Limbs is a schema's limb layout: φ (Eq. 2.2) held as K machine words.
// Eq. 2.2 is a mixed-radix number whose digits are the attribute values;
// grouping runs of consecutive attributes into one digit gives the same
// number in a coarser radix. Each group — a limb — is the mixed-radix
// ordinal of its attributes, and its radix (the product of their domain
// sizes) fits a uint64. φ is then the K-digit number in the limb radices,
// most significant limb first, so rows compare lexicographically limb by
// limb and arithmetic carries only between limbs. A schema whose space
// fits a uint64 has K = 1 and φ is a single word.
//
// Attribute 0 always lives in limb 0, so a predicate on the clustering
// attribute is an interval of limb-0 values.
type Limbs struct {
	// K is the number of limbs.
	K int
	// Radix[j] is limb j's radix: the product of its attributes' domain
	// sizes. Every limb value is below its radix.
	Radix []uint64
	// First[j] is limb j's first attribute; First[K] is the arity.
	First []int
	// Limb[i] is the limb holding attribute i.
	Limb []int
	// Weight[i] is attribute i's positional weight within its limb: the
	// product of the domain sizes of the later attributes in that limb.
	Weight []uint64
	// Size[i] is |A_i|, cached so hot loops read one flat array.
	Size []uint64
}

// newLimbs groups the domains greedily from attribute 0: a limb grows
// while the product of its radices still fits a uint64. One domain
// always fits on its own, so every limb holds at least one attribute.
func newLimbs(domains []Domain) Limbs {
	n := len(domains)
	l := Limbs{
		Limb:   make([]int, n),
		Weight: make([]uint64, n),
		Size:   make([]uint64, n),
	}
	for i, d := range domains {
		l.Size[i] = d.Size
	}
	for i := 0; i < n; {
		j, radix := i, uint64(1)
		for j < n {
			hi, lo := bits.Mul64(radix, l.Size[j])
			if hi != 0 {
				break
			}
			radix = lo
			j++
		}
		w := uint64(1)
		for h := j - 1; h >= i; h-- {
			l.Limb[h] = l.K
			l.Weight[h] = w
			w *= l.Size[h]
		}
		l.First = append(l.First, i)
		l.Radix = append(l.Radix, radix)
		l.K++
		i = j
	}
	l.First = append(l.First, n)
	return l
}
