package ordinal

import (
	"fmt"

	"repro/internal/relation"
)

// Limb form of phi: the schema's limb layout (relation.Limbs) holds phi
// as K machine words, most significant first, each the Horner evaluation
// of Eq. 2.2 over its own run of attributes. The functions here are
// validated against the big.Int reference (Phi, PhiInverse) in tests and
// fuzzing; they are exact, not approximations.

// PhiLimbs writes phi(t) in limb form into dst (which must hold
// Limbs().K words) and returns it. t must be a valid tuple of the schema;
// that is the caller's responsibility on this hot path.
func PhiLimbs(s *relation.Schema, dst []uint64, t relation.Tuple) []uint64 {
	l := s.Limbs()
	for j := 0; j < l.K; j++ {
		var v uint64
		for i := l.First[j]; i < l.First[j+1]; i++ {
			v = v*l.Size[i] + t[i]
		}
		dst[j] = v
	}
	return dst
}

// PhiInverseLimbs writes the tuple whose phi has the given limbs into dst
// (which must have the schema's arity) and returns it. It returns an
// error if a limb is not below its radix, mirroring PhiInverse.
func PhiInverseLimbs(s *relation.Schema, dst relation.Tuple, phi []uint64) (relation.Tuple, error) {
	l := s.Limbs()
	for j := 0; j < l.K; j++ {
		v := phi[j]
		if v >= l.Radix[j] {
			return nil, fmt.Errorf("ordinal: limb %d value %d outside radix %d", j, v, l.Radix[j])
		}
		for i := l.First[j+1] - 1; i >= l.First[j]; i-- {
			dst[i] = v % l.Size[i]
			v /= l.Size[i]
		}
	}
	return dst, nil
}

// CompareLimbs orders two phi values in limb form: -1, 0, or +1 as a is
// below, equal to, or above b. Limbs are most significant first, so this
// is lexicographic order.
func CompareLimbs(a, b []uint64) int {
	for j := range a {
		switch {
		case a[j] < b[j]:
			return -1
		case a[j] > b[j]:
			return 1
		}
	}
	return 0
}

// PhiLimb0 returns limb 0 of phi(t), the most significant limb: the one
// holding attribute 0, so a clustering-key comparison needs no other.
func PhiLimb0(s *relation.Schema, t relation.Tuple) uint64 {
	l := s.Limbs()
	var v uint64
	for i := 0; i < l.First[1]; i++ {
		v = v*l.Size[i] + t[i]
	}
	return v
}
