// Package relation defines the relational data model used throughout the
// AVQ reproduction: attribute domains, relation schemas, and tuples.
//
// Following Section 2.2 of the paper, a relation scheme
// R = <<A1, A2, ..., An>> is the cartesian product of finite attribute
// domains. Every attribute value is a non-negative integer ordinal within
// its domain (Section 3.1 maps raw values onto ordinals; see package dict).
// A tuple is therefore a vector of digits in a mixed-radix number system
// whose radices are the domain sizes. That view is what makes the ordinal
// mapping phi (package ordinal) and the AVQ difference coding (package core)
// exact integer arithmetic rather than approximations.
package relation

import (
	"errors"
	"fmt"
	"math/big"
	"strings"
)

// DomainKind describes the source type of a domain before attribute
// encoding. After encoding, all values are ordinals regardless of kind; the
// kind is retained so tools can render values back to their original form.
type DomainKind uint8

const (
	// KindOrdinal is a domain whose values are already small non-negative
	// integers (years, hours, codes).
	KindOrdinal DomainKind = iota
	// KindString is a domain of strings mapped to ordinals by a dictionary.
	KindString
)

// String returns the human-readable name of the kind.
func (k DomainKind) String() string {
	switch k {
	case KindOrdinal:
		return "ordinal"
	case KindString:
		return "string"
	default:
		return fmt.Sprintf("DomainKind(%d)", uint8(k))
	}
}

// Domain describes one attribute domain A_i: its name, its cardinality
// |A_i|, and the kind of raw values it holds. Valid attribute values are the
// ordinals 0 .. Size-1.
type Domain struct {
	Name string
	Size uint64
	Kind DomainKind
}

// Validate reports whether the domain is well formed.
func (d Domain) Validate() error {
	if d.Name == "" {
		return errors.New("relation: domain has empty name")
	}
	if d.Size == 0 {
		return fmt.Errorf("relation: domain %q has zero size", d.Name)
	}
	return nil
}

// ByteWidth returns the number of bytes needed to hold any ordinal in the
// domain as a fixed-width big-endian integer. A domain of size 1 still
// occupies one byte so that every attribute has a presence in the tuple's
// byte representation (the leading-zero run-length coding of package core
// counts bytes of this representation).
func (d Domain) ByteWidth() int {
	w := 1
	for max := d.Size - 1; max > 0xFF; max >>= 8 {
		w++
	}
	return w
}

// Schema is an ordered list of attribute domains: the relation scheme R.
// The zero value is an empty schema; use NewSchema to build a validated one.
//
// Schema values are immutable after construction and safe for concurrent
// use by multiple goroutines.
type Schema struct {
	domains []Domain
	offsets []int // byte offset of each attribute in the fixed-width form
	widths  []int // byte width of each attribute
	rowSize int   // total fixed-width bytes per tuple

	limbs Limbs // φ's limb layout, computed once
}

// NewSchema builds a schema from the given domains. It returns an error if
// any domain is invalid or if the schema has no attributes.
func NewSchema(domains ...Domain) (*Schema, error) {
	if len(domains) == 0 {
		return nil, errors.New("relation: schema needs at least one domain")
	}
	s := &Schema{
		domains: make([]Domain, len(domains)),
		offsets: make([]int, len(domains)),
		widths:  make([]int, len(domains)),
	}
	copy(s.domains, domains)
	off := 0
	for i, d := range s.domains {
		if err := d.Validate(); err != nil {
			return nil, fmt.Errorf("relation: attribute %d: %w", i, err)
		}
		w := d.ByteWidth()
		s.offsets[i] = off
		s.widths[i] = w
		off += w
	}
	s.rowSize = off
	s.limbs = newLimbs(s.domains)
	return s, nil
}

// MustSchema is like NewSchema but panics on error. It is intended for
// tests, examples, and statically known schemas.
func MustSchema(domains ...Domain) *Schema {
	s, err := NewSchema(domains...)
	if err != nil {
		panic(err)
	}
	return s
}

// NumAttrs returns the number of attributes n in the schema.
func (s *Schema) NumAttrs() int { return len(s.domains) }

// Domain returns the i-th attribute domain.
func (s *Schema) Domain(i int) Domain { return s.domains[i] }

// Domains returns a copy of the schema's domains.
func (s *Schema) Domains() []Domain {
	out := make([]Domain, len(s.domains))
	copy(out, s.domains)
	return out
}

// RowSize returns the number of bytes m of a tuple in fixed-width
// big-endian form. This is the paper's tuple size used by the count-byte
// run-length coding.
func (s *Schema) RowSize() int { return s.rowSize }

// AttrWidth returns the fixed byte width of attribute i.
func (s *Schema) AttrWidth(i int) int { return s.widths[i] }

// AttrOffset returns the byte offset of attribute i within the fixed-width
// tuple representation.
func (s *Schema) AttrOffset(i int) int { return s.offsets[i] }

// SpaceSize returns ||R|| = prod |A_i|, the size of the relation scheme's
// cross-product space, as an arbitrary-precision integer. With 15 attributes
// this routinely exceeds 64 bits, which is why all per-tuple arithmetic in
// this repository is digit-wise mixed radix rather than integer ordinals.
func (s *Schema) SpaceSize() *big.Int {
	size := big.NewInt(1)
	var tmp big.Int
	for _, d := range s.domains {
		tmp.SetUint64(d.Size)
		size.Mul(size, &tmp)
	}
	return size
}

// Limbs returns the schema's limb layout: how φ is held as machine
// words. The layout is owned by the schema and must not be modified.
func (s *Schema) Limbs() *Limbs { return &s.limbs }

// String renders the schema compactly, e.g. "(dept:8, job:16, years:64)".
func (s *Schema) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, d := range s.domains {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s:%d", d.Name, d.Size)
	}
	b.WriteByte(')')
	return b.String()
}

// AttrIndex returns the position of the attribute with the given name, or
// -1 if no such attribute exists.
func (s *Schema) AttrIndex(name string) int {
	for i, d := range s.domains {
		if d.Name == name {
			return i
		}
	}
	return -1
}

// Equal reports whether two schemas have identical domains in identical
// order.
func (s *Schema) Equal(o *Schema) bool {
	if s == o {
		return true
	}
	if o == nil || len(s.domains) != len(o.domains) {
		return false
	}
	for i, d := range s.domains {
		if d != o.domains[i] {
			return false
		}
	}
	return true
}
