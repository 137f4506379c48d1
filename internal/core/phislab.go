package core

import (
	"fmt"
	"math/bits"

	"repro/internal/bitio"
	"repro/internal/ordinal"
	"repro/internal/relation"
)

// Limb slab decode: the executor's per-block kernel. DecodeBlockPhis
// materializes a block's whole difference chain as a φ slab — one row of
// K uint64 limbs per tuple (the schema's relation.Limbs, stride K),
// carved from the caller's arena — so kernels (predicates, aggregation,
// group-by, merge joins) consume raw ordinals in tight per-block loops
// and a row becomes a relation.Tuple (φ⁻¹ per limb) only when it reaches
// a tuple result. Attribute values come out of a row with a
// DigitExtractor, never full φ⁻¹.

// DigitExtractor recovers one attribute from the limb holding it:
// digit = (limb / weight) mod radix, with the attribute's weight within
// the limb and its domain size as radix. The division is strength-reduced
// at plan time: when both the weight and the radix are powers of two —
// the common case for the generated evaluation schemas — the two hardware
// divides become a shift and a mask. Kernels sit in per-row loops, so the
// divide latency matters.
type DigitExtractor struct {
	// Limb is the limb of a row that holds the attribute: the attribute's
	// value in row r of a stride-K slab is Digit(slab[r*K+Limb]).
	Limb          int
	weight, radix uint64
	shift         uint64
	mask          uint64
	pow2          bool
}

// NewDigitExtractor builds the extractor for attribute attr of s.
func NewDigitExtractor(s *relation.Schema, attr int) DigitExtractor {
	l := s.Limbs()
	weight, radix := l.Weight[attr], l.Size[attr]
	d := DigitExtractor{Limb: l.Limb[attr], weight: weight, radix: radix}
	if weight&(weight-1) == 0 && radix&(radix-1) == 0 {
		d.pow2 = true
		d.shift = uint64(bits.TrailingZeros64(weight))
		d.mask = radix - 1
	}
	return d
}

// Digit extracts the attribute's value from the limb that holds it.
func (d DigitExtractor) Digit(limb uint64) uint64 {
	if d.pow2 {
		return limb >> d.shift & d.mask
	}
	return limb / d.weight % d.radix
}

// DecodeBlockPhis decodes a coded block into its φ slab: count rows of
// Limbs().K words each, in block (clustered) order, carved from the
// caller's arena. It supports all five codecs and accepts exactly the
// blocks DecodeBlockArena accepts, with the same rows.
//
// The returned slab aliases the arena and is valid until its next Reset;
// callers may overwrite rows in place (the executor compacts qualifying
// rows forward). With a pooled, Reset arena the decode is allocation-free
// steady-state.
func DecodeBlockPhis(s *relation.Schema, buf []byte, a *Arena) ([]uint64, error) {
	body, count, c, err := checkHeader(buf)
	if err != nil {
		return nil, err
	}
	if a == nil {
		a = NewArena()
	}
	l := s.Limbs()
	out := a.Phis(count * l.K)
	if count == 0 {
		if len(body) != 0 {
			return nil, fmt.Errorf("%w: %d trailing bytes in empty block", ErrCorrupt, len(body))
		}
		return out, nil
	}
	d := limbDecoder{s: s, l: l, k: l.K, body: body, scratch: a.Scratch(s.RowSize())}
	switch c {
	case CodecRaw:
		err = d.raw(count, out)
	case CodecAVQ:
		err = d.chained(count, out)
	case CodecPacked:
		err = d.packed(count, out)
	case CodecRepOnly:
		err = d.repOnly(count, out)
	case CodecDeltaChain:
		err = d.deltaChain(count, out)
	default:
		return nil, fmt.Errorf("%w: %d", ErrBadCodec, uint8(c))
	}
	if err != nil {
		return nil, err
	}
	return out, nil
}

// errLeavesSpace reports a difference chain stepping outside [0, ||R||).
var errLeavesSpace = fmt.Errorf("%w: difference chain leaves the schema space", ErrCorrupt)

// addLimbs sets dst = a + d in the limb radices, reporting false when the
// sum leaves the schema space (a carry out of limb 0). Every operand limb
// is below its radix, so each limb sum is below twice the radix and one
// conditional subtraction normalizes it, even across uint64 wrap-around.
// dst may alias a or d.
func addLimbs(radix, dst, a, d []uint64) bool {
	var carry uint64
	for j := len(radix) - 1; j >= 0; j-- {
		sum, c := bits.Add64(a[j], d[j], carry)
		carry = 0
		if c != 0 || sum >= radix[j] {
			sum -= radix[j]
			carry = 1
		}
		dst[j] = sum
	}
	return carry == 0
}

// subLimbs sets dst = a - d in the limb radices, reporting false on
// underflow (a borrow out of limb 0). dst may alias a or d.
func subLimbs(radix, dst, a, d []uint64) bool {
	var borrow uint64
	for j := len(radix) - 1; j >= 0; j-- {
		diff, b := bits.Sub64(a[j], d[j], borrow)
		if b != 0 {
			diff += radix[j]
		}
		dst[j] = diff
		borrow = b
	}
	return borrow == 0
}

// limbDecoder walks one block body, parsing fixed-width rows and
// byte-framed differences straight into limb form: each digit is read,
// checked against its radix, and folded into its limb by Horner's rule,
// so no digit vector is ever built.
type limbDecoder struct {
	s       *relation.Schema
	l       *relation.Limbs
	k       int
	body    []byte
	pos     int
	scratch []byte // RowSize bytes
}

// row parses one fixed-width tuple from src (at least RowSize bytes)
// into the limbs dst.
func (d *limbDecoder) row(src []byte, dst []uint64) error {
	return d.rowFrom(src, dst, 0, 0)
}

// rowFrom is row for a tuple whose attributes before first (the bytes
// before off) are known to be zero, as a difference's leading-zero run
// guarantees: the limbs before first's are zero, and Horner's rule over
// leading zeros leaves first's limb at zero, so parsing starts there.
func (d *limbDecoder) rowFrom(src []byte, dst []uint64, first, off int) error {
	l := d.l
	n := len(l.Size)
	if first == n {
		clear(dst)
		return nil
	}
	j0 := l.Limb[first]
	clear(dst[:j0])
	for j := j0; j < d.k; j++ {
		var v uint64
		for i := max(first, l.First[j]); i < l.First[j+1]; i++ {
			var x uint64
			for w := d.s.AttrWidth(i); w > 0; w-- {
				x = x<<8 | uint64(src[off])
				off++
			}
			if x >= l.Size[i] {
				return fmt.Errorf("%w: digit %d value %d outside radix %d", ErrCorrupt, i, x, l.Size[i])
			}
			v = v*l.Size[i] + x
		}
		dst[j] = v
	}
	return nil
}

// diff parses the next serialized difference (count byte r, then the
// RowSize-r tail bytes) into the limbs dst. Attributes lying wholly in
// the r zero bytes are skipped without being read.
func (d *limbDecoder) diff(dst []uint64) error {
	m := len(d.scratch)
	if d.pos >= len(d.body) {
		return ErrTruncated
	}
	lz := int(d.body[d.pos])
	if lz > m {
		return fmt.Errorf("%w: leading-zero count %d exceeds tuple size %d", ErrCorrupt, lz, m)
	}
	start, end := d.pos+1, d.pos+1+m-lz
	if end > len(d.body) {
		return ErrTruncated
	}
	clear(d.scratch[:lz])
	copy(d.scratch[lz:], d.body[start:end])
	d.pos = end
	first, off := 0, 0
	for n := len(d.l.Size); first < n && off+d.s.AttrWidth(first) <= lz; first++ {
		off += d.s.AttrWidth(first)
	}
	return d.rowFrom(d.scratch, dst, first, off)
}

// rep parses the representative index and tuple shared by the AVQ,
// packed, and rep-only payloads, writing the representative into its row
// of out and returning its index.
func (d *limbDecoder) rep(count int, out []uint64) (int, error) {
	mid64, pos, err := readUvarint(d.body, 0)
	if err != nil {
		return 0, fmt.Errorf("%w: representative index: %v", ErrCorrupt, err)
	}
	if mid64 >= uint64(count) {
		return 0, fmt.Errorf("%w: representative index %d >= tuple count %d", ErrCorrupt, mid64, count)
	}
	mid, m := int(mid64), len(d.scratch)
	if pos+m > len(d.body) {
		return 0, ErrTruncated
	}
	if err := d.row(d.body[pos:pos+m], out[mid*d.k:(mid+1)*d.k]); err != nil {
		return 0, err
	}
	d.pos = pos + m
	return mid, nil
}

// trailing rejects payload bytes past the last difference.
func (d *limbDecoder) trailing() error {
	if d.pos != len(d.body) {
		return fmt.Errorf("%w: %d trailing bytes after block payload", ErrCorrupt, len(d.body)-d.pos)
	}
	return nil
}

// raw converts each fixed-width row independently.
func (d *limbDecoder) raw(count int, out []uint64) error {
	m, k := len(d.scratch), d.k
	if len(d.body) != count*m {
		return fmt.Errorf("%w: raw payload is %d bytes, want %d", ErrCorrupt, len(d.body), count*m)
	}
	for i := 0; i < count; i++ {
		if err := d.row(d.body[i*m:], out[i*k:(i+1)*k]); err != nil {
			return err
		}
	}
	return sortedRows(out, k)
}

// chained rebuilds the median-anchored AVQ chain outward from the
// representative. The before group's differences are parsed into their
// own rows and then consumed in place, back to front:
// t[i] = t[i+1] - d[i]. The after group adds forward: t[i] = t[i-1] + d[i].
func (d *limbDecoder) chained(count int, out []uint64) error {
	k, radix := d.k, d.l.Radix
	mid, err := d.rep(count, out)
	if err != nil {
		return err
	}
	for i := 0; i < mid; i++ {
		if err := d.diff(out[i*k : (i+1)*k]); err != nil {
			return err
		}
	}
	for i := mid - 1; i >= 0; i-- {
		row := out[i*k : (i+1)*k]
		if !subLimbs(radix, row, out[(i+1)*k:(i+2)*k], row) {
			return errLeavesSpace
		}
	}
	for i := mid + 1; i < count; i++ {
		row := out[i*k : (i+1)*k]
		if err := d.diff(row); err != nil {
			return err
		}
		if !addLimbs(radix, row, out[(i-1)*k:i*k], row) {
			return errLeavesSpace
		}
	}
	return d.trailing()
}

// packed is chained for the bit-packed codec: each difference is a
// leading-zero digit count followed by the remaining digits at their
// packed bit widths.
func (d *limbDecoder) packed(count int, out []uint64) error {
	k, l, radix := d.k, d.l, d.l.Radix
	mid, err := d.rep(count, out)
	if err != nil {
		return err
	}
	n := d.s.NumAttrs()
	widths, _ := packedBitWidthsCached(d.s)
	lzWidth := bitio.BitsFor(uint64(n) + 1)
	var r bitio.Reader
	r.Reset(d.body[d.pos:])
	next := func(dst []uint64) error {
		lz64, err := r.ReadBits(lzWidth)
		if err != nil {
			return fmt.Errorf("%w: %v", ErrTruncated, err)
		}
		lz := int(lz64)
		if lz > n {
			return fmt.Errorf("%w: leading-zero digit count %d exceeds arity %d", ErrCorrupt, lz, n)
		}
		// Digits before lz are zero: the limbs below lz's are zero, and
		// Horner's rule over leading zeros leaves lz's limb at zero.
		j0 := k
		if lz < n {
			j0 = l.Limb[lz]
		}
		clear(dst[:j0])
		for j := j0; j < k; j++ {
			var v uint64
			for i := max(lz, l.First[j]); i < l.First[j+1]; i++ {
				x, err := r.ReadBits(widths[i])
				if err != nil {
					return fmt.Errorf("%w: %v", ErrTruncated, err)
				}
				if x >= l.Size[i] {
					return fmt.Errorf("%w: digit %d value %d outside radix %d", ErrCorrupt, i, x, l.Size[i])
				}
				v = v*l.Size[i] + x
			}
			dst[j] = v
		}
		return nil
	}
	for i := 0; i < mid; i++ {
		if err := next(out[i*k : (i+1)*k]); err != nil {
			return err
		}
	}
	for i := mid - 1; i >= 0; i-- {
		row := out[i*k : (i+1)*k]
		if !subLimbs(radix, row, out[(i+1)*k:(i+2)*k], row) {
			return errLeavesSpace
		}
	}
	for i := mid + 1; i < count; i++ {
		row := out[i*k : (i+1)*k]
		if err := next(row); err != nil {
			return err
		}
		if !addLimbs(radix, row, out[(i-1)*k:i*k], row) {
			return errLeavesSpace
		}
	}
	if r.Remaining() >= 8 {
		return fmt.Errorf("%w: %d trailing bits after block payload", ErrCorrupt, r.Remaining())
	}
	return nil
}

// repOnly applies each direct difference to the representative.
func (d *limbDecoder) repOnly(count int, out []uint64) error {
	k, radix := d.k, d.l.Radix
	mid, err := d.rep(count, out)
	if err != nil {
		return err
	}
	rep := out[mid*k : (mid+1)*k]
	for i := 0; i < count; i++ {
		if i == mid {
			continue
		}
		row := out[i*k : (i+1)*k]
		if err := d.diff(row); err != nil {
			return err
		}
		var ok bool
		if i < mid {
			ok = subLimbs(radix, row, rep, row)
		} else {
			ok = addLimbs(radix, row, rep, row)
		}
		if !ok {
			return errLeavesSpace
		}
	}
	if err := d.trailing(); err != nil {
		return err
	}
	return sortedRows(out, k)
}

// deltaChain walks the first-anchored chain forward.
func (d *limbDecoder) deltaChain(count int, out []uint64) error {
	m, k, radix := len(d.scratch), d.k, d.l.Radix
	if len(d.body) < m {
		return ErrTruncated
	}
	if err := d.row(d.body[:m], out[:k]); err != nil {
		return err
	}
	d.pos = m
	for i := 1; i < count; i++ {
		row := out[i*k : (i+1)*k]
		if err := d.diff(row); err != nil {
			return err
		}
		if !addLimbs(radix, row, out[(i-1)*k:i*k], row) {
			return errLeavesSpace
		}
	}
	return d.trailing()
}

// sortedRows rejects a slab whose rows decrease. Blocks are φ-clustered
// by construction and every kernel binary-searches slabs, so a
// non-monotone sequence is corruption, not data. Only the raw and
// rep-only codecs can express one; the chained codecs add non-negative
// differences.
func sortedRows(out []uint64, k int) error {
	for r := k; r < len(out); r += k {
		if ordinal.CompareLimbs(out[r:r+k], out[r-k:r]) < 0 {
			return fmt.Errorf("%w: φ sequence decreases at position %d", ErrCorrupt, r/k)
		}
	}
	return nil
}

// SlabSpan clips a nondecreasing stride-k φ slab to the rows whose
// limb 0 lies in [lo, hi]: from is the first row with limb 0 >= lo, to
// the first with limb 0 > hi. A predicate on attribute 0 is exactly such
// an interval, since attribute 0 always lives in limb 0. Two binary
// searches, no decoding.
func SlabSpan(phis []uint64, k int, lo, hi uint64) (from, to int) {
	rows := len(phis) / k
	a, b := 0, rows
	for a < b {
		mid := int(uint(a+b) >> 1)
		if phis[mid*k] >= lo {
			b = mid
		} else {
			a = mid + 1
		}
	}
	from = a
	b = rows
	for a < b {
		mid := int(uint(a+b) >> 1)
		if phis[mid*k] > hi {
			b = mid
		} else {
			a = mid + 1
		}
	}
	return from, a
}
