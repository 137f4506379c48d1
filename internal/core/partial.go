package core

import (
	"fmt"

	"repro/internal/ordinal"
	"repro/internal/relation"
)

// DecodeTupleAt reconstructs only the tuple at position idx (in phi order)
// of an encoded block, without materializing the rest.
//
// This operation is why the paper chooses the block's *median* tuple as
// its representative (Section 3.4): decoding position idx requires
// following the difference chain from the anchor to idx, which is at most
// u/2 steps from the median but up to u-1 steps from a first-tuple anchor.
// The decode-reach ablation benchmarks quantify exactly that gap.
//
// Costs by codec:
//
//	CodecRaw        O(1)   direct offset
//	CodecAVQ        O(|idx - mid|) chain steps from the median
//	CodecPacked     O(|idx - mid|) chain steps (bit-level walk)
//	CodecRepOnly    O(idx) to skip earlier diffs, one subtraction/addition
//	CodecDeltaChain O(idx) chain steps from the first tuple
func DecodeTupleAt(s *relation.Schema, buf []byte, idx int) (relation.Tuple, error) {
	body, count, c, err := checkHeader(buf)
	if err != nil {
		return nil, err
	}
	if idx < 0 || idx >= count {
		return nil, fmt.Errorf("core: tuple index %d out of range [0,%d)", idx, count)
	}
	a := NewArena()
	switch c {
	case CodecRaw:
		m := s.RowSize()
		if len(body) != count*m {
			return nil, fmt.Errorf("%w: raw payload is %d bytes, want %d", ErrCorrupt, len(body), count*m)
		}
		t := a.Tuple(s.NumAttrs())
		if err := s.DecodeTupleInto(t, body[idx*m:]); err != nil {
			return nil, err
		}
		if err := validateDigits(s, t); err != nil {
			return nil, err
		}
		return t, nil
	case CodecAVQ:
		return decodeAVQAt(s, count, body, idx, a)
	case CodecRepOnly:
		return decodeRepOnlyAt(s, count, body, idx, a)
	case CodecDeltaChain:
		return decodeDeltaChainAt(s, count, body, idx, a)
	case CodecPacked:
		// The packed stream has no per-diff byte framing to skip over
		// cheaply; reuse the full decode and index. Still O(block).
		tuples, err := decodePacked(s, count, body, a)
		if err != nil {
			return nil, err
		}
		return tuples[idx], nil
	default:
		return nil, fmt.Errorf("%w: %d", ErrBadCodec, uint8(c))
	}
}

// readAVQPrefix parses the representative index and tuple shared by the
// AVQ and rep-only payloads, returning the byte position after them. The
// representative is carved from the arena.
func readAVQPrefix(s *relation.Schema, count int, body []byte, a *Arena) (mid int, rep relation.Tuple, pos int, err error) {
	mid64, pos, err := readUvarint(body, 0)
	if err != nil {
		return 0, nil, 0, fmt.Errorf("%w: representative index: %v", ErrCorrupt, err)
	}
	if mid64 >= uint64(count) {
		return 0, nil, 0, fmt.Errorf("%w: representative index %d >= tuple count %d", ErrCorrupt, mid64, count)
	}
	m := s.RowSize()
	if pos+m > len(body) {
		return 0, nil, 0, ErrTruncated
	}
	rep = a.Tuple(s.NumAttrs())
	if err := s.DecodeTupleInto(rep, body[pos:pos+m]); err != nil {
		return 0, nil, 0, err
	}
	if err := validateDigits(s, rep); err != nil {
		return 0, nil, 0, err
	}
	return int(mid64), rep, pos + m, nil
}

// skipDiffs advances pos past n serialized differences.
func skipDiffs(s *relation.Schema, body []byte, pos, n int) (int, error) {
	m := s.RowSize()
	for i := 0; i < n; i++ {
		if pos >= len(body) {
			return 0, ErrTruncated
		}
		lz := int(body[pos])
		if lz > m {
			return 0, fmt.Errorf("%w: leading-zero count %d exceeds tuple size %d", ErrCorrupt, lz, m)
		}
		pos += 1 + m - lz
		if pos > len(body) {
			return 0, ErrTruncated
		}
	}
	return pos, nil
}

// decodeAVQAt walks the chain from the representative to idx.
func decodeAVQAt(s *relation.Schema, count int, body []byte, idx int, a *Arena) (relation.Tuple, error) {
	mid, rep, pos, err := readAVQPrefix(s, count, body, a)
	if err != nil {
		return nil, err
	}
	if idx == mid {
		return rep, nil
	}
	n := s.NumAttrs()
	scratch := a.Scratch(s.RowSize())
	d := a.Tuple(n)
	if idx < mid {
		// Differences for positions idx..mid-1 are stored at positions
		// idx..mid-1 of the first group; accumulate them backward from the
		// representative: t[idx] = rep - sum(d[idx..mid-1]).
		if pos, err = skipDiffs(s, body, pos, idx); err != nil {
			return nil, err
		}
		out := a.Tuple(n)
		copy(out, rep)
		// Sum the needed diffs, then subtract once each (exact arithmetic
		// requires sequential subtraction; sums can overflow the space).
		for i := idx; i < mid; i++ {
			if pos, err = readDiff(s, body, pos, d, scratch); err != nil {
				return nil, err
			}
			if err := validateDigits(s, d); err != nil {
				return nil, err
			}
			if _, err := ordinal.Sub(s, out, out, d); err != nil {
				return nil, fmt.Errorf("%w: reconstructing tuple %d: %v", ErrCorrupt, idx, err)
			}
		}
		return out, nil
	}
	// idx > mid: skip the first group and the chain up to idx.
	if pos, err = skipDiffs(s, body, pos, mid); err != nil {
		return nil, err
	}
	out := a.Tuple(n)
	copy(out, rep)
	for i := mid + 1; i <= idx; i++ {
		if pos, err = readDiff(s, body, pos, d, scratch); err != nil {
			return nil, err
		}
		if err := validateDigits(s, d); err != nil {
			return nil, err
		}
		if _, err := ordinal.Add(s, out, out, d); err != nil {
			return nil, fmt.Errorf("%w: reconstructing tuple %d: %v", ErrCorrupt, idx, err)
		}
	}
	return out, nil
}

// decodeRepOnlyAt skips to the idx-th difference and applies it once.
func decodeRepOnlyAt(s *relation.Schema, count int, body []byte, idx int, a *Arena) (relation.Tuple, error) {
	mid, rep, pos, err := readAVQPrefix(s, count, body, a)
	if err != nil {
		return nil, err
	}
	if idx == mid {
		return rep, nil
	}
	// Differences are stored in block order with the representative's slot
	// omitted.
	skip := idx
	if idx > mid {
		skip = idx - 1
	}
	if pos, err = skipDiffs(s, body, pos, skip); err != nil {
		return nil, err
	}
	n := s.NumAttrs()
	scratch := a.Scratch(s.RowSize())
	d := a.Tuple(n)
	if _, err = readDiff(s, body, pos, d, scratch); err != nil {
		return nil, err
	}
	if err := validateDigits(s, d); err != nil {
		return nil, err
	}
	out := a.Tuple(n)
	if idx < mid {
		_, err = ordinal.Sub(s, out, rep, d)
	} else {
		_, err = ordinal.Add(s, out, rep, d)
	}
	if err != nil {
		return nil, fmt.Errorf("%w: reconstructing tuple %d: %v", ErrCorrupt, idx, err)
	}
	return out, nil
}

// decodeDeltaChainAt walks the chain from the first tuple to idx.
func decodeDeltaChainAt(s *relation.Schema, count int, body []byte, idx int, a *Arena) (relation.Tuple, error) {
	m := s.RowSize()
	if len(body) < m {
		return nil, ErrTruncated
	}
	n := s.NumAttrs()
	out := a.Tuple(n)
	if err := s.DecodeTupleInto(out, body); err != nil {
		return nil, err
	}
	if err := validateDigits(s, out); err != nil {
		return nil, err
	}
	if idx == 0 {
		return out, nil
	}
	pos := m
	scratch := a.Scratch(m)
	d := a.Tuple(n)
	var err error
	for i := 1; i <= idx; i++ {
		if pos, err = readDiff(s, body, pos, d, scratch); err != nil {
			return nil, err
		}
		if err := validateDigits(s, d); err != nil {
			return nil, err
		}
		if _, err := ordinal.Add(s, out, out, d); err != nil {
			return nil, fmt.Errorf("%w: reconstructing tuple %d: %v", ErrCorrupt, idx, err)
		}
	}
	return out, nil
}
