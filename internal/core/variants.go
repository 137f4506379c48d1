package core

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"repro/internal/ordinal"
	"repro/internal/relation"
)

// appendUvarint and readUvarint wrap encoding/binary's varints with the
// package's error vocabulary.
func appendUvarint(dst []byte, v uint64) []byte {
	return binary.AppendUvarint(dst, v)
}

func readUvarint(buf []byte, pos int) (uint64, int, error) {
	v, n := binary.Uvarint(buf[pos:])
	if n <= 0 {
		return 0, 0, ErrTruncated
	}
	return v, pos + n, nil
}

// encodeRaw stores every tuple fixed-width with no compression: the paper's
// "No coding" baseline representation.
func encodeRaw(s *relation.Schema, tuples []relation.Tuple, dst []byte) ([]byte, error) {
	for _, t := range tuples {
		dst = s.EncodeTuple(dst, t)
	}
	return dst, nil
}

func decodeRaw(s *relation.Schema, count int, body []byte, a *Arena) ([]relation.Tuple, error) {
	m := s.RowSize()
	if len(body) != count*m {
		return nil, fmt.Errorf("%w: raw payload is %d bytes, want %d", ErrCorrupt, len(body), count*m)
	}
	out := a.Tuples(count, s.NumAttrs())
	for i := 0; i < count; i++ {
		if err := s.DecodeTupleInto(out[i], body[i*m:]); err != nil {
			return nil, err
		}
		if err := validateDigits(s, out[i]); err != nil {
			return nil, err
		}
		// Byte order on fixed-width rows is φ order: one memcmp per row
		// rejects a decreasing block (see sortedTuples).
		if i > 0 && bytes.Compare(body[(i-1)*m:i*m], body[i*m:(i+1)*m]) > 0 {
			return nil, fmt.Errorf("%w: φ sequence decreases at position %d", ErrCorrupt, i)
		}
	}
	return out, nil
}

// sortedTuples rejects a decoded block whose tuples decrease in φ order.
// Only the raw and rep-only codecs can express such a block (the chained
// codecs add non-negative differences); blocks are φ-clustered by
// construction, so an unsorted one is corrupt. Raw blocks check their
// row bytes instead.
func sortedTuples(s *relation.Schema, out []relation.Tuple) ([]relation.Tuple, error) {
	for i := 1; i < len(out); i++ {
		if s.Compare(out[i], out[i-1]) < 0 {
			return nil, fmt.Errorf("%w: φ sequence decreases at position %d", ErrCorrupt, i)
		}
	}
	return out, nil
}

// encodeRepOnly is AVQ without the chained-subtraction optimization of
// Example 3.3: each tuple stores its direct distance from the median
// representative, as in Table (b) of Figure 3.3. Differences grow linearly
// with distance from the median, so leading-zero runs are shorter than full
// AVQ's; the evaluation's ablation quantifies the gap.
func encodeRepOnly(s *relation.Schema, tuples []relation.Tuple, dst []byte) ([]byte, error) {
	u := len(tuples)
	if u == 0 {
		return dst, nil
	}
	mid := u / 2
	rep := tuples[mid]
	dst = appendUvarint(dst, uint64(mid))
	dst = s.EncodeTuple(dst, rep)
	diff := make(relation.Tuple, s.NumAttrs())
	scratch := make([]byte, 0, s.RowSize())
	for i, t := range tuples {
		if i == mid {
			continue
		}
		var err error
		if i < mid {
			_, err = ordinal.Sub(s, diff, rep, t)
		} else {
			_, err = ordinal.Sub(s, diff, t, rep)
		}
		if err != nil {
			return nil, fmt.Errorf("core: rep-only encode tuple %d: block not phi-sorted: %w", i, err)
		}
		dst = appendDiff(s, dst, diff, scratch)
	}
	return dst, nil
}

func decodeRepOnly(s *relation.Schema, count int, body []byte, a *Arena) ([]relation.Tuple, error) {
	if count == 0 {
		if len(body) != 0 {
			return nil, fmt.Errorf("%w: %d trailing bytes in empty block", ErrCorrupt, len(body))
		}
		return nil, nil
	}
	mid, pos, err := readUvarint(body, 0)
	if err != nil {
		return nil, fmt.Errorf("%w: representative index: %v", ErrCorrupt, err)
	}
	if mid >= uint64(count) {
		return nil, fmt.Errorf("%w: representative index %d >= tuple count %d", ErrCorrupt, mid, count)
	}
	m := s.RowSize()
	if pos+m > len(body) {
		return nil, ErrTruncated
	}
	n := s.NumAttrs()
	out := a.Tuples(count, n)
	rep := out[int(mid)]
	if err := s.DecodeTupleInto(rep, body[pos:pos+m]); err != nil {
		return nil, err
	}
	if err := validateDigits(s, rep); err != nil {
		return nil, err
	}
	pos += m
	scratch := a.Scratch(m)
	d := a.Tuple(n)
	for i := 0; i < count; i++ {
		if i == int(mid) {
			continue
		}
		if pos, err = readDiff(s, body, pos, d, scratch); err != nil {
			return nil, err
		}
		if err := validateDigits(s, d); err != nil {
			return nil, err
		}
		if i < int(mid) {
			_, err = ordinal.Sub(s, out[i], rep, d)
		} else {
			_, err = ordinal.Add(s, out[i], rep, d)
		}
		if err != nil {
			return nil, fmt.Errorf("%w: reconstructing tuple %d: %v", ErrCorrupt, i, err)
		}
	}
	if pos != len(body) {
		return nil, fmt.Errorf("%w: %d trailing bytes after block payload", ErrCorrupt, len(body)-pos)
	}
	return sortedTuples(s, out)
}

// encodeDeltaChain anchors the chain at the first tuple of the block rather
// than the median: the ablation isolating the paper's median-representative
// choice. The stored differences are identical adjacent deltas, so the
// stream size matches AVQ's; what changes is the anchor and therefore the
// work to reach a tuple in the middle of the block.
func encodeDeltaChain(s *relation.Schema, tuples []relation.Tuple, dst []byte) ([]byte, error) {
	u := len(tuples)
	if u == 0 {
		return dst, nil
	}
	dst = s.EncodeTuple(dst, tuples[0])
	diff := make(relation.Tuple, s.NumAttrs())
	scratch := make([]byte, 0, s.RowSize())
	for i := 1; i < u; i++ {
		if _, err := ordinal.Sub(s, diff, tuples[i], tuples[i-1]); err != nil {
			return nil, fmt.Errorf("core: delta-chain encode tuple %d: block not phi-sorted: %w", i, err)
		}
		dst = appendDiff(s, dst, diff, scratch)
	}
	return dst, nil
}

func decodeDeltaChain(s *relation.Schema, count int, body []byte, a *Arena) ([]relation.Tuple, error) {
	if count == 0 {
		if len(body) != 0 {
			return nil, fmt.Errorf("%w: %d trailing bytes in empty block", ErrCorrupt, len(body))
		}
		return nil, nil
	}
	m := s.RowSize()
	if len(body) < m {
		return nil, ErrTruncated
	}
	n := s.NumAttrs()
	out := a.Tuples(count, n)
	if err := s.DecodeTupleInto(out[0], body); err != nil {
		return nil, err
	}
	if err := validateDigits(s, out[0]); err != nil {
		return nil, err
	}
	pos := m
	scratch := a.Scratch(m)
	d := a.Tuple(n)
	var err error
	for i := 1; i < count; i++ {
		if pos, err = readDiff(s, body, pos, d, scratch); err != nil {
			return nil, err
		}
		if err := validateDigits(s, d); err != nil {
			return nil, err
		}
		if _, err := ordinal.Add(s, out[i], out[i-1], d); err != nil {
			return nil, fmt.Errorf("%w: reconstructing tuple %d: %v", ErrCorrupt, i, err)
		}
	}
	if pos != len(body) {
		return nil, fmt.Errorf("%w: %d trailing bytes after block payload", ErrCorrupt, len(body)-pos)
	}
	return out, nil
}
