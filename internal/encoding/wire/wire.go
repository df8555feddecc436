// Package wire holds the encoding primitives every Heron IPC message in
// this repository is built from: base-128 varints (minimal, or padded to
// a fixed width so a header can be patched in place), zigzag for signed
// integers, little-endian 64-bit words, and pooled buffers. The messages
// themselves — data and ack tuples, frames, markers — lay out their
// fields in package tuple. None of them carries field tags: each field
// sits where the fields before it put it.
//
// Three properties of these formats carry the paper's Section V
// optimizations:
//
//  1. Buffers are pooled (GetBuffer/PutBuffer), so steady-state encoding
//     performs no allocation — the paper's "memory pools to store dedicated
//     objects and thus avoid the expensive new/delete operations".
//  2. The destination is a fixed 4-byte prefix of a data tuple, so the
//     Stream Manager reads it with one load and forwards the rest as an
//     opaque byte slice ("lazy deserialization"). Decoders read fields in
//     place without copying payloads.
//  3. All appends are in-place on a caller-owned byte slice, enabling
//     in-place updates of already-encoded messages.
package wire

import (
	"errors"
	"math/bits"
)

// Errors returned by decoding functions.
var (
	ErrTruncated = errors.New("wire: truncated message")
	ErrOverflow  = errors.New("wire: varint overflows 64 bits")
)

// MaxVarintLen is the maximum number of bytes a 64-bit varint occupies.
const MaxVarintLen = 10

// AppendUvarint appends v to b using base-128 varint encoding.
func AppendUvarint(b []byte, v uint64) []byte {
	for v >= 0x80 {
		b = append(b, byte(v)|0x80)
		v >>= 7
	}
	return append(b, byte(v))
}

// UvarintLen returns the number of bytes AppendUvarint writes for v.
func UvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// Encoded is what the decoding functions read: a []byte as received, or a
// string holding an immutable copy of one.
type Encoded interface{ ~string | ~[]byte }

// Uvarint decodes a varint from b, returning the value and the number of
// bytes consumed. It returns ErrTruncated if b ends mid-varint and
// ErrOverflow if the value does not fit in 64 bits.
func Uvarint[T Encoded](b T) (uint64, int, error) {
	var v uint64
	var shift uint
	for i := 0; i < len(b); i++ {
		c := b[i]
		if i == MaxVarintLen {
			return 0, 0, ErrOverflow
		}
		if c < 0x80 {
			if i == MaxVarintLen-1 && c > 1 {
				return 0, 0, ErrOverflow
			}
			return v | uint64(c)<<shift, i + 1, nil
		}
		v |= uint64(c&0x7f) << shift
		shift += 7
	}
	return 0, 0, ErrTruncated
}

// PutUvarintFixed writes v into dst as a fixed-width varint: every byte
// but the last carries a continuation bit, padding the encoding to exactly
// len(dst) bytes. Decoders read it like any varint. Fixed-width headers
// can be reserved before their value is known and patched in place — the
// mechanism behind building a batch frame directly in its send buffer.
// v must fit in 7*len(dst) bits.
func PutUvarintFixed(dst []byte, v uint64) {
	for i := 0; i < len(dst)-1; i++ {
		dst[i] = byte(v) | 0x80
		v >>= 7
	}
	dst[len(dst)-1] = byte(v) & 0x7f
}

// Zigzag encodes a signed integer so that small magnitudes of either sign
// produce small varints.
func Zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

// Unzigzag reverses Zigzag.
func Unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// Fixed64 decodes 8 little-endian bytes.
func Fixed64[T Encoded](b T) (uint64, error) {
	if len(b) < 8 {
		return 0, ErrTruncated
	}
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56, nil
}
