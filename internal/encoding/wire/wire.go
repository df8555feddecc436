// Package wire implements the binary wire format used by every Heron IPC
// message in this repository.
//
// The format is a from-scratch reimplementation of the Protocol Buffers
// wire encoding (the paper's Stream Manager exchanges Protocol Buffer
// messages between processes): each field is a tag — the field number
// shifted left by three bits, OR-ed with a wire type — followed by a
// payload whose framing depends on the wire type.
//
// Three properties of this package carry the paper's Section V
// optimizations:
//
//  1. Buffers are pooled (GetBuffer/PutBuffer), so steady-state encoding
//     performs no allocation — the paper's "memory pools to store dedicated
//     objects and thus avoid the expensive new/delete operations".
//  2. Scan visits fields in place without copying payloads, which is what
//     lets the Stream Manager parse only the destination field of a data
//     tuple and forward the rest as an opaque byte slice ("lazy
//     deserialization").
//  3. All appends are in-place on a caller-owned byte slice, enabling
//     in-place updates of already-encoded messages.
package wire

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
)

// Type is a wire type: the low three bits of a field tag.
type Type uint8

// Wire types, matching the Protocol Buffers encoding.
const (
	TypeVarint  Type = 0 // uint64 varint (bools, ints, enums)
	TypeFixed64 Type = 1 // 8 bytes little-endian (float64, fixed 64-bit)
	TypeBytes   Type = 2 // length-delimited (strings, byte arrays, nested messages)
	TypeFixed32 Type = 5 // 4 bytes little-endian (float32, fixed 32-bit)
)

// Errors returned by decoding functions.
var (
	ErrTruncated = errors.New("wire: truncated message")
	ErrOverflow  = errors.New("wire: varint overflows 64 bits")
	ErrBadTag    = errors.New("wire: malformed field tag")
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

// AppendTag appends the tag for (field, t).
func AppendTag(b []byte, field int, t Type) []byte {
	return AppendUvarint(b, uint64(field)<<3|uint64(t))
}

// AppendVarintField appends a varint-typed field.
func AppendVarintField(b []byte, field int, v uint64) []byte {
	b = AppendTag(b, field, TypeVarint)
	return AppendUvarint(b, v)
}

// AppendIntField appends a signed integer field using zigzag encoding.
func AppendIntField(b []byte, field int, v int64) []byte {
	return AppendVarintField(b, field, Zigzag(v))
}

// AppendBoolField appends a bool as a 0/1 varint field.
func AppendBoolField(b []byte, field int, v bool) []byte {
	var u uint64
	if v {
		u = 1
	}
	return AppendVarintField(b, field, u)
}

// AppendFixed64Field appends an 8-byte little-endian field.
func AppendFixed64Field(b []byte, field int, v uint64) []byte {
	b = AppendTag(b, field, TypeFixed64)
	return append(b,
		byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
		byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
}

// AppendFloat64Field appends a float64 as a fixed64 field.
func AppendFloat64Field(b []byte, field int, v float64) []byte {
	return AppendFixed64Field(b, field, math.Float64bits(v))
}

// AppendFixed32Field appends a 4-byte little-endian field.
func AppendFixed32Field(b []byte, field int, v uint32) []byte {
	b = AppendTag(b, field, TypeFixed32)
	return append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

// AppendBytesField appends a length-delimited field.
func AppendBytesField(b []byte, field int, v []byte) []byte {
	b = AppendTag(b, field, TypeBytes)
	b = AppendUvarint(b, uint64(len(v)))
	return append(b, v...)
}

// AppendStringField appends a string as a length-delimited field.
func AppendStringField(b []byte, field int, v string) []byte {
	b = AppendTag(b, field, TypeBytes)
	b = AppendUvarint(b, uint64(len(v)))
	return append(b, v...)
}

// Fixed64 decodes 8 little-endian bytes.
func Fixed64[T Encoded](b T) (uint64, error) {
	if len(b) < 8 {
		return 0, ErrTruncated
	}
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56, nil
}

// Fixed32 decodes 4 little-endian bytes.
func Fixed32(b []byte) (uint32, error) {
	if len(b) < 4 {
		return 0, ErrTruncated
	}
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24, nil
}

// Field is one field located by Scan. Data aliases the scanned buffer; it
// is valid only while the buffer is.
type Field struct {
	Num  int
	Type Type
	// Data holds the payload: for TypeBytes the delimited content, for
	// TypeVarint the varint bytes (use Uvarint), for fixed types the raw
	// little-endian bytes.
	Data []byte
}

// Varint interprets the field payload as a uint64 varint.
func (f Field) Varint() (uint64, error) {
	v, _, err := Uvarint(f.Data)
	return v, err
}

// Int interprets the field payload as a zigzag-encoded signed integer.
func (f Field) Int() (int64, error) {
	u, err := f.Varint()
	return Unzigzag(u), err
}

// Bool interprets the field payload as a bool.
func (f Field) Bool() (bool, error) {
	u, err := f.Varint()
	return u != 0, err
}

// Float64 interprets the field payload as a fixed64 float.
func (f Field) Float64() (float64, error) {
	u, err := Fixed64(f.Data)
	return math.Float64frombits(u), err
}

// String copies the field payload into a string.
func (f Field) String() string { return string(f.Data) }

// Scan walks the fields of an encoded message in order, calling visit for
// each. If visit returns false, the scan stops early with no error: this
// early exit is the mechanism behind lazy deserialization — a router can
// stop after reading the destination field. Payload slices alias b.
func Scan(b []byte, visit func(f Field) bool) error {
	for len(b) > 0 {
		tag, n, err := Uvarint(b)
		if err != nil {
			return err
		}
		b = b[n:]
		f := Field{Num: int(tag >> 3), Type: Type(tag & 7)}
		if f.Num == 0 {
			return ErrBadTag
		}
		switch f.Type {
		case TypeVarint:
			_, vn, err := Uvarint(b)
			if err != nil {
				return err
			}
			f.Data, b = b[:vn], b[vn:]
		case TypeFixed64:
			if len(b) < 8 {
				return ErrTruncated
			}
			f.Data, b = b[:8], b[8:]
		case TypeFixed32:
			if len(b) < 4 {
				return ErrTruncated
			}
			f.Data, b = b[:4], b[4:]
		case TypeBytes:
			l, ln, err := Uvarint(b)
			if err != nil {
				return err
			}
			b = b[ln:]
			if uint64(len(b)) < l {
				return ErrTruncated
			}
			f.Data, b = b[:l], b[l:]
		default:
			return fmt.Errorf("wire: unsupported wire type %d for field %d", f.Type, f.Num)
		}
		if !visit(f) {
			return nil
		}
	}
	return nil
}

// FindField scans b for the first occurrence of field num and returns it.
// The bool reports whether the field was present. This is the lazy-routing
// primitive: O(prefix) work, zero copies.
func FindField(b []byte, num int) (Field, bool, error) {
	var out Field
	var found bool
	err := Scan(b, func(f Field) bool {
		if f.Num == num {
			out, found = f, true
			return false
		}
		return true
	})
	return out, found, err
}
