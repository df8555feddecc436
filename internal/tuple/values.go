package tuple

import (
	"fmt"
	"math"

	"heron/internal/encoding/wire"
)

// The values field of a data tuple is
//
//	uvarint(count) count×(kind payload)
//
// where a string or bytes payload is uvarint(len) followed by the bytes,
// an int is a zigzag varint, a float is 8 little-endian bytes and a bool
// is one byte. DecodeHeader checks the whole field in one walk of kinds
// and lengths; everything below that reads a checked field (decodeValues,
// RawValues) trusts it.

// nextValue splits the first value off b: its kind, its payload (the
// content of a string or bytes value, the varint of an int, the 8 bytes
// of a float, the byte of a bool) and the rest of b. ok is false if b
// does not start with a well-formed value.
func nextValue[T wire.Encoded](b T) (k Kind, payload, rest T, ok bool) {
	if len(b) == 0 {
		return
	}
	k, b = Kind(b[0]), b[1:]
	var n int
	switch k {
	case KindString, KindBytes:
		l, sz, err := wire.Uvarint(b)
		if err != nil || uint64(len(b)-sz) < l {
			return
		}
		b = b[sz:]
		n = int(l)
	case KindInt:
		var err error
		if _, n, err = wire.Uvarint(b); err != nil {
			return
		}
	case KindFloat:
		n = 8
	case KindBool:
		n = 1
	default:
		return
	}
	if len(b) < n {
		return
	}
	return k, b[:n], b[n:], true
}

// checkValues validates a present values field without building any
// value. (An absent field is a tuple with no values; a present one
// carries at least its count.)
func checkValues(b []byte) error {
	n, sz, err := wire.Uvarint(b)
	if err != nil {
		return ErrCorrupt
	}
	b = b[sz:]
	for ; n > 0; n-- {
		_, _, rest, ok := nextValue(b)
		if !ok {
			return ErrCorrupt
		}
		b = rest
	}
	if len(b) != 0 {
		return ErrCorrupt
	}
	return nil
}

// decodeValues appends the values of a checked values field to into.
// Strings are converted with string(), which copies out of a []byte
// field and is free on a string one; bytes values are always copies.
func decodeValues[T wire.Encoded](b T, into Values) Values {
	n, sz, _ := wire.Uvarint(b)
	b = b[sz:]
	for ; n > 0; n-- {
		k, p, rest, _ := nextValue(b)
		switch k {
		case KindString:
			into = append(into, string(p))
		case KindBytes:
			cp := make([]byte, len(p))
			copy(cp, p)
			into = append(into, cp)
		case KindInt:
			into = append(into, intOf(p))
		case KindFloat:
			into = append(into, floatOf(p))
		case KindBool:
			into = append(into, p[0] != 0)
		}
		b = rest
	}
	return into
}

// intOf and floatOf decode the payload of an int or a float value.
func intOf[T wire.Encoded](p T) int64 {
	u, _, _ := wire.Uvarint(p)
	return wire.Unzigzag(u)
}

func floatOf[T wire.Encoded](p T) float64 {
	u, _ := wire.Fixed64(p)
	return math.Float64frombits(u)
}

// RawValues is a values field that DecodeHeader has checked, read in
// place. The typed getters decode only the value they are asked for and
// allocate nothing; String returns a substring of r. Like Values'
// accessors, they panic on a kind mismatch or an index out of range.
type RawValues string

// Len returns the number of values.
func (r RawValues) Len() int {
	n, _, _ := wire.Uvarint(r)
	return int(n)
}

// value returns the payload of value i, which must be of kind want.
func (r RawValues) value(i int, want Kind) RawValues {
	n, sz, _ := wire.Uvarint(r)
	if i < 0 || uint64(i) >= n {
		panic(fmt.Sprintf("tuple: value index %d out of range [0:%d]", i, n))
	}
	b := r[sz:]
	for j := 0; j < i; j++ {
		_, _, b, _ = nextValue(b)
	}
	k, p, _, _ := nextValue(b)
	if k != want {
		panic(fmt.Sprintf("tuple: value %d is %v, not %v", i, k, want))
	}
	return p
}

// String returns value i as a string aliasing r.
func (r RawValues) String(i int) string { return string(r.value(i, KindString)) }

// Int returns value i as an int64.
func (r RawValues) Int(i int) int64 { return intOf(r.value(i, KindInt)) }

// Float returns value i as a float64.
func (r RawValues) Float(i int) float64 { return floatOf(r.value(i, KindFloat)) }

// Bool returns value i as a bool.
func (r RawValues) Bool(i int) bool { return r.value(i, KindBool)[0] != 0 }

// Values materialises every value into a new slice. Strings alias r;
// bytes values are copies.
func (r RawValues) Values() Values { return decodeValues(r, make(Values, 0, r.Len())) }
