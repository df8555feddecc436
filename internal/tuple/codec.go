package tuple

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"heron/internal/encoding/wire"
)

// A data tuple has a fixed-offset header. Fixed-width fields are
// little-endian:
//
//	dest u32 | src uvarint | stream uvarint | n uvarint | key u64 (iff n&1) | roots (n>>1)×u64 | values
//
// n is len(roots)<<1 | (key != 0). The destination is the first four
// bytes, so a router reads it with one load (PeekDest). Task and stream
// ids travel as uint32(x), so -1 takes five bytes, not ten. values is the
// values field (values.go); it runs to the end of the entry, so it needs
// no tag or length, and it is absent when the tuple has no values. The
// roots sit right before the values: roots‖values is one contiguous
// slice of the entry, the body DecodeHeader returns and a bolt tuple
// copies once.

// ErrCorrupt reports an undecodable tuple payload.
var ErrCorrupt = errors.New("tuple: corrupt encoding")

// Codec serializes tuples. Implementations differ only in cost profile.
type Codec interface {
	// Name identifies the codec in configuration and benchmark output.
	Name() string
	// EncodeData appends the encoded tuple to dst and returns the extended
	// slice.
	EncodeData(dst []byte, t *DataTuple) []byte
	// DecodeData decodes b into t, replacing its contents.
	DecodeData(b []byte, t *DataTuple) error
	// Lazy reports whether routers may use PeekDest on this codec's output
	// instead of a full decode/re-encode cycle.
	Lazy() bool
	// Pooled reports whether callers should use pooled buffers/objects with
	// this codec.
	Pooled() bool
}

// PeekDest returns the destination task of an encoded data tuple: its
// first four bytes. It never copies or decodes the rest; this is the
// Stream Manager's lazy-deserialization fast path.
func PeekDest(b []byte) (int32, error) {
	if len(b) < 4 {
		return 0, ErrCorrupt
	}
	return int32(binary.LittleEndian.Uint32(b)), nil
}

func appendValues(dst []byte, vs Values) ([]byte, error) {
	dst = wire.AppendUvarint(dst, uint64(len(vs)))
	for _, x := range vs {
		switch v := x.(type) {
		case string:
			dst = append(dst, byte(KindString))
			dst = wire.AppendUvarint(dst, uint64(len(v)))
			dst = append(dst, v...)
		case int64:
			dst = append(dst, byte(KindInt))
			dst = wire.AppendUvarint(dst, wire.Zigzag(v))
		case float64:
			dst = append(dst, byte(KindFloat))
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
		case bool:
			var b byte
			if v {
				b = 1
			}
			dst = append(dst, byte(KindBool), b)
		case []byte:
			dst = append(dst, byte(KindBytes))
			dst = wire.AppendUvarint(dst, uint64(len(v)))
			dst = append(dst, v...)
		default:
			_, err := KindOf(x)
			return nil, err
		}
	}
	return dst, nil
}

func encodeData(dst []byte, t *DataTuple) ([]byte, error) {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(t.DestTask))
	dst = wire.AppendUvarint(dst, uint64(uint32(t.SrcTask)))
	dst = wire.AppendUvarint(dst, uint64(uint32(t.StreamID)))
	n := uint64(len(t.Roots)) << 1
	if t.Key != 0 {
		n |= 1
	}
	dst = wire.AppendUvarint(dst, n)
	if t.Key != 0 {
		dst = binary.LittleEndian.AppendUint64(dst, t.Key)
	}
	for _, r := range t.Roots {
		dst = binary.LittleEndian.AppendUint64(dst, r)
	}
	if len(t.Values) == 0 {
		return dst, nil
	}
	return appendValues(dst, t.Values)
}

// DecodeHeader decodes everything of an encoded data tuple but its
// values into t, leaving t.Values empty, and returns the tuple's body:
// its roots, 8 little-endian bytes each, then its values field, which
// starts at 8*len(t.Roots). It checks the values field in one walk of
// kinds and lengths, so a corrupt tuple fails here; RawValues may then
// read the field without checks. The body aliases b.
func DecodeHeader(b []byte, t *DataTuple) ([]byte, error) {
	t.Reset()
	if len(b) < 4 {
		return nil, ErrCorrupt
	}
	t.DestTask = int32(binary.LittleEndian.Uint32(b))
	b = b[4:]
	var h [3]uint64 // src, stream, n
	for i := range h {
		v, sz, err := wire.Uvarint(b)
		if err != nil {
			return nil, ErrCorrupt
		}
		h[i], b = v, b[sz:]
	}
	t.SrcTask, t.StreamID = int32(h[0]), int32(h[1])
	n := h[2]
	if n&1 != 0 {
		if len(b) < 8 {
			return nil, ErrCorrupt
		}
		t.Key, b = binary.LittleEndian.Uint64(b), b[8:]
	}
	nroots := n >> 1
	if uint64(len(b))/8 < nroots {
		return nil, ErrCorrupt
	}
	for i := 0; i < int(nroots); i++ {
		t.Roots = append(t.Roots, binary.LittleEndian.Uint64(b[8*i:]))
	}
	if vals := b[8*nroots:]; len(vals) > 0 {
		if err := checkValues(vals); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// decodeData is DecodeHeader followed by materialising the values.
func decodeData(b []byte, t *DataTuple) error {
	body, err := DecodeHeader(b, t)
	if err != nil {
		return err
	}
	t.Values = decodeValues(body[8*len(t.Roots):], t.Values)
	return nil
}

// FastCodec is the optimized codec: it encodes straight into the
// caller's buffer, with zero steady-state allocation, and supports lazy
// routing.
type FastCodec struct{}

// Name implements Codec.
func (FastCodec) Name() string { return "fast" }

// Lazy implements Codec: routers may PeekDest instead of decoding.
func (FastCodec) Lazy() bool { return true }

// Pooled implements Codec.
func (FastCodec) Pooled() bool { return true }

// EncodeData implements Codec, appending straight into dst.
func (FastCodec) EncodeData(dst []byte, t *DataTuple) []byte {
	out, err := encodeData(dst, t)
	if err != nil {
		// Unsupported value types are a programming error in the topology;
		// surface it loudly rather than silently dropping data.
		panic(err)
	}
	return out
}

// DecodeData implements Codec.
func (FastCodec) DecodeData(b []byte, t *DataTuple) error { return decodeData(b, t) }

// NaiveCodec mirrors the unoptimized serialization path of Figures 5–9:
// identical wire bytes, but every operation allocates fresh memory and
// routers must fully decode and re-encode (Lazy() == false).
type NaiveCodec struct{}

// Name implements Codec.
func (NaiveCodec) Name() string { return "naive" }

// Lazy implements Codec: routers must decode + re-encode per hop.
func (NaiveCodec) Lazy() bool { return false }

// Pooled implements Codec: callers allocate per message.
func (NaiveCodec) Pooled() bool { return false }

// EncodeData implements Codec with deliberately allocation-heavy
// behaviour: a buffer grown fresh from nil and a fresh copy of the
// result, emulating the new/delete-per-message cost the paper's memory
// pools remove.
func (NaiveCodec) EncodeData(dst []byte, t *DataTuple) []byte {
	out, err := encodeData(nil, t)
	if err != nil {
		panic(err)
	}
	return append(dst, out...)
}

// DecodeData implements Codec; the shared decoder already materializes and
// copies every value, which is exactly the naive cost model.
func (NaiveCodec) DecodeData(b []byte, t *DataTuple) error { return decodeData(b, t) }

// AckSize is the length of an encoded AckTuple. Acks have a fixed
// layout, little-endian, so a decoder reads every field at a known offset:
//
//	kind u8 | spout u32 | root u64 | delta u64
const AckSize = 21

// EncodeAck appends an encoded AckTuple to dst.
func EncodeAck(dst []byte, a *AckTuple) []byte {
	dst = append(dst, byte(a.Kind))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(a.SpoutTask))
	dst = binary.LittleEndian.AppendUint64(dst, a.Root)
	return binary.LittleEndian.AppendUint64(dst, a.Delta)
}

// DecodeAck decodes b into a. Any b whose length is not AckSize is
// ErrCorrupt.
func DecodeAck(b []byte, a *AckTuple) error {
	if len(b) != AckSize {
		return ErrCorrupt
	}
	a.Kind = AckKind(b[0])
	a.SpoutTask = int32(binary.LittleEndian.Uint32(b[1:5]))
	a.Root = binary.LittleEndian.Uint64(b[5:13])
	a.Delta = binary.LittleEndian.Uint64(b[13:AckSize])
	return nil
}

// ByName returns the codec registered under name ("fast" or "naive").
func ByName(name string) (Codec, error) {
	switch name {
	case "", "fast":
		return FastCodec{}, nil
	case "naive":
		return NaiveCodec{}, nil
	default:
		return nil, fmt.Errorf("tuple: unknown codec %q", name)
	}
}
