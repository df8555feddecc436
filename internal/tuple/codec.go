package tuple

import (
	"errors"
	"fmt"
	"math"

	"heron/internal/encoding/wire"
)

// Wire field numbers for DataTuple. DestTask must stay field 1: routers
// depend on finding it in the message prefix.
const (
	fieldDest   = 1
	fieldSrc    = 2
	fieldStream = 3
	fieldKey    = 4
	fieldRoots  = 5
	fieldValues = 6
)

// Wire field numbers for AckTuple.
const (
	ackFieldKind  = 1
	ackFieldSpout = 2
	ackFieldRoot  = 3
	ackFieldDelta = 4
)

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

// PeekDest returns the destination task of an encoded data tuple by
// scanning only the message prefix. It never copies or decodes the
// payload; this is the Stream Manager's lazy-deserialization fast path.
func PeekDest(b []byte) (int32, error) {
	f, ok, err := wire.FindField(b, fieldDest)
	if err != nil {
		return 0, err
	}
	if !ok {
		return 0, ErrCorrupt
	}
	v, err := f.Varint()
	if err != nil {
		return 0, err
	}
	return int32(v), nil
}

// RewriteDest updates the destination field of an encoded tuple in place
// when the new value encodes to the same varint width, and falls back to
// re-encoding the header otherwise. In-place update of Protocol Buffer
// objects is one of the Section V-A optimizations; routers use it when
// translating a logical destination into a physical task.
func RewriteDest(b []byte, dest int32) ([]byte, error) {
	f, ok, err := wire.FindField(b, fieldDest)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, ErrCorrupt
	}
	nv := wire.AppendUvarint(nil, uint64(uint32(dest)))
	if len(nv) == len(f.Data) {
		copy(f.Data, nv) // aliases b: true in-place update
		return b, nil
	}
	// Width changed: rebuild. Rare (task ids are stable-width in practice).
	out := make([]byte, 0, len(b)+2)
	out = wire.AppendVarintField(out, fieldDest, uint64(uint32(dest)))
	err = wire.Scan(b, func(fd wire.Field) bool {
		if fd.Num == fieldDest {
			return true
		}
		switch fd.Type {
		case wire.TypeVarint:
			out = wire.AppendTag(out, fd.Num, fd.Type)
			out = append(out, fd.Data...)
		case wire.TypeBytes:
			out = wire.AppendBytesField(out, fd.Num, fd.Data)
		default:
			out = wire.AppendTag(out, fd.Num, fd.Type)
			out = append(out, fd.Data...)
		}
		return true
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

func appendValues(dst []byte, vs Values) ([]byte, error) {
	dst = wire.AppendUvarint(dst, uint64(len(vs)))
	for _, x := range vs {
		k, err := KindOf(x)
		if err != nil {
			return nil, err
		}
		dst = append(dst, byte(k))
		switch v := x.(type) {
		case string:
			dst = wire.AppendUvarint(dst, uint64(len(v)))
			dst = append(dst, v...)
		case int64:
			dst = wire.AppendUvarint(dst, wire.Zigzag(v))
		case float64:
			u := math.Float64bits(v)
			dst = append(dst,
				byte(u), byte(u>>8), byte(u>>16), byte(u>>24),
				byte(u>>32), byte(u>>40), byte(u>>48), byte(u>>56))
		case bool:
			if v {
				dst = append(dst, 1)
			} else {
				dst = append(dst, 0)
			}
		case []byte:
			dst = wire.AppendUvarint(dst, uint64(len(v)))
			dst = append(dst, v...)
		}
	}
	return dst, nil
}

func encodeData(dst []byte, t *DataTuple, scratch []byte) ([]byte, []byte, error) {
	dst = wire.AppendVarintField(dst, fieldDest, uint64(uint32(t.DestTask)))
	dst = wire.AppendVarintField(dst, fieldSrc, uint64(uint32(t.SrcTask)))
	dst = wire.AppendVarintField(dst, fieldStream, uint64(uint32(t.StreamID)))
	if t.Key != 0 {
		dst = wire.AppendFixed64Field(dst, fieldKey, t.Key)
	}
	if len(t.Roots) > 0 {
		scratch = scratch[:0]
		for _, r := range t.Roots {
			scratch = append(scratch,
				byte(r), byte(r>>8), byte(r>>16), byte(r>>24),
				byte(r>>32), byte(r>>40), byte(r>>48), byte(r>>56))
		}
		dst = wire.AppendBytesField(dst, fieldRoots, scratch)
	}
	scratch = scratch[:0]
	vb, err := appendValues(scratch, t.Values)
	if err != nil {
		return nil, scratch, err
	}
	dst = wire.AppendBytesField(dst, fieldValues, vb)
	return dst, vb, nil
}

// DecodeHeader decodes everything of an encoded data tuple but its
// values into t, leaving t.Values empty, and returns the encoded values
// field. It checks that field in one walk of kinds and lengths, so a
// corrupt tuple fails here; RawValues may then read the field without
// checks. The returned slice aliases b; nil means no values.
func DecodeHeader(b []byte, t *DataTuple) ([]byte, error) {
	t.Reset()
	var vals []byte
	var scanErr error
	err := wire.Scan(b, func(f wire.Field) bool {
		switch f.Num {
		case fieldDest:
			v, err := f.Varint()
			if err != nil {
				scanErr = err
				return false
			}
			t.DestTask = int32(v)
		case fieldSrc:
			v, err := f.Varint()
			if err != nil {
				scanErr = err
				return false
			}
			t.SrcTask = int32(v)
		case fieldStream:
			v, err := f.Varint()
			if err != nil {
				scanErr = err
				return false
			}
			t.StreamID = int32(v)
		case fieldKey:
			v, err := wire.Fixed64(f.Data)
			if err != nil {
				scanErr = err
				return false
			}
			t.Key = v
		case fieldRoots:
			if len(f.Data)%8 != 0 {
				scanErr = ErrCorrupt
				return false
			}
			for i := 0; i < len(f.Data); i += 8 {
				r, _ := wire.Fixed64(f.Data[i:])
				t.Roots = append(t.Roots, r)
			}
		case fieldValues:
			if err := checkValues(f.Data); err != nil {
				scanErr = err
				return false
			}
			vals = f.Data
		}
		return true
	})
	if err == nil {
		err = scanErr
	}
	if err != nil {
		return nil, err
	}
	return vals, nil
}

// decodeData is DecodeHeader followed by materialising the values.
func decodeData(b []byte, t *DataTuple) error {
	vals, err := DecodeHeader(b, t)
	if err != nil {
		return err
	}
	t.Values = decodeValues(vals, t.Values)
	return nil
}

// FastCodec is the optimized codec: pooled scratch space, lazy routing
// support, zero steady-state allocation on encode.
type FastCodec struct{}

// Name implements Codec.
func (FastCodec) Name() string { return "fast" }

// Lazy implements Codec: routers may PeekDest instead of decoding.
func (FastCodec) Lazy() bool { return true }

// Pooled implements Codec.
func (FastCodec) Pooled() bool { return true }

// EncodeData implements Codec using a pooled scratch buffer.
func (FastCodec) EncodeData(dst []byte, t *DataTuple) []byte {
	sb := wire.GetBuffer()
	out, scratch, err := encodeData(dst, t, sb.B)
	sb.B = scratch[:0] // keep any growth so the pool stays allocation-free
	wire.PutBuffer(sb)
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

// EncodeData implements Codec with deliberately allocation-heavy behaviour:
// a fresh scratch buffer and a fresh copy of the result, emulating the
// new/delete-per-message cost the paper's memory pools remove.
func (NaiveCodec) EncodeData(dst []byte, t *DataTuple) []byte {
	out, _, err := encodeData(nil, t, make([]byte, 0, 64))
	if err != nil {
		panic(err)
	}
	return append(dst, out...)
}

// DecodeData implements Codec; the shared decoder already materializes and
// copies every value, which is exactly the naive cost model.
func (NaiveCodec) DecodeData(b []byte, t *DataTuple) error { return decodeData(b, t) }

// EncodeAck appends an encoded AckTuple to dst.
func EncodeAck(dst []byte, a *AckTuple) []byte {
	dst = wire.AppendVarintField(dst, ackFieldKind, uint64(a.Kind))
	dst = wire.AppendVarintField(dst, ackFieldSpout, uint64(uint32(a.SpoutTask)))
	dst = wire.AppendFixed64Field(dst, ackFieldRoot, a.Root)
	dst = wire.AppendFixed64Field(dst, ackFieldDelta, a.Delta)
	return dst
}

// DecodeAck decodes b into a.
func DecodeAck(b []byte, a *AckTuple) error {
	*a = AckTuple{}
	var scanErr error
	err := wire.Scan(b, func(f wire.Field) bool {
		switch f.Num {
		case ackFieldKind:
			v, err := f.Varint()
			if err != nil {
				scanErr = err
				return false
			}
			a.Kind = AckKind(v)
		case ackFieldSpout:
			v, err := f.Varint()
			if err != nil {
				scanErr = err
				return false
			}
			a.SpoutTask = int32(v)
		case ackFieldRoot:
			v, err := wire.Fixed64(f.Data)
			if err != nil {
				scanErr = err
				return false
			}
			a.Root = v
		case ackFieldDelta:
			v, err := wire.Fixed64(f.Data)
			if err != nil {
				scanErr = err
				return false
			}
			a.Delta = v
		}
		return true
	})
	if err != nil {
		return err
	}
	return scanErr
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
