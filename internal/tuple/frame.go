package tuple

import (
	"heron/internal/encoding/wire"
)

// Data frames are the unit the Stream Manager moves: a destination task,
// a tuple count, and count length-prefixed encoded tuples. The
// destination leads the frame so a router can direct the whole batch
// after reading only a few bytes — the frame-level analogue of the
// tuple-level lazy deserialization.
//
//	frame := uvarint(destTask) uvarint(count) count×(uvarint(len) tuple)

// MixedFrameDest marks a frame whose tuples carry individual
// destinations: the router peeks each tuple's destination header instead
// of using the frame's. Instances use mixed frames to batch emits across
// destinations into one IPC send.
const MixedFrameDest int32 = -1

// AppendFrameHeader starts a frame for dest with count tuples.
func AppendFrameHeader(dst []byte, dest int32, count int) []byte {
	dst = wire.AppendUvarint(dst, uint64(uint32(dest)))
	return wire.AppendUvarint(dst, uint64(count))
}

// AppendFrameEntry appends one encoded tuple to a frame.
func AppendFrameEntry(dst []byte, tupleBytes []byte) []byte {
	dst = wire.AppendUvarint(dst, uint64(len(tupleBytes)))
	return append(dst, tupleBytes...)
}

// FrameDest reads only the destination of a frame: the router fast path.
func FrameDest(b []byte) (int32, error) {
	v, _, err := wire.Uvarint(b)
	if err != nil {
		return 0, err
	}
	return int32(v), nil
}

// FrameHeader reads a frame's destination and tuple count without
// touching the entries, returning the entry bytes that follow. The count
// lives in the header, so routers never need to walk a frame just to know
// how many tuples it carries.
func FrameHeader(b []byte) (dest int32, count int, rest []byte, err error) {
	d, n, err := wire.Uvarint(b)
	if err != nil {
		return 0, 0, nil, err
	}
	b = b[n:]
	c, n, err := wire.Uvarint(b)
	if err != nil {
		return 0, 0, nil, err
	}
	return int32(d), int(c), b[n:], nil
}

// FrameFirstEntry returns the first encoded tuple of entry bytes produced
// by FrameHeader. The slice aliases rest.
func FrameFirstEntry(rest []byte) ([]byte, error) {
	l, n, err := wire.Uvarint(rest)
	if err != nil {
		return nil, err
	}
	rest = rest[n:]
	if uint64(len(rest)) < l {
		return nil, ErrCorrupt
	}
	return rest[:l], nil
}

// FrameHeaderReserve is the size of a reserved fixed-width frame header:
// a 5-byte padded varint each for destination and count (35 bits covers
// any int32). BeginFrame reserves it; PatchFrameHeader fills it once the
// batch is sealed. Decoders need no special handling — padded varints
// parse like minimal ones.
const FrameHeaderReserve = 10

// BeginFrame reserves header space at the tail of dst so a batch frame
// can be built directly in its final (pooled) send buffer, with the
// destination and count patched in when the batch is sealed. This removes
// the build-time copy of every tuple in the batch: entries are appended
// once and never moved again.
func BeginFrame(dst []byte) []byte {
	var pad [FrameHeaderReserve]byte
	return append(dst, pad[:]...)
}

// PatchFrameHeader writes dest and count into the space reserved by
// BeginFrame. b must point at the start of the reserved header.
func PatchFrameHeader(b []byte, dest int32, count int) {
	wire.PutUvarintFixed(b[:FrameHeaderReserve/2], uint64(uint32(dest)))
	wire.PutUvarintFixed(b[FrameHeaderReserve/2:FrameHeaderReserve], uint64(uint32(count)))
}

// WalkFrame parses a frame, invoking visit for each encoded tuple. The
// slices passed to visit alias b.
func WalkFrame(b []byte, visit func(tupleBytes []byte) error) (dest int32, count int, err error) {
	d, n, err := wire.Uvarint(b)
	if err != nil {
		return 0, 0, err
	}
	b = b[n:]
	c, n, err := wire.Uvarint(b)
	if err != nil {
		return 0, 0, err
	}
	b = b[n:]
	for i := uint64(0); i < c; i++ {
		l, n, err := wire.Uvarint(b)
		if err != nil {
			return 0, 0, err
		}
		b = b[n:]
		if uint64(len(b)) < l {
			return 0, 0, ErrCorrupt
		}
		if visit != nil {
			if err := visit(b[:l]); err != nil {
				return int32(d), int(c), err
			}
		}
		b = b[l:]
	}
	if len(b) != 0 {
		return 0, 0, ErrCorrupt
	}
	return int32(d), int(c), nil
}

// Ack frames batch control tuples: uvarint(count) then count
// length-prefixed encoded AckTuples. Every entry is AckSize bytes, but
// keeps its length prefix, so ack and data frames share AppendFrameEntry
// and the walk. Batching acks like data is part of the optimized Stream
// Manager.

// AppendAckFrameHeader starts an ack frame with count entries.
func AppendAckFrameHeader(dst []byte, count int) []byte {
	return wire.AppendUvarint(dst, uint64(count))
}

// AckFrameHeaderReserve is the fixed-width reserved ack-frame header: one
// 5-byte padded varint for the entry count.
const AckFrameHeaderReserve = 5

// BeginAckFrame reserves header space so an ack batch builds directly in
// its pooled send buffer; see BeginFrame.
func BeginAckFrame(dst []byte) []byte {
	var pad [AckFrameHeaderReserve]byte
	return append(dst, pad[:]...)
}

// PatchAckFrameHeader writes count into the space reserved by
// BeginAckFrame. b must point at the start of the reserved header.
func PatchAckFrameHeader(b []byte, count int) {
	wire.PutUvarintFixed(b[:AckFrameHeaderReserve], uint64(uint32(count)))
}

// WalkAckFrame parses an ack frame, invoking visit per encoded AckTuple.
func WalkAckFrame(b []byte, visit func(ackBytes []byte) error) error {
	c, n, err := wire.Uvarint(b)
	if err != nil {
		return err
	}
	b = b[n:]
	for i := uint64(0); i < c; i++ {
		l, n, err := wire.Uvarint(b)
		if err != nil {
			return err
		}
		b = b[n:]
		if uint64(len(b)) < l {
			return ErrCorrupt
		}
		if visit != nil {
			if err := visit(b[:l]); err != nil {
				return err
			}
		}
		b = b[l:]
	}
	if len(b) != 0 {
		return ErrCorrupt
	}
	return nil
}
