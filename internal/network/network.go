// Package network is Heron's IPC kernel: the one non-replaceable layer of
// the architecture (the paper's "basic inter/intra process communication
// mechanisms" that every other module plugs into).
//
// It exposes a minimal connection abstraction — framed, kind-tagged byte
// messages — behind a Transport interface with two implementations:
//
//   - "tcp": real sockets with length-prefixed framing, used when
//     containers are separate processes or for realism in tests. Each
//     connection end runs one reader goroutine that calls the handler.
//   - "inproc" (alias "ring"): for single-process deployments and
//     benchmarks. A frame is delivered by calling the receiver's handler
//     on the sender's goroutine — no queue, no reader goroutine.
//
// Start handlers receive payload slices valid only for the duration of
// the call, so transports can recycle receive buffers through the wire
// package's pools. StartOwned handlers own each received wire.Buffer and
// recycle it with wire.PutBuffer when done; the Stream Manager and the
// instances receive this way.
//
// Conn carries two send disciplines. Send copies and flushes: the frame
// departs before the call returns, which suits control traffic and
// callers that reuse their scratch buffer. SendOwned transfers a pooled
// wire.Buffer and may coalesce the frame with neighbours until Flush, so
// the Stream Manager's outbox drains a batch across TCP as buffered
// writes and one flush, and across inproc with no copy at all.
package network

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"heron/internal/encoding/wire"
)

// MsgKind tags the content of a frame so a single connection can carry
// data tuples, acks and control messages.
type MsgKind uint8

// Frame kinds.
const (
	MsgData    MsgKind = 1 // batch of encoded data tuples
	MsgAck     MsgKind = 2 // batch of encoded ack/fail control tuples
	MsgControl MsgKind = 3 // control plane (registration, plans, metrics)
	MsgMarker  MsgKind = 4 // checkpoint epoch marker (barrier alignment)
	// MsgCommitted notifies an instance that a checkpoint epoch globally
	// committed (the second phase of transactional sources/sinks). It uses
	// the marker payload encoding and, like markers, must not overtake data
	// already batched for the same destination.
	MsgCommitted MsgKind = 5
)

// MaxFrameSize bounds a single frame; larger sends fail fast instead of
// letting a corrupted length header allocate unbounded memory on receive.
const MaxFrameSize = 16 << 20

// Errors shared by transports.
var (
	ErrClosed      = errors.New("network: connection closed")
	ErrFrameTooBig = fmt.Errorf("network: frame exceeds %d bytes", MaxFrameSize)
)

// Handler consumes one received frame. The payload slice is reused after
// the handler returns.
type Handler func(kind MsgKind, payload []byte)

// OwnedHandler consumes one received frame and takes ownership of its
// pooled buffer, which it (or whatever it hands the buffer to) must
// recycle with wire.PutBuffer: the receive-side mirror of SendOwned.
type OwnedHandler func(kind MsgKind, buf *wire.Buffer)

// Conn is a bidirectional, framed message connection.
//
// Frames of one direction reach the receiving handler one at a time and
// in send order. TCP runs the handler on the connection's reader
// goroutine; inproc runs it on the goroutine that called Send or
// SendOwned, so an inproc handler's own sends run further handlers on
// that same goroutine. A handler may reply on its own connection, but no
// handler reached that way may send back into the end being delivered
// to: that end's order lock is still held, and the send would wait for
// it forever.
type Conn interface {
	// Send transmits one frame. It copies payload before returning and
	// blocks when the peer is slower than the sender — this blocking is
	// the engine's backpressure primitive. On inproc it returns when the
	// peer's handler does, and waits for the peer's Start if it has not
	// happened yet. Returns ErrClosed after Close.
	Send(kind MsgKind, payload []byte) error
	// SendOwned transfers ownership of buf (a pooled frame buffer) to the
	// connection: TCP recycles it after the buffered write, inproc passes
	// it to the receiving handler. The caller must not touch buf after the
	// call, even on error. Unlike Send, the frame may sit in a write
	// buffer until Flush; callers streaming a batch end it with one Flush.
	// This is the zero-copy leg of the data path.
	SendOwned(kind MsgKind, buf *wire.Buffer) error
	// Flush pushes any frames coalesced by SendOwned onto the wire. It is
	// a no-op on transports that deliver immediately (inproc).
	Flush() error
	// Start begins delivering received frames to h: from the
	// connection's reader goroutine on TCP, on the sender's goroutine on
	// inproc. Exactly one of Start and StartOwned must be called, once; a
	// second call panics.
	Start(h Handler)
	// StartOwned is Start with ownership transfer: each received frame's
	// pooled buffer passes to h.
	StartOwned(h OwnedHandler)
	// Close tears the connection down and unblocks pending Sends. On
	// inproc it closes both ends, and no handler starts after it returns.
	Close() error
}

// Listener accepts inbound connections.
type Listener interface {
	// Accept blocks for the next connection; it returns ErrClosed once the
	// listener is closed.
	Accept() (Conn, error)
	// Addr returns the bound address in the transport's own format.
	Addr() string
	Close() error
}

// Transport creates listeners and connections for one address family.
type Transport interface {
	Name() string
	Listen(addr string) (Listener, error)
	Dial(addr string) (Conn, error)
}

// ByName returns the transport registered under name. "ring" is an alias
// of "inproc".
func ByName(name string) (Transport, error) {
	switch name {
	case "", "inproc", "ring":
		return InprocTransport{}, nil
	case "tcp":
		return TCPTransport{}, nil
	default:
		return nil, fmt.Errorf("network: unknown transport %q", name)
	}
}

// recycling adapts h to an OwnedHandler that recycles each buffer once h
// returns: every transport's Start.
func recycling(h Handler) OwnedHandler {
	return func(kind MsgKind, buf *wire.Buffer) {
		h(kind, buf.B)
		wire.PutBuffer(buf)
	}
}

// clockEpoch anchors NowNanos; time.Since reads the monotonic clock.
var clockEpoch = time.Now()

// NowNanos is a monotonic nanosecond clock for latency stamps carried
// across goroutines: the Stream Manager stamps dispatched frames with it
// and the spout stamps emits. Subtract a stamp from NowNanos() to get the
// time in flight.
func NowNanos() int64 { return int64(time.Since(clockEpoch)) }

// frame header: 4-byte big-endian payload length + 1-byte kind.
const headerSize = 5

func putHeader(dst []byte, kind MsgKind, n int) {
	binary.BigEndian.PutUint32(dst, uint32(n))
	dst[4] = byte(kind)
}

func parseHeader(src []byte) (MsgKind, int, error) {
	n := int(binary.BigEndian.Uint32(src))
	if n > MaxFrameSize {
		return 0, 0, ErrFrameTooBig
	}
	return MsgKind(src[4]), n, nil
}
