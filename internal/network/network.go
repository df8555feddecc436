// Package network is Heron's IPC kernel: the one non-replaceable layer of
// the architecture (the paper's "basic inter/intra process communication
// mechanisms" that every other module plugs into).
//
// It exposes a minimal connection abstraction — framed, kind-tagged byte
// messages — behind a Transport interface with three implementations:
//
//   - "tcp": real sockets with length-prefixed framing, used when
//     containers are separate processes or for realism in tests.
//   - "inproc": channel-backed connections for single-process deployments
//     and benchmarks. Payloads are still copied on Send, so every message
//     pays the serialize-copy-deserialize cost of a process boundary; only
//     the syscall is elided.
//   - "ring": a lock-free shared-memory ring of owned wire.Buffers for
//     same-host container pairs. SendOwned moves the pooled frame buffer
//     itself through a bounded Vyukov queue — no channel, no syscall, no
//     copy — so co-located containers bypass the TCP loopback entirely.
//
// Start handlers receive payload slices that are valid only for the
// duration of the call; receivers must copy anything they retain. This
// allows the transports to recycle receive buffers through the wire
// package's pools. StartOwned receivers instead own each received
// wire.Buffer: they may keep it past the call without copying and must
// recycle it with wire.PutBuffer when done. The Stream Manager and the
// instances receive this way.
//
// Conn carries two send disciplines. Send copies and flushes: the frame
// departs before the call returns, which is right for control traffic and
// for callers that reuse their scratch buffer. SendOwned transfers
// ownership of a pooled wire.Buffer to the connection and may coalesce
// the frame with neighbours until Flush — the Stream Manager's outbox
// drains N frames through SendOwned and ends the drain with a single
// Flush, so a batch crosses TCP as one buffered write + one flush instead
// of N per-frame flushes, and crosses inproc with no copy at all.
package network

import (
	"encoding/binary"
	"errors"
	"fmt"

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
// pooled buffer: the handler (or whatever it hands the buffer to) must
// eventually recycle it with wire.PutBuffer. This is the receive-side
// mirror of SendOwned — the Stream Manager uses it to move an inbound
// frame from the transport straight into its dispatch ring without a
// copy.
type OwnedHandler func(kind MsgKind, buf *wire.Buffer)

// Conn is a bidirectional, framed message connection.
type Conn interface {
	// Send enqueues one frame. It copies payload before returning and
	// blocks when the peer is slower than the sender — this blocking is
	// the engine's backpressure primitive. Returns ErrClosed after Close.
	Send(kind MsgKind, payload []byte) error
	// SendOwned transfers ownership of buf (a pooled frame buffer) to the
	// connection: the buffer is recycled via wire.PutBuffer once the frame
	// has been handed off — after the buffered write on TCP, after the
	// receiving handler returns on inproc. The caller must not touch buf
	// after the call, even on error. Unlike Send, the frame may sit in a
	// write buffer until Flush; callers streaming a batch end it with one
	// Flush. This is the zero-copy leg of the data path.
	SendOwned(kind MsgKind, buf *wire.Buffer) error
	// Flush pushes any frames coalesced by SendOwned onto the wire. It is
	// a no-op on transports that deliver immediately (inproc).
	Flush() error
	// Start begins delivering received frames to h from a dedicated
	// goroutine. Exactly one of Start and StartOwned must be called, once.
	Start(h Handler)
	// StartOwned is Start with ownership transfer: each received frame's
	// pooled buffer passes to h.
	StartOwned(h OwnedHandler)
	// Close tears the connection down and unblocks pending Sends.
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

// ByName returns the transport registered under name.
func ByName(name string) (Transport, error) {
	switch name {
	case "", "inproc":
		return InprocTransport{}, nil
	case "tcp":
		return TCPTransport{}, nil
	case "ring":
		return RingTransport{}, nil
	default:
		return nil, fmt.Errorf("network: unknown transport %q", name)
	}
}

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
