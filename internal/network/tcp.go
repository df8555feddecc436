package network

import (
	"bufio"
	"errors"
	"io"
	"net"
	"sync"

	"heron/internal/encoding/wire"
)

// TCPTransport carries frames over loopback or real network sockets. Each
// frame is a 4-byte big-endian length, a 1-byte kind, then the payload.
type TCPTransport struct{}

// Name implements Transport.
func (TCPTransport) Name() string { return "tcp" }

// tcpWriterSize is the bufio coalescing window. Frames whose header +
// payload exceed it bypass the copy into bufio entirely and go out as one
// vectored write (net.Buffers → writev on *net.TCPConn).
const tcpWriterSize = 64 << 10

type tcpConn struct {
	c  net.Conn
	mu sync.Mutex // serializes writers
	w  *bufio.Writer

	started   bool
	closeOnce sync.Once
	closeErr  error
	hdr       [headerSize]byte
	vec       net.Buffers // scratch for the vectored large-frame path
}

// Send implements Conn. Frames from concurrent senders are serialized by
// a mutex; the frame is flushed before returning so it departs now.
// Batch-aware callers use SendOwned + Flush instead.
func (t *tcpConn) Send(kind MsgKind, payload []byte) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.writeFrame(kind, payload); err != nil {
		return err
	}
	return t.mapErr(t.w.Flush())
}

// SendOwned implements Conn: the frame is written into the outgoing
// buffer without a flush, and buf is recycled immediately after (a TCP
// write never retains the payload). An outbox draining N frames performs
// N buffered writes and one Flush.
func (t *tcpConn) SendOwned(kind MsgKind, buf *wire.Buffer) error {
	t.mu.Lock()
	err := t.writeFrame(kind, buf.B)
	t.mu.Unlock()
	wire.PutBuffer(buf)
	return err
}

// Flush implements Conn.
func (t *tcpConn) Flush() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.mapErr(t.w.Flush())
}

// writeFrame stages one frame; the caller holds t.mu and decides when to
// flush. Frames larger than the bufio window are sent as a single
// vectored write (header + payload, writev on TCP) instead of being
// chunk-copied through the buffer.
func (t *tcpConn) writeFrame(kind MsgKind, payload []byte) error {
	if len(payload) > MaxFrameSize {
		return ErrFrameTooBig
	}
	putHeader(t.hdr[:], kind, len(payload))
	if headerSize+len(payload) > tcpWriterSize {
		if err := t.w.Flush(); err != nil {
			return t.mapErr(err)
		}
		t.vec = append(t.vec[:0], t.hdr[:], payload)
		if _, err := t.vec.WriteTo(t.c); err != nil {
			return t.mapErr(err)
		}
		return nil
	}
	if _, err := t.w.Write(t.hdr[:]); err != nil {
		return t.mapErr(err)
	}
	if _, err := t.w.Write(payload); err != nil {
		return t.mapErr(err)
	}
	return nil
}

func (t *tcpConn) mapErr(err error) error {
	if err == nil {
		return nil
	}
	if errors.Is(err, net.ErrClosed) || errors.Is(err, io.EOF) {
		return ErrClosed
	}
	return err
}

// Start implements Conn.
func (t *tcpConn) Start(h Handler) { t.StartOwned(recycling(h)) }

// StartOwned implements Conn: each frame is read into a fresh
// pooled buffer whose ownership passes to the handler. A second reader
// on one socket would split frames between them, so a second call panics.
func (t *tcpConn) StartOwned(h OwnedHandler) {
	if t.started {
		panic("network: Start called twice")
	}
	t.started = true
	go func() {
		r := bufio.NewReaderSize(t.c, 64<<10)
		var hdr [headerSize]byte
		for {
			if _, err := io.ReadFull(r, hdr[:]); err != nil {
				return
			}
			kind, n, err := parseHeader(hdr[:])
			if err != nil {
				_ = t.Close()
				return
			}
			buf := wire.GetBuffer()
			if _, err := io.ReadFull(r, buf.Sized(n)); err != nil {
				wire.PutBuffer(buf)
				return
			}
			h(kind, buf)
		}
	}()
}

// Close implements Conn.
func (t *tcpConn) Close() error {
	t.closeOnce.Do(func() { t.closeErr = t.c.Close() })
	return t.closeErr
}

type tcpListener struct {
	l net.Listener
}

// Accept implements Listener.
func (l tcpListener) Accept() (Conn, error) {
	c, err := l.l.Accept()
	if err != nil {
		if errors.Is(err, net.ErrClosed) {
			return nil, ErrClosed
		}
		return nil, err
	}
	return wrapTCP(c), nil
}

// Addr implements Listener.
func (l tcpListener) Addr() string { return l.l.Addr().String() }

// Close implements Listener.
func (l tcpListener) Close() error { return l.l.Close() }

func wrapTCP(c net.Conn) *tcpConn {
	if tc, ok := c.(*net.TCPConn); ok {
		_ = tc.SetNoDelay(true) // latency matters more than tinygram avoidance
	}
	return &tcpConn{c: c, w: bufio.NewWriterSize(c, tcpWriterSize)}
}

// Listen implements Transport. Use "127.0.0.1:0" for an ephemeral port.
func (TCPTransport) Listen(addr string) (Listener, error) {
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return tcpListener{l: l}, nil
}

// Dial implements Transport.
func (TCPTransport) Dial(addr string) (Conn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return wrapTCP(c), nil
}
