package network

import (
	"fmt"
	"sync"

	"heron/internal/encoding/wire"
)

// InprocTransport connects components inside one process through buffered
// channels. Send copies its payload so the cost model of a process
// boundary (serialize, copy, deserialize) is preserved; benchmarks that
// compare codecs and batching remain honest under this transport.
// SendOwned, by contrast, hands the pooled frame buffer itself to the
// receiver — the zero-copy leg the optimized Stream Manager data path
// relies on: the buffer crosses the "boundary" untouched and is recycled
// after the receiving handler returns.
type InprocTransport struct{}

// Name implements Transport.
func (InprocTransport) Name() string { return "inproc" }

// inprocBufferedFrames is the per-connection inbox depth. A full inbox
// blocks the sender, which is how backpressure propagates in-process.
const inprocBufferedFrames = 1024

type inprocFrame struct {
	kind MsgKind
	buf  *wire.Buffer // pooled; recycled after the handler runs
}

type inprocConn struct {
	peer      *inprocConn
	inbox     chan inprocFrame
	closed    chan struct{}
	closeOnce sync.Once
	started   bool
}

func newInprocPair() (*inprocConn, *inprocConn) {
	a := &inprocConn{inbox: make(chan inprocFrame, inprocBufferedFrames), closed: make(chan struct{})}
	b := &inprocConn{inbox: make(chan inprocFrame, inprocBufferedFrames), closed: make(chan struct{})}
	a.peer, b.peer = b, a
	return a, b
}

// Send implements Conn. The payload is copied into a pooled buffer and
// handed to the peer's inbox.
func (c *inprocConn) Send(kind MsgKind, payload []byte) error {
	if len(payload) > MaxFrameSize {
		return ErrFrameTooBig
	}
	buf := wire.GetBuffer()
	buf.B = append(buf.B, payload...)
	return c.deliver(kind, buf)
}

// SendOwned implements Conn: the pooled buffer crosses to the peer
// without a copy and is recycled once the receiving handler returns.
func (c *inprocConn) SendOwned(kind MsgKind, buf *wire.Buffer) error {
	if len(buf.B) > MaxFrameSize {
		wire.PutBuffer(buf)
		return ErrFrameTooBig
	}
	return c.deliver(kind, buf)
}

// Flush implements Conn: inproc delivery is immediate, nothing to flush.
func (c *inprocConn) Flush() error { return nil }

func (c *inprocConn) deliver(kind MsgKind, buf *wire.Buffer) error {
	select {
	case c.peer.inbox <- inprocFrame{kind: kind, buf: buf}:
		return nil
	case <-c.closed:
		wire.PutBuffer(buf)
		return ErrClosed
	case <-c.peer.closed:
		wire.PutBuffer(buf)
		return ErrClosed
	}
}

// Start implements Conn.
func (c *inprocConn) Start(h Handler) {
	c.StartOwned(func(kind MsgKind, buf *wire.Buffer) {
		h(kind, buf.B)
		wire.PutBuffer(buf)
	})
}

// StartOwned implements Conn: received frames keep their pooled
// buffers, which pass to the handler without a copy.
func (c *inprocConn) StartOwned(h OwnedHandler) {
	if c.started {
		panic("network: Start called twice")
	}
	c.started = true
	go func() {
		for {
			select {
			case f := <-c.inbox:
				h(f.kind, f.buf)
			case <-c.closed:
				return
			}
		}
	}()
}

// Close implements Conn. Closing either end unblocks both.
func (c *inprocConn) Close() error {
	c.closeOnce.Do(func() { close(c.closed) })
	c.peer.closeOnce.Do(func() { close(c.peer.closed) })
	return nil
}

type inprocListener struct {
	addr      string
	backlog   chan *inprocConn
	closed    chan struct{}
	closeOnce sync.Once
}

// Accept implements Listener.
func (l *inprocListener) Accept() (Conn, error) {
	select {
	case c := <-l.backlog:
		return c, nil
	case <-l.closed:
		return nil, ErrClosed
	}
}

// Addr implements Listener.
func (l *inprocListener) Addr() string { return l.addr }

// Close implements Listener and unregisters the address.
func (l *inprocListener) Close() error {
	l.closeOnce.Do(func() {
		close(l.closed)
		inprocMu.Lock()
		if inprocListeners[l.addr] == l {
			delete(inprocListeners, l.addr)
		}
		inprocMu.Unlock()
	})
	return nil
}

var (
	inprocMu        sync.Mutex
	inprocListeners = map[string]*inprocListener{}
	inprocSeq       int
)

// Listen implements Transport. The empty address or a trailing ":0" style
// name auto-assigns a unique address, mirroring TCP's ephemeral ports.
func (InprocTransport) Listen(addr string) (Listener, error) {
	inprocMu.Lock()
	defer inprocMu.Unlock()
	if addr == "" || addr == "auto" {
		inprocSeq++
		addr = fmt.Sprintf("inproc-%d", inprocSeq)
	}
	if _, ok := inprocListeners[addr]; ok {
		return nil, fmt.Errorf("network: inproc address %q already bound", addr)
	}
	l := &inprocListener{addr: addr, backlog: make(chan *inprocConn, 128), closed: make(chan struct{})}
	inprocListeners[addr] = l
	return l, nil
}

// Dial implements Transport.
func (InprocTransport) Dial(addr string) (Conn, error) {
	inprocMu.Lock()
	l, ok := inprocListeners[addr]
	inprocMu.Unlock()
	if !ok {
		return nil, fmt.Errorf("network: no inproc listener at %q", addr)
	}
	local, remote := newInprocPair()
	select {
	case l.backlog <- remote:
		return local, nil
	case <-l.closed:
		return nil, ErrClosed
	}
}
