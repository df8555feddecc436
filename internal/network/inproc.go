package network

import (
	"fmt"
	"sync"

	"heron/internal/encoding/wire"
)

// InprocTransport connects components inside one process: a frame is
// delivered by calling the receiver's handler on the sender's goroutine.
// Send copies its payload, so the copy of a process boundary is kept and
// codec and batching comparisons stay honest; SendOwned hands the pooled
// buffer itself over. A handler that blocks blocks its sender, which is
// how backpressure propagates in-process.
type InprocTransport struct{}

// Name implements Transport.
func (InprocTransport) Name() string { return "inproc" }

type inprocConn struct {
	peer      *inprocConn
	closed    chan struct{} // shared by both ends
	closeOnce *sync.Once

	// mu is held while a frame is delivered to this end's handler, so
	// frames reach it one at a time, in send order.
	mu      sync.Mutex
	h       OwnedHandler  // set by StartOwned before started closes
	started chan struct{} // closed by StartOwned
}

func newInprocPair() (*inprocConn, *inprocConn) {
	closed, once := make(chan struct{}), new(sync.Once)
	a := &inprocConn{closed: closed, closeOnce: once, started: make(chan struct{})}
	b := &inprocConn{closed: closed, closeOnce: once, started: make(chan struct{})}
	a.peer, b.peer = b, a
	return a, b
}

// Send implements Conn. The payload is copied into a pooled buffer and
// delivered to the peer's handler.
func (c *inprocConn) Send(kind MsgKind, payload []byte) error {
	if len(payload) > MaxFrameSize {
		return ErrFrameTooBig
	}
	buf := wire.GetBuffer()
	buf.B = append(buf.B, payload...)
	return c.deliver(kind, buf)
}

// SendOwned implements Conn: the pooled buffer crosses to the peer's
// handler without a copy.
func (c *inprocConn) SendOwned(kind MsgKind, buf *wire.Buffer) error {
	if len(buf.B) > MaxFrameSize {
		wire.PutBuffer(buf)
		return ErrFrameTooBig
	}
	return c.deliver(kind, buf)
}

// Flush implements Conn: inproc delivery is immediate, nothing to flush.
func (c *inprocConn) Flush() error { return nil }

// deliver runs the peer's handler on the calling goroutine, once the peer
// has started, under its order mutex. After Close it recycles buf.
func (c *inprocConn) deliver(kind MsgKind, buf *wire.Buffer) error {
	p := c.peer
	select {
	case <-p.started:
	default:
		select { // the peer has not started: wait for it, or for Close
		case <-p.started:
		case <-c.closed:
		}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	select {
	case <-c.closed:
		wire.PutBuffer(buf)
		return ErrClosed
	default:
	}
	p.h(kind, buf)
	return nil
}

// Start implements Conn.
func (c *inprocConn) Start(h Handler) { c.StartOwned(recycling(h)) }

// StartOwned implements Conn: frames keep their pooled buffers, which
// pass to the handler without a copy. It starts no goroutine.
func (c *inprocConn) StartOwned(h OwnedHandler) {
	select {
	case <-c.started:
		panic("network: Start called twice")
	default:
	}
	c.h = h
	close(c.started)
}

// Close implements Conn. Closing either end closes both: pending Sends
// return ErrClosed and no handler starts afterwards.
func (c *inprocConn) Close() error {
	c.closeOnce.Do(func() { close(c.closed) })
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

// Close implements Listener and unregisters the address. Connections
// dialed but not yet accepted are closed, so their dialers' Sends, which
// wait for a Start that will never come, return ErrClosed.
func (l *inprocListener) Close() error {
	l.closeOnce.Do(func() {
		close(l.closed)
		inprocMu.Lock()
		if inprocListeners[l.addr] == l {
			delete(inprocListeners, l.addr)
		}
		inprocMu.Unlock()
		l.closeBacklog()
	})
	return nil
}

func (l *inprocListener) closeBacklog() {
	for {
		select {
		case c := <-l.backlog:
			c.Close()
		default:
			return
		}
	}
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
	case <-l.closed:
		return nil, ErrClosed
	}
	select {
	case <-l.closed: // Close may have swept the backlog before remote landed
		l.closeBacklog()
	default:
	}
	return local, nil
}
