package network

import (
	"fmt"
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"heron/internal/encoding/wire"
)

// FrameRing is a bounded lock-free ring of owned frames (kind + pooled
// wire.Buffer), the shared-memory primitive behind both the "ring"
// transport and the Stream Manager's dispatch ring.
//
// The implementation is Vyukov's bounded MPMC queue, so any number of
// producers may Enqueue concurrently; the consumer side is used
// single-consumer (SPSC in steady state). Enqueue transfers buffer
// ownership into the ring; TryDequeue transfers it out to the caller. A
// full ring blocks the producer (spin, then sleep) — that blocking is the
// backpressure primitive, exactly like a full inproc inbox or a slow TCP
// peer.
//
// Each ring can stamp a deterministic 1-in-sampleEvery subset of frames
// with a monotonic enqueue time (NowNanos); the consumer reads the stamp
// from TryDequeue and observes NowNanos()-stamp as the queue-inclusive
// route latency. Sampling keeps the clock call off seven of every eight
// frames.
type FrameRing struct {
	mask  uint64
	cells []frameCell

	enqueuePos atomic.Uint64
	_          [56]byte // keep producer and consumer positions off one cache line
	dequeuePos atomic.Uint64
	_          [56]byte

	sampleEvery uint64 // 0 disables stamping
	sampleCtr   atomic.Uint64

	closed   atomic.Bool
	sleeping atomic.Bool
	notify   chan struct{}
	timer    *time.Timer // Await's; the consumer's alone
}

type frameCell struct {
	seq   atomic.Uint64
	kind  MsgKind
	stamp int64 // NowNanos at enqueue; 0 when unsampled
	buf   *wire.Buffer
}

// ringEpoch anchors NowNanos; time.Since reads the monotonic clock.
var ringEpoch = time.Now()

// NowNanos is the monotonic nanosecond clock FrameRing stamps frames
// with. Consumers subtract a frame's stamp from NowNanos() to get its
// time in flight.
func NowNanos() int64 { return int64(time.Since(ringEpoch)) }

// NewFrameRing creates a ring holding up to capacity frames (rounded up
// to a power of two, minimum 2). sampleEvery > 0 stamps every
// sampleEvery-th enqueued frame with its enqueue time; 0 disables
// stamping.
func NewFrameRing(capacity, sampleEvery int) *FrameRing {
	if capacity < 2 {
		capacity = 2
	}
	capacity = 1 << bits.Len64(uint64(capacity-1)) // next power of two
	r := &FrameRing{
		mask:        uint64(capacity - 1),
		cells:       make([]frameCell, capacity),
		sampleEvery: uint64(sampleEvery),
		notify:      make(chan struct{}, 1),
	}
	for i := range r.cells {
		r.cells[i].seq.Store(uint64(i))
	}
	return r
}

// Enqueue moves one owned frame into the ring, blocking while the ring is
// full. After Close it recycles buf and returns ErrClosed. The caller
// must not touch buf after the call, even on error.
func (r *FrameRing) Enqueue(kind MsgKind, buf *wire.Buffer) error {
	var idle int
	for {
		if r.closed.Load() {
			wire.PutBuffer(buf)
			return ErrClosed
		}
		pos := r.enqueuePos.Load()
		cell := &r.cells[pos&r.mask]
		seq := cell.seq.Load()
		switch diff := int64(seq) - int64(pos); {
		case diff == 0:
			if !r.enqueuePos.CompareAndSwap(pos, pos+1) {
				continue // lost the slot to another producer
			}
			cell.kind, cell.buf, cell.stamp = kind, buf, 0
			if r.sampleEvery > 0 && r.sampleCtr.Add(1)%r.sampleEvery == 0 {
				cell.stamp = NowNanos()
			}
			cell.seq.Store(pos + 1) // publish to the consumer
			r.wake()
			return nil
		case diff < 0:
			// Ring full: the consumer hasn't freed this cell yet. Spin
			// briefly, then sleep — producer blocking is backpressure.
			if idle++; idle < 64 {
				runtime.Gosched()
			} else {
				time.Sleep(20 * time.Microsecond)
			}
		default:
			// Another producer claimed pos but hasn't published; retry.
			runtime.Gosched()
		}
	}
}

// TryDequeue removes the oldest frame, transferring buffer ownership to
// the caller. stamp is the frame's enqueue time (0 when unsampled). Only
// one goroutine may consume.
func (r *FrameRing) TryDequeue() (kind MsgKind, stamp int64, buf *wire.Buffer, ok bool) {
	pos := r.dequeuePos.Load()
	cell := &r.cells[pos&r.mask]
	if int64(cell.seq.Load())-int64(pos+1) != 0 {
		return 0, 0, nil, false
	}
	kind, stamp, buf = cell.kind, cell.stamp, cell.buf
	cell.buf = nil
	cell.seq.Store(pos + r.mask + 1) // release the cell to producers
	r.dequeuePos.Store(pos + 1)
	return kind, stamp, buf, true
}

// Await parks the consumer until a frame may be available, the ring is
// closed, or timeout elapses. It returns true when a frame is ready.
func (r *FrameRing) Await(timeout time.Duration) bool {
	if r.ready() {
		return true
	}
	r.sleeping.Store(true)
	// Recheck after announcing sleep so a concurrent Enqueue either sees
	// sleeping=true and notifies, or its frame is visible here.
	if r.ready() || r.closed.Load() {
		r.sleeping.Store(false)
		return r.ready()
	}
	// One timer per ring, reused: a consumer of a paced stream parks
	// thousands of times a second.
	if r.timer == nil {
		r.timer = time.NewTimer(timeout)
	} else {
		r.timer.Reset(timeout)
	}
	select {
	case <-r.notify:
		if !r.timer.Stop() {
			// Fired meanwhile. Drain what is there; a tick that lands later
			// only ends the next Await early, which callers tolerate.
			select {
			case <-r.timer.C:
			default:
			}
		}
	case <-r.timer.C:
	}
	r.sleeping.Store(false)
	return r.ready()
}

func (r *FrameRing) ready() bool {
	pos := r.dequeuePos.Load()
	return int64(r.cells[pos&r.mask].seq.Load())-int64(pos+1) == 0
}

func (r *FrameRing) wake() {
	if r.sleeping.Load() {
		select {
		case r.notify <- struct{}{}:
		default:
		}
	}
}

// Closed reports whether Close has been called.
func (r *FrameRing) Closed() bool { return r.closed.Load() }

// Close marks the ring closed and wakes the consumer. Frames already in
// the ring remain dequeueable; the consumer finishes with Drain. Safe to
// call more than once.
func (r *FrameRing) Close() {
	r.closed.Store(true)
	select {
	case r.notify <- struct{}{}:
	default:
	}
}

// Drain recycles every frame still in the ring, returning the count. The
// consumer calls it after Close; a produce racing the closed check can at
// worst strand a buffer for the GC (a pool miss, not a leak).
func (r *FrameRing) Drain() int {
	n := 0
	for {
		_, _, buf, ok := r.TryDequeue()
		if !ok {
			return n
		}
		wire.PutBuffer(buf)
		n++
	}
}

// RingTransport connects same-host container pairs through a pair of
// FrameRings — one per direction — so co-located containers exchange
// owned pooled buffers with no channel, no syscall and no copy. Like
// inproc it resolves addresses through an in-process registry; unlike
// inproc, SendOwned is a lock-free ring slot claim and the receive path
// hands the pooled buffer itself to OwnedHandler consumers.
type RingTransport struct{}

// Name implements Transport.
func (RingTransport) Name() string { return "ring" }

// ringFrames is the per-direction ring depth; a full ring blocks the
// sender, which is how backpressure propagates between co-located
// containers.
const ringFrames = 1024

type ringConn struct {
	send      *FrameRing
	recv      *FrameRing
	started   bool
	closeOnce sync.Once
}

func newRingPair() (*ringConn, *ringConn) {
	ab := NewFrameRing(ringFrames, 0)
	ba := NewFrameRing(ringFrames, 0)
	return &ringConn{send: ab, recv: ba}, &ringConn{send: ba, recv: ab}
}

// Send implements Conn: the payload is copied into a pooled buffer which
// then crosses the ring owned.
func (c *ringConn) Send(kind MsgKind, payload []byte) error {
	if len(payload) > MaxFrameSize {
		return ErrFrameTooBig
	}
	buf := wire.GetBuffer()
	buf.B = append(buf.B, payload...)
	return c.send.Enqueue(kind, buf)
}

// SendOwned implements Conn: the pooled buffer crosses to the peer with
// no copy — the zero-copy leg for same-host pairs.
func (c *ringConn) SendOwned(kind MsgKind, buf *wire.Buffer) error {
	if len(buf.B) > MaxFrameSize {
		wire.PutBuffer(buf)
		return ErrFrameTooBig
	}
	return c.send.Enqueue(kind, buf)
}

// Flush implements Conn: ring delivery is immediate.
func (c *ringConn) Flush() error { return nil }

// Start implements Conn.
func (c *ringConn) Start(h Handler) {
	c.StartOwned(func(kind MsgKind, buf *wire.Buffer) {
		h(kind, buf.B)
		wire.PutBuffer(buf)
	})
}

// ringPark is how long the consumer sleeps waiting for frames before
// rechecking the closed flag.
const ringPark = time.Millisecond

// StartOwned implements Conn.
func (c *ringConn) StartOwned(h OwnedHandler) {
	if c.started {
		panic("network: Start called twice")
	}
	c.started = true
	go func() {
		for {
			kind, _, buf, ok := c.recv.TryDequeue()
			if ok {
				h(kind, buf)
				continue
			}
			if c.recv.Closed() {
				c.recv.Drain()
				return
			}
			c.recv.Await(ringPark)
		}
	}()
}

// Close implements Conn: closing either end closes both directions,
// unblocking pending sends on each side.
func (c *ringConn) Close() error {
	c.closeOnce.Do(func() {
		c.send.Close()
		c.recv.Close()
	})
	return nil
}

type ringListener struct {
	addr      string
	backlog   chan *ringConn
	closed    chan struct{}
	closeOnce sync.Once
}

// Accept implements Listener.
func (l *ringListener) Accept() (Conn, error) {
	select {
	case c := <-l.backlog:
		return c, nil
	case <-l.closed:
		return nil, ErrClosed
	}
}

// Addr implements Listener.
func (l *ringListener) Addr() string { return l.addr }

// Close implements Listener and unregisters the address.
func (l *ringListener) Close() error {
	l.closeOnce.Do(func() {
		close(l.closed)
		ringMu.Lock()
		if ringListeners[l.addr] == l {
			delete(ringListeners, l.addr)
		}
		ringMu.Unlock()
	})
	return nil
}

var (
	ringMu        sync.Mutex
	ringListeners = map[string]*ringListener{}
	ringSeq       int
)

// Listen implements Transport. The empty address or "auto" auto-assigns a
// unique address, mirroring TCP's ephemeral ports.
func (RingTransport) Listen(addr string) (Listener, error) {
	ringMu.Lock()
	defer ringMu.Unlock()
	if addr == "" || addr == "auto" {
		ringSeq++
		addr = fmt.Sprintf("ring-%d", ringSeq)
	}
	if _, ok := ringListeners[addr]; ok {
		return nil, fmt.Errorf("network: ring address %q already bound", addr)
	}
	l := &ringListener{addr: addr, backlog: make(chan *ringConn, 128), closed: make(chan struct{})}
	ringListeners[addr] = l
	return l, nil
}

// Dial implements Transport.
func (RingTransport) Dial(addr string) (Conn, error) {
	ringMu.Lock()
	l, ok := ringListeners[addr]
	ringMu.Unlock()
	if !ok {
		return nil, fmt.Errorf("network: no ring listener at %q", addr)
	}
	local, remote := newRingPair()
	select {
	case l.backlog <- remote:
		return local, nil
	case <-l.closed:
		return nil, ErrClosed
	}
}
