package network

import (
	"math/bits"
	"runtime"
	"sync/atomic"
	"time"

	"heron/internal/encoding/wire"
)

// FrameRing is a bounded lock-free ring of owned frames (kind + pooled
// wire.Buffer): the Stream Manager's dispatch ring, fed by every receive
// handler and drained by its one worker. It is Vyukov's bounded MPMC
// queue, used single-consumer. Enqueue moves buffer ownership in and
// TryDequeue moves it out; a full ring blocks the producer (spin, then
// sleep), which is the backpressure primitive — over inproc that
// producer is the sending instance or peer itself.
//
// A ring can stamp one frame in sampleEvery with its enqueue time
// (NowNanos); the consumer observes NowNanos()-stamp as the
// queue-inclusive route latency.
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
