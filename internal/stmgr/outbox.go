package stmgr

import (
	"sync"

	"heron/internal/encoding/wire"
	"heron/internal/network"
)

// outbox decouples the Stream Manager's routing path from slow receivers:
// frames are queued without bound and drained by a dedicated sender
// goroutine. Unbounded queueing removes the emit↔deliver deadlock a
// bounded ring would allow in cyclic topologies; memory is kept in check
// by the backpressure watermark (the Stream Manager pauses spouts when
// any outbox grows past the high-water mark, Heron's spout-based
// backpressure).
//
// The queue is allocation-free in steady state: payloads live in pooled
// wire.Buffers whose ownership flows enqueue → sender → Conn.SendOwned →
// pool, and the two batch arrays ping-pong between the producer and the
// sender. A drained batch of N frames ends with exactly one Conn.Flush,
// so a burst crosses TCP as one buffered write sequence + one flush.
type outbox struct {
	conn network.Conn

	mu     sync.Mutex
	cond   *sync.Cond
	queue  []frame
	spare  []frame // recycled batch array, swapped back in by the sender
	closed bool

	// onDepth, when set, observes queue depth after every enqueue/dequeue
	// so the owner can trigger backpressure transitions.
	onDepth func(depth int)
	// onSent, when set, observes the payload size of every delivered
	// frame (the stmgr.bytes-sent counter).
	onSent func(bytes int)

	wg sync.WaitGroup
}

type frame struct {
	kind network.MsgKind
	buf  *wire.Buffer // owned by the outbox until handed to the conn
}

func newOutbox(conn network.Conn, onDepth, onSent func(int)) *outbox {
	o := &outbox{conn: conn, onDepth: onDepth, onSent: onSent}
	o.cond = sync.NewCond(&o.mu)
	o.wg.Add(1)
	go o.run()
	return o
}

// enqueue copies payload into a pooled buffer and schedules it for
// delivery.
func (o *outbox) enqueue(kind network.MsgKind, payload []byte) {
	buf := wire.GetBuffer()
	buf.B = append(buf.B, payload...)
	o.enqueueOwned(kind, buf)
}

// control schedules a control frame without reporting the queue's depth
// to onDepth: the Stream Manager sends control frames under the locks its
// depth observer takes, and the next data frame or drained batch reports
// the depth anyway.
func (o *outbox) control(payload []byte) {
	buf := wire.GetBuffer()
	buf.B = append(buf.B, payload...)
	o.push(network.MsgControl, buf, nil)
}

// enqueueOwned schedules a frame whose buffer ownership transfers to the
// outbox — the zero-copy path for freshly built batch frames. The buffer
// is recycled after delivery (or immediately if the outbox is closed).
func (o *outbox) enqueueOwned(kind network.MsgKind, buf *wire.Buffer) {
	o.push(kind, buf, o.onDepth)
}

// push queues a frame and reports the queue's new depth to onDepth, when
// set; a closed outbox recycles buf and reports nothing.
func (o *outbox) push(kind network.MsgKind, buf *wire.Buffer, onDepth func(int)) {
	o.mu.Lock()
	if o.closed {
		o.mu.Unlock()
		wire.PutBuffer(buf)
		return
	}
	if o.queue == nil && o.spare != nil {
		o.queue, o.spare = o.spare, nil
	}
	o.queue = append(o.queue, frame{kind, buf})
	depth := len(o.queue)
	o.mu.Unlock()
	o.cond.Signal()
	if onDepth != nil {
		onDepth(depth)
	}
}

func (o *outbox) run() {
	defer o.wg.Done()
	for {
		o.mu.Lock()
		for len(o.queue) == 0 && !o.closed {
			o.cond.Wait()
		}
		if o.closed && len(o.queue) == 0 {
			o.mu.Unlock()
			return
		}
		// Take the whole queue as one batch to amortize lock traffic and
		// the transport flush.
		batch := o.queue
		o.queue = nil
		o.mu.Unlock()
		err := o.sendBatch(batch)
		if err == nil {
			err = o.conn.Flush() // one flush per drained batch
		}
		if err != nil {
			o.park()
			return
		}
		// Hand the drained array back for the producer to refill.
		for i := range batch {
			batch[i] = frame{}
		}
		o.mu.Lock()
		if o.spare == nil || cap(batch) > cap(o.spare) {
			o.spare = batch[:0]
		}
		depth := len(o.queue)
		o.mu.Unlock()
		if o.onDepth != nil {
			o.onDepth(depth)
		}
	}
}

// sendBatch streams one batch through the conn without flushing. On error
// the remaining buffers are recycled; the caller parks the outbox.
func (o *outbox) sendBatch(batch []frame) error {
	for i, f := range batch {
		if o.onSent != nil {
			o.onSent(len(f.buf.B))
		}
		if err := o.conn.SendOwned(f.kind, f.buf); err != nil {
			for _, rest := range batch[i+1:] {
				wire.PutBuffer(rest.buf)
			}
			return err
		}
	}
	return nil
}

// park drops everything after a send error: the receiver is gone, so the
// queue is recycled and the outbox stays closed until its owner reaps it.
func (o *outbox) park() {
	o.mu.Lock()
	for _, f := range o.queue {
		wire.PutBuffer(f.buf)
	}
	o.queue = nil
	o.closed = true
	o.mu.Unlock()
}

// depth returns the current queue length.
func (o *outbox) depth() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return len(o.queue)
}

// close stops the sender after draining what is already queued.
func (o *outbox) close() {
	o.mu.Lock()
	o.closed = true
	o.mu.Unlock()
	o.cond.Broadcast()
	o.wg.Wait()
}
