package stmgr

import (
	"heron/internal/core"
	"heron/internal/encoding/wire"
	"heron/internal/metrics"
	"heron/internal/network"
	"heron/internal/tuple"
)

// tupleCache is the Stream Manager's batching stage (paper Section V-B):
// tuples are accumulated per destination instance and flushed either when
// the batch reaches maxTuples or when the drain timer fires
// (cache_drain_frequency). Batching amortizes the per-frame cost of the
// IPC layer at the price of queueing latency — the tradeoff Figures 12
// and 13 sweep.
//
// Batches build directly inside pooled wire.Buffers with a reserved
// fixed-width header (tuple.BeginFrame / PatchFrameHeader): each tuple is
// appended once and never moved again. Sealing a batch transfers the
// buffer's ownership to the flush callback, which hands it down the
// outbox → Conn.SendOwned → pool chain. Neither the size-triggered nor
// the timer-triggered flush copies or allocates a frame. The buffers come
// from the cache's own wire.Pool and return to it, so a new batch starts
// in a buffer the size of an earlier frame, not in a small one from the
// shared pool that would have to grow.
//
// The cache belongs to the worker: every add, flushDest and drainAll runs
// on it, so nothing here is locked.
type tupleCache struct {
	batches   map[int32]*batchBuf
	buffered  int        // tuples in unsealed batches
	frames    *wire.Pool // the data frames built here come back here
	maxTuples int
	flush     func(dest int32, count int, buf *wire.Buffer)
}

// framePoolSize bounds the idle frames each cache keeps for reuse.
const framePoolSize = 64

// batchBuf is a frame under construction: a pooled buffer whose first
// bytes are a reserved header, patched when the batch seals.
type batchBuf struct {
	buf   *wire.Buffer // nil between batches
	count int
	// last and prev are the lengths of the two most recently sealed
	// frames. A batch starts with room for the longer of them: a new or
	// recycled buffer may be smaller than the next frame, and one
	// allocation at the expected size is half the bytes of the doubling
	// chain that appending up to that size costs.
	last, prev int
}

func newTupleCache(cfg *core.Config, flush func(dest int32, count int, buf *wire.Buffer)) *tupleCache {
	max := cfg.CacheMaxBatchTuples
	if max <= 0 {
		max = core.DefaultCacheMaxBatchTuples
	}
	return &tupleCache{
		batches:   map[int32]*batchBuf{},
		maxTuples: max,
		flush:     flush,
		frames:    wire.NewPool(framePoolSize),
	}
}

// seal patches b's reserved header and hands the finished frame to the
// flush callback, leaving b empty for the next tuple.
func (c *tupleCache) seal(dest int32, b *batchBuf) {
	tuple.PatchFrameHeader(b.buf.B, dest, b.count)
	buf, count := b.buf, b.count
	b.buf, b.count = nil, 0
	b.last, b.prev = len(buf.B), b.last
	c.buffered -= count
	c.flush(dest, count, buf)
}

// add caches one encoded tuple for dest, flushing if the batch is full.
func (c *tupleCache) add(dest int32, tupleBytes []byte) {
	b := c.batches[dest]
	if b == nil {
		b = &batchBuf{}
		c.batches[dest] = b
	}
	if b.buf == nil {
		b.buf = c.frames.Get()
		b.buf.B = tuple.BeginFrame(b.buf.Sized(max(b.last, b.prev))[:0])
	}
	b.buf.B = tuple.AppendFrameEntry(b.buf.B, tupleBytes)
	b.count++
	c.buffered++
	if b.count >= c.maxTuples {
		c.seal(dest, b)
	}
}

// flushDest seals and flushes the partial batch for one destination, if
// any. The marker path uses it so a checkpoint marker never overtakes
// tuples parked in the cache for the same task: the flushed frame and the
// marker join the same FIFO outbox in order.
func (c *tupleCache) flushDest(dest int32) {
	if b := c.batches[dest]; b != nil && b.count > 0 {
		c.seal(dest, b)
	}
}

// drainAll flushes every non-empty batch (the timer path), reusing the
// same seal-and-hand-off as the size trigger: no per-destination frame is
// allocated or copied here.
func (c *tupleCache) drainAll() {
	if c.buffered == 0 {
		return
	}
	for dest, b := range c.batches {
		if b.count > 0 {
			c.seal(dest, b)
		}
	}
}

// pendingFrameCap bounds how many early frames are parked per local task
// awaiting its instance registration.
const pendingFrameCap = 8192

// parkOrDeliver is the registration-race slow path, under s.mu. The
// snapshot showed no instance for dest; re-check the master map (the
// instance may have registered — and replayed pending — after the
// snapshot was taken) before parking the owned frame. Past the park cap
// the frame is dropped and recycled.
func (s *StreamManager) parkOrDeliver(dest int32, count int, buf *wire.Buffer) {
	s.mu.Lock()
	if o := s.instances[dest]; o != nil {
		s.mu.Unlock()
		s.mTuplesFwd.Inc(int64(count))
		o.enqueueOwned(network.MsgData, buf)
		return
	}
	if len(s.pending[dest]) >= pendingFrameCap {
		s.mu.Unlock()
		wire.PutBuffer(buf)
		return
	}
	s.pending[dest] = append(s.pending[dest], buf)
	s.mu.Unlock()
}

// parkPeerOrDeliver is parkOrDeliver's twin for remote destinations: the
// snapshot had no data outbox for a container the plan places the frame's
// destination on. That is a dial race, not a routing error — during a
// rescale relaunch, restored spouts replay while a late-registering
// container's address has not reached this Stream Manager yet, and
// dropping the frame here would lose a tuple the restore checkpoint
// already advanced past. Re-check the master map under s.mu, then park the
// owned frame until the dial lands.
func (s *StreamManager) parkPeerOrDeliver(container int32, buf *wire.Buffer) {
	s.mu.Lock()
	if p := s.peerData[container]; p != nil {
		s.mu.Unlock()
		p.enqueueOwned(network.MsgData, buf)
		return
	}
	if len(s.peerPending[container]) >= pendingFrameCap {
		s.mu.Unlock()
		wire.PutBuffer(buf)
		return
	}
	s.peerPending[container] = append(s.peerPending[container], buf)
	s.mu.Unlock()
}

// ackBatcher batches ack frames per destination id: the remote acks bound
// for each peer container, and the finished trees bound for each local
// spout task. Like the tuple cache it belongs to the worker, so nothing
// here is locked. Whoever fills a batch flushes it before returning —
// routeAck at the end of each ack frame, rotateAckers after each
// rotation — so no ack waits for a timer or for another frame. A batch
// that reaches maxAckEntries is sent at once, so even a rotation that
// expires a whole backlog sends frames far below network.MaxFrameSize.
type ackBatcher struct {
	open   []ackBatch // destinations with entries pending, in fill order
	frames *wire.Pool // the frames built here come back here
	// outboxes maps destination ids to outboxes on the current routes.
	outboxes func() map[int32]*outbox
	// dropped, when set, counts the entries of frames whose destination
	// has no outbox.
	dropped *metrics.Counter
}

// maxAckEntries caps one ack frame: at 22 B an entry, about 88 KiB.
const maxAckEntries = 4096

// ackBatch is one destination's ack frame under construction.
type ackBatch struct {
	dest  int32
	count int
	buf   *wire.Buffer
}

func newAckBatcher(outboxes func() map[int32]*outbox, dropped *metrics.Counter) *ackBatcher {
	return &ackBatcher{frames: wire.NewPool(framePoolSize), outboxes: outboxes, dropped: dropped}
}

// add appends one encoded ack to dest's batch, sending the batch if it is
// full.
func (c *ackBatcher) add(dest int32, enc []byte) {
	i := 0
	for i < len(c.open) && c.open[i].dest != dest {
		i++
	}
	if i == len(c.open) {
		buf := c.frames.Get()
		buf.B = tuple.BeginAckFrame(buf.B)
		c.open = append(c.open, ackBatch{dest: dest, buf: buf})
	}
	b := &c.open[i]
	b.buf.B = tuple.AppendFrameEntry(b.buf.B, enc)
	if b.count++; b.count >= maxAckEntries {
		c.send(*b, c.outboxes())
		last := len(c.open) - 1
		c.open[i], c.open[last] = c.open[last], ackBatch{}
		c.open = c.open[:last]
	}
}

// flush sends every open batch to its destination as one frame.
func (c *ackBatcher) flush() {
	if len(c.open) == 0 {
		return
	}
	outboxes := c.outboxes()
	for i, b := range c.open {
		c.send(b, outboxes)
		c.open[i] = ackBatch{}
	}
	c.open = c.open[:0]
}

// send seals b and enqueues it on its destination's outbox. A destination
// with no outbox (a spout that moved or never registered, a peer not yet
// dialed) has its frame dropped and recycled.
func (c *ackBatcher) send(b ackBatch, outboxes map[int32]*outbox) {
	tuple.PatchAckFrameHeader(b.buf.B, b.count)
	if out := outboxes[b.dest]; out != nil {
		out.enqueueOwned(network.MsgAck, b.buf)
		return
	}
	if c.dropped != nil {
		c.dropped.Inc(int64(b.count))
	}
	wire.PutBuffer(b.buf)
}

// peerOutboxes and instanceOutboxes are the ack batchers' destinations:
// peer Stream Managers by container, local instances by task.
func (s *StreamManager) peerOutboxes() map[int32]*outbox { return s.routes.Load().peers }

func (s *StreamManager) instanceOutboxes() map[int32]*outbox { return s.routes.Load().instances }

// routeAck moves a frame of ack/fail/anchor control tuples toward the
// ackers of the stream managers hosting the originating spouts, handling
// local ones directly. In optimized mode remote acks are re-batched per
// peer, like tuples; in naive mode each is forwarded as its own frame.
// Before routeAck returns, every batch the frame touched is sent: each
// peer gets at most one frame of this frame's remote acks, and each local
// spout one frame of the trees it finished. It runs on the worker, which
// dequeues nothing before the first plan, so a plan is always there.
func (s *StreamManager) routeAck(payload []byte) {
	rt := s.routes.Load()
	local, remote := false, false
	_ = tuple.WalkAckFrame(payload, func(ab []byte) error {
		var a tuple.AckTuple
		if err := tuple.DecodeAck(ab, &a); err != nil {
			s.mAcksDropped.Inc(1)
			return nil
		}
		container := rt.plan.TaskContainer(a.SpoutTask)
		if container < 0 {
			return nil
		}
		if container == s.opts.Container {
			s.handleAck(&a)
			local = true
			return nil
		}
		s.mAcksRouted.Inc(1)
		if s.optimized {
			s.acks.add(container, ab)
			remote = true
			return nil
		}
		if peer := rt.peers[container]; peer != nil {
			frame := tuple.AppendAckFrameHeader(nil, 1)
			frame = tuple.AppendFrameEntry(frame, ab)
			peer.enqueueOwned(network.MsgAck, &wire.Buffer{B: frame})
		} else {
			s.mAcksDropped.Inc(1)
		}
		return nil
	})
	if remote {
		s.acks.flush()
	}
	if local {
		s.done.flush()
	}
}

// handleAck applies one control tuple to the acker. A finished tree waits
// in its spout's completion batch for the caller's flush.
func (s *StreamManager) handleAck(a *tuple.AckTuple) {
	switch a.Kind {
	case tuple.AckAnchor:
		s.ack.Anchor(a.Root, a.Delta)
	case tuple.AckAck:
		s.ack.Ack(a.Root, a.Delta)
	case tuple.AckFail:
		s.ack.Fail(a.Root)
	}
}
