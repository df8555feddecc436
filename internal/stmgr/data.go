package stmgr

import (
	"sync"

	"heron/internal/core"
	"heron/internal/encoding/wire"
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
const cacheShards = 16

// framePoolSize bounds the idle frames each cache keeps for reuse.
const framePoolSize = 64

type tupleCache struct {
	shards    [cacheShards]cacheShard
	frames    *wire.Pool // the data frames built here come back here
	maxTuples int
	flush     func(dest int32, count int, buf *wire.Buffer)
}

type cacheShard struct {
	mu      sync.Mutex
	batches map[int32]*batchBuf
}

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
	c := &tupleCache{maxTuples: max, flush: flush, frames: wire.NewPool(framePoolSize)}
	for i := range c.shards {
		c.shards[i].batches = map[int32]*batchBuf{}
	}
	return c
}

// seal patches the reserved header and releases the finished frame,
// leaving the batchBuf empty for the next tuple.
func (b *batchBuf) seal(dest int32) (*wire.Buffer, int) {
	tuple.PatchFrameHeader(b.buf.B, dest, b.count)
	buf, count := b.buf, b.count
	b.buf, b.count = nil, 0
	b.last, b.prev = len(buf.B), b.last
	return buf, count
}

// add caches one encoded tuple for dest, flushing if the batch is full.
// The locks are all but uncontended: a shard's worker is the cache's only
// writer, and the drain loop's buffered() its only other reader.
func (c *tupleCache) add(dest int32, tupleBytes []byte) {
	sh := &c.shards[uint32(dest)%cacheShards]
	sh.mu.Lock()
	b := sh.batches[dest]
	if b == nil {
		b = &batchBuf{}
		sh.batches[dest] = b
	}
	if b.buf == nil {
		b.buf = c.frames.Get()
		b.buf.B = tuple.BeginFrame(b.buf.Sized(max(b.last, b.prev))[:0])
	}
	b.buf.B = tuple.AppendFrameEntry(b.buf.B, tupleBytes)
	b.count++
	if b.count >= c.maxTuples {
		buf, count := b.seal(dest)
		// Flush under the shard lock: ownership has already transferred and
		// the receiving outbox enqueues without blocking, so holding the
		// lock is cheap and keeps per-destination frame order.
		c.flush(dest, count, buf)
	}
	sh.mu.Unlock()
}

// flushDest seals and flushes the partial batch for one destination, if
// any. The marker path uses it so a checkpoint marker never overtakes
// tuples parked in the cache for the same task: the flushed frame and the
// marker join the same FIFO outbox in order.
func (c *tupleCache) flushDest(dest int32) {
	sh := &c.shards[uint32(dest)%cacheShards]
	sh.mu.Lock()
	if b := sh.batches[dest]; b != nil && b.count > 0 {
		buf, count := b.seal(dest)
		c.flush(dest, count, buf)
	}
	sh.mu.Unlock()
}

// drainAll flushes every non-empty batch (the timer path), reusing the
// same seal-and-hand-off as the size trigger: no per-destination frame is
// allocated or copied here.
func (c *tupleCache) drainAll() {
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		for dest, b := range sh.batches {
			if b.count == 0 {
				continue
			}
			buf, count := b.seal(dest)
			c.flush(dest, count, buf)
		}
		sh.mu.Unlock()
	}
}

// buffered counts the tuples currently parked in the cache by walking
// the shards. It is called once per drain tick (not per tuple), so the
// hot add path carries no shared depth counter.
func (c *tupleCache) buffered() int64 {
	var n int64
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		for _, b := range sh.batches {
			n += int64(b.count)
		}
		sh.mu.Unlock()
	}
	return n
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

// parkedFrame is one data frame waiting for a peer dial, tagged with its
// destination task so replay lands in the owning shard's outbox.
type parkedFrame struct {
	dest int32
	buf  *wire.Buffer
}

// parkPeerOrDeliver is parkOrDeliver's twin for remote destinations: the
// snapshot had no outbox for a container the plan places dest on. That is
// a dial race, not a routing error — during a rescale relaunch, restored
// spouts replay while a late-registering container's address has not
// reached this Stream Manager yet, and dropping the frame here would lose
// a tuple the restore checkpoint already advanced past. Re-check the
// master map under s.mu, then park the owned frame until the dial lands.
func (s *StreamManager) parkPeerOrDeliver(container, dest int32, buf *wire.Buffer) {
	s.mu.Lock()
	if p := s.peerOutLocked(container, dest); p != nil {
		s.mu.Unlock()
		p.enqueueOwned(network.MsgData, buf)
		return
	}
	if len(s.peerPending[container]) >= pendingFrameCap {
		s.mu.Unlock()
		wire.PutBuffer(buf)
		return
	}
	s.peerPending[container] = append(s.peerPending[container], parkedFrame{dest, buf})
	s.mu.Unlock()
}

// peerOutLocked resolves the outbox that carries data for dest toward
// container: the one owned by dest's shard. The caller holds s.mu.
func (s *StreamManager) peerOutLocked(container, dest int32) *outbox {
	if outs := s.peerShardOut[container]; outs != nil {
		return outs[s.shardOf(dest)]
	}
	return nil
}

// ackCache batches control tuples bound for peer stream managers; it is
// drained on the same cycle as the tuple cache, so ack traffic shares the
// batching optimization (as in Heron, where acks travel the same streams).
// Like the tuple cache, batches build in pooled buffers with a reserved
// header and transfer ownership on drain.
type ackCache struct {
	mu      sync.Mutex
	batches map[int32]*batchBuf // peer container → pending acks
	frames  *wire.Pool          // the ack frames built here come back here
}

func newAckCache() *ackCache {
	return &ackCache{batches: map[int32]*batchBuf{}, frames: wire.NewPool(framePoolSize)}
}

func (c *ackCache) add(container int32, ackBytes []byte) {
	c.mu.Lock()
	b := c.batches[container]
	if b == nil {
		b = &batchBuf{}
		c.batches[container] = b
	}
	if b.buf == nil {
		b.buf = c.frames.Get()
		b.buf.B = tuple.BeginAckFrame(b.buf.Sized(max(b.last, b.prev))[:0])
	}
	b.buf.B = tuple.AppendFrameEntry(b.buf.B, ackBytes)
	b.count++
	c.mu.Unlock()
}

// drain returns one owned frame per destination container and resets the
// cache.
func (c *ackCache) drain() map[int32]*wire.Buffer {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out map[int32]*wire.Buffer
	for container, b := range c.batches {
		if b.count == 0 {
			continue
		}
		tuple.PatchAckFrameHeader(b.buf.B, b.count)
		if out == nil {
			out = map[int32]*wire.Buffer{}
		}
		out[container] = b.buf
		b.last, b.prev = len(b.buf.B), b.last
		b.buf, b.count = nil, 0
	}
	return out
}

// routeAck moves a frame of ack/fail/anchor control tuples toward the
// ackers of the stream managers hosting the originating spouts, handling
// local ones directly. In optimized mode remote acks are re-batched per
// peer; in naive mode each is forwarded as its own frame immediately.
func (s *StreamManager) routeAck(payload []byte) {
	rt := s.routes.Load()
	if rt == nil || rt.plan == nil {
		return
	}
	_ = tuple.WalkAckFrame(payload, func(ab []byte) error {
		var a tuple.AckTuple
		if err := tuple.DecodeAck(ab, &a); err != nil {
			return nil
		}
		container := rt.plan.TaskContainer(a.SpoutTask)
		if container < 0 {
			return nil
		}
		if container == s.opts.Container {
			s.handleAck(&a)
			return nil
		}
		s.mAcksRouted.Inc(1)
		if s.optimized {
			s.acks.add(container, ab)
			return nil
		}
		if peer := rt.peers[container]; peer != nil {
			frame := tuple.AppendAckFrameHeader(nil, 1)
			frame = tuple.AppendFrameEntry(frame, ab)
			peer.enqueueOwned(network.MsgAck, &wire.Buffer{B: frame})
		}
		return nil
	})
}

// drainAcks flushes the ack cache to peers (optimized mode only).
func (s *StreamManager) drainAcks() {
	drained := s.acks.drain()
	if drained == nil {
		return
	}
	rt := s.routes.Load()
	for container, buf := range drained {
		if rt != nil {
			if peer := rt.peers[container]; peer != nil {
				peer.enqueueOwned(network.MsgAck, buf)
				continue
			}
		}
		wire.PutBuffer(buf)
	}
}

// handleAck applies one control tuple to the acker of the shard owning
// the originating spout task. Every tuple of a tree carries the same
// spout task, so a tree's whole life — anchor, acks, completion — stays
// inside one shard's acker and root map (shard-local root ownership).
func (s *StreamManager) handleAck(a *tuple.AckTuple) {
	sh := s.shards[s.shardOf(a.SpoutTask)]
	switch a.Kind {
	case tuple.AckAnchor:
		sh.rootMu.Lock()
		sh.rootSpout[a.Root] = a.SpoutTask
		sh.rootMu.Unlock()
		sh.ack.Anchor(a.Root, a.Delta)
	case tuple.AckAck:
		sh.ack.Ack(a.Root, a.Delta)
	case tuple.AckFail:
		sh.ack.Fail(a.Root)
	}
}
