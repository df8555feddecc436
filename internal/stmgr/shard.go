package stmgr

import (
	"sync/atomic"
	"time"

	"heron/internal/acker"
	"heron/internal/core"
	"heron/internal/encoding/wire"
	"heron/internal/network"
	"heron/internal/tuple"
)

// The data path is sharded per core (Config.StmgrShards, one shard or
// many — the same code): tasks map to shards by
// shardOf(task) = task % nShards — a pure function of the task id, so
// the mapping is stable across rescales and checkpoint/repartition logic
// never notices sharding. Each shard owns a dispatch ring (inbox), a
// tuple cache, an acker with shard-local root ownership, and one outbox
// per peer container; a shard's worker goroutine is the only consumer of
// all of them, so the caches and counters are effectively uncontended.
//
// Ordering contract: every data, marker and committed frame for a
// destination task flows through that task's shard ring in arrival
// order, and mixed instance batches are split into per-shard sub-frames
// by the receive goroutine *before* it dispatches anything that follows
// on the same connection — so per-channel data-before-marker FIFO
// survives the fan-out. Per-shard peer outboxes all write to the single
// shared peer connection (its internal mutex serializes the writes and
// each drain ends with one Flush), so a remote container still sees one
// ordered connection carrying coalesced, vectored writes.
const (
	// shardRingFrames is each shard's dispatch-ring depth; a full ring
	// blocks the receive goroutine, propagating backpressure to senders.
	shardRingFrames = 1024
	// routeSampleEvery stamps one in this many dispatched frames for the
	// route-latency histogram.
	routeSampleEvery = 8
	// shardDrainCheck is how many processed frames pass between clock
	// checks for the cache-drain timer while the ring stays busy.
	shardDrainCheck = 512
)

// shard is one lane of the data path.
type shard struct {
	id int
	sm *StreamManager

	inbox  *network.FrameRing
	cache  *tupleCache
	routes atomic.Pointer[routeTable] // peers: this shard's own outboxes

	ack  *acker.Acker
	done *ackBatcher // finished trees awaiting their spout's frame

	// Single-writer data-plane counters, aggregated into the registry
	// counters by the central drain loop. last* belong to that loop.
	tuplesIn  atomic.Int64
	tuplesFwd atomic.Int64
	lastIn    int64
	lastFwd   int64
}

// shardOf maps a task to its shard: task % nShards, stable across
// rescales (a task id never changes shards while it exists).
func (s *StreamManager) shardOf(task int32) int {
	if s.nShards <= 1 || task < 0 {
		return 0
	}
	return int(task) % s.nShards
}

// initShards builds the shard set and starts one worker per shard.
func (s *StreamManager) initShards() {
	s.shards = make([]*shard, s.nShards)
	for i := range s.shards {
		sh := &shard{id: i, sm: s}
		sh.done = newAckBatcher(s.instanceOutboxes, nil)
		sh.ack = acker.New(acker.DefaultBuckets, sh.onTreeDone)
		sh.inbox = network.NewFrameRing(shardRingFrames, routeSampleEvery)
		sh.cache = newTupleCache(s.opts.Cfg, sh.flushBatch)
		s.shards[i] = sh
		s.wg.Add(1)
		go sh.run()
	}
}

// routeFrameOwned is the Stream Manager's data path: receive goroutines
// hand every data, ack and marker frame from instances and peers here,
// with its buffer. Data and markers move to their destination shard's
// ring without a copy; acks are handled inline (the acker is
// shard-addressed by spout task, not by the receiving goroutine).
func (s *StreamManager) routeFrameOwned(kind network.MsgKind, buf *wire.Buffer) {
	s.mBytesRecv.Inc(int64(len(buf.B)))
	switch kind {
	case network.MsgData:
		s.dispatchData(buf)
	case network.MsgMarker:
		s.dispatchMarker(buf)
	case network.MsgAck:
		s.routeAck(buf.B)
		wire.PutBuffer(buf)
	default:
		wire.PutBuffer(buf)
	}
}

// dispatchData moves an owned data frame into its shard's ring. Uniform
// frames go whole — the zero-copy leg: transport receive buffer → ring →
// instance outbox → pool. Mixed instance batches are split per shard
// first so each tuple reaches the ring that owns its destination.
func (s *StreamManager) dispatchData(buf *wire.Buffer) {
	dest, _, _, err := tuple.FrameHeader(buf.B)
	if err != nil {
		wire.PutBuffer(buf)
		return
	}
	if dest == tuple.MixedFrameDest {
		if s.nShards == 1 {
			// Nothing to split: the one worker walks the mixed frame itself.
			_ = s.shards[0].inbox.Enqueue(network.MsgData, buf)
			return
		}
		s.splitMixed(buf)
		return
	}
	_ = s.shards[s.shardOf(dest)].inbox.Enqueue(network.MsgData, buf)
}

// splitMixed rebuilds one mixed instance batch as up to nShards smaller
// mixed frames, one per destination shard, in pooled staging buffers —
// one walk, one destination peek per tuple, no allocation. The split
// happens on the receive goroutine, before any later frame from the same
// connection dispatches, so per-channel ordering into each shard ring is
// preserved.
func (s *StreamManager) splitMixed(buf *wire.Buffer) {
	var stage [core.MaxStmgrShards]*wire.Buffer
	var counts [core.MaxStmgrShards]int
	_, _, _ = tuple.WalkFrame(buf.B, func(tb []byte) error {
		d, err := tuple.PeekDest(tb)
		if err != nil {
			return nil
		}
		i := s.shardOf(d)
		if stage[i] == nil {
			stage[i] = wire.GetBuffer()
			stage[i].B = tuple.BeginFrame(stage[i].B)
		}
		stage[i].B = tuple.AppendFrameEntry(stage[i].B, tb)
		counts[i]++
		return nil
	})
	wire.PutBuffer(buf)
	for i := 0; i < s.nShards; i++ {
		if stage[i] == nil {
			continue
		}
		tuple.PatchFrameHeader(stage[i].B, tuple.MixedFrameDest, counts[i])
		_ = s.shards[i].inbox.Enqueue(network.MsgData, stage[i])
	}
}

// dispatchMarker routes an owned marker frame through the destination's
// shard ring — the same FIFO its data takes, which is what keeps the
// barrier aligned per channel.
func (s *StreamManager) dispatchMarker(buf *wire.Buffer) {
	_, _, dest, err := tuple.DecodeMarker(buf.B)
	if err != nil {
		wire.PutBuffer(buf)
		return
	}
	_ = s.shards[s.shardOf(dest)].inbox.Enqueue(network.MsgMarker, buf)
}

// run is the shard worker: drain the ring, flush the shard cache when
// the ring idles or the drain period elapses, park when empty, exit when
// the ring closes.
//
// It dequeues nothing until the first plan is published: frames from
// peers that got their plan sooner wait in the bounded ring (a full ring
// blocks their receive goroutine — backpressure, as at any other time)
// instead of meeting a Stream Manager that cannot route them yet. The
// wait cannot cycle: the plan arrives on the TMaster connection, whose
// handler never enqueues on a shard ring before a plan exists
// (notifyCommitted returns early without one).
func (sh *shard) run() {
	s := sh.sm
	defer s.wg.Done()
	<-s.planReady
	if sh.routes.Load().plan == nil {
		// Stop released the gate, after closing the ring; no plan ever came.
		sh.inbox.Drain()
		return
	}
	period := s.opts.Cfg.CacheDrainFrequency
	if period <= 0 {
		period = core.DefaultCacheDrainFrequency
	}
	lastDrain := time.Now()
	frames := 0
	for {
		kind, stamp, buf, ok := sh.inbox.TryDequeue()
		if !ok {
			// Idle: flush partial batches now so a lull never strands
			// tuples past one park interval.
			sh.cache.drainAll()
			lastDrain = time.Now()
			if sh.inbox.Closed() {
				sh.inbox.Drain()
				return
			}
			sh.inbox.Await(period)
			continue
		}
		switch kind {
		case network.MsgData:
			if s.optimized {
				sh.processData(buf)
			} else {
				sh.processDataNaive(buf)
			}
		case network.MsgMarker:
			sh.processMarker(buf)
		case network.MsgCommitted:
			sh.processCommitted(buf)
		default:
			wire.PutBuffer(buf)
		}
		if stamp != 0 {
			// Queue wait plus processing: the latency a tuple actually saw.
			s.mRouteLat.Observe(network.NowNanos() - stamp)
		}
		if frames++; frames&(shardDrainCheck-1) == 0 {
			if now := time.Now(); now.Sub(lastDrain) >= period {
				sh.cache.drainAll()
				lastDrain = now
			}
		}
	}
}

// processData is the Section V-A fast path on shard-local state: only the
// frame header (and, for mixed frames, each tuple's destination prefix) is
// parsed; tuple payloads cross this router untouched. Routing state is one
// atomic snapshot load — no lock shared with any other shard, no
// allocation.
func (sh *shard) processData(buf *wire.Buffer) {
	dest, count, rest, err := tuple.FrameHeader(buf.B)
	if err != nil {
		wire.PutBuffer(buf)
		return
	}
	rt := sh.routes.Load()
	if dest == tuple.MixedFrameDest {
		// An instance batch (whole at one shard, a per-shard sub-frame from
		// splitMixed otherwise): every tuple in it belongs to this shard's
		// cache. Each tuple costs one destination peek — still lazy.
		_, _, _ = tuple.WalkFrame(buf.B, func(tb []byte) error {
			if d, err := tuple.PeekDest(tb); err == nil {
				sh.tuplesIn.Add(1)
				sh.cache.add(d, tb)
			}
			return nil
		})
		wire.PutBuffer(buf)
		return
	}
	// The tuple count comes straight from the frame header: uniform frames
	// are routed without walking their entries.
	sh.tuplesIn.Add(int64(count))
	if count == 1 {
		// Single-tuple frames (fresh from a local instance) enter the tuple
		// cache — the cache batches incoming and outgoing tuples alike, as
		// the paper describes.
		if tb, err := tuple.FrameFirstEntry(rest); err == nil {
			sh.cache.add(dest, tb)
		}
		wire.PutBuffer(buf)
		return
	}
	// Pre-batched frames forward whole and owned — no copy anywhere
	// between the transport's receive buffer and the delivery outbox.
	container := rt.plan.TaskContainer(dest)
	if container < 0 {
		wire.PutBuffer(buf) // task no longer in the plan (scaled away)
		return
	}
	if container == sh.sm.opts.Container {
		sh.deliverOwned(rt, dest, count, buf)
		return
	}
	if peer := rt.peers[container]; peer != nil {
		peer.enqueueOwned(network.MsgData, buf)
		return
	}
	sh.sm.parkPeerOrDeliver(container, dest, buf)
}

// processDataNaive is the "without optimizations" arm of Figures 5–9, run
// by the same worker when StreamManagerOptimized is off: every tuple is
// fully decoded and re-encoded at every hop, nothing is pooled, and no
// batching happens — each tuple leaves as its own frame.
func (sh *shard) processDataNaive(buf *wire.Buffer) {
	codec := tuple.NaiveCodec{}
	_, _, _ = tuple.WalkFrame(buf.B, func(tb []byte) error {
		var t tuple.DataTuple // fresh allocation per tuple, deliberately
		if err := codec.DecodeData(tb, &t); err != nil {
			return nil
		}
		sh.tuplesIn.Add(1)
		reenc := codec.EncodeData(nil, &t)
		frame := tuple.AppendFrameHeader(nil, t.DestTask, 1)
		frame = tuple.AppendFrameEntry(frame, reenc)
		sh.flushBatch(t.DestTask, 1, &wire.Buffer{B: frame})
		return nil
	})
	wire.PutBuffer(buf)
}

// processMarker forwards one checkpoint marker after flushing the shard
// cache for its destination, preserving data-before-marker order.
func (sh *shard) processMarker(buf *wire.Buffer) {
	_, _, dest, err := tuple.DecodeMarker(buf.B)
	if err != nil {
		wire.PutBuffer(buf)
		return
	}
	rt := sh.routes.Load()
	// Flush any partially built batch for the destination first; the
	// barrier invariant is per-channel FIFO between data and markers.
	sh.cache.flushDest(dest)
	container := rt.plan.TaskContainer(dest)
	if container < 0 {
		wire.PutBuffer(buf)
		return
	}
	if container == sh.sm.opts.Container {
		if o := rt.instances[dest]; o != nil {
			o.enqueueOwned(network.MsgMarker, buf)
			return
		}
		// Unregistered instance: the barrier never completes and the
		// checkpoint is abandoned — dropping is safe.
		wire.PutBuffer(buf)
		return
	}
	if peer := rt.peers[container]; peer != nil {
		peer.enqueueOwned(network.MsgMarker, buf)
		return
	}
	wire.PutBuffer(buf)
}

// processCommitted delivers one global-commit notification to its local
// instance after flushing the shard cache for the destination — the same
// data-before-marker FIFO the barrier path keeps, so a transactional sink
// never commits an epoch before it has executed every tuple batched ahead
// of the notification. Committed frames are injected locally by
// notifyCommitted and never forwarded; an unregistered destination just
// drops the frame (the instance will resolve the epoch via recovery).
func (sh *shard) processCommitted(buf *wire.Buffer) {
	_, _, dest, err := tuple.DecodeMarker(buf.B)
	if err != nil {
		wire.PutBuffer(buf)
		return
	}
	sh.cache.flushDest(dest)
	if o := sh.routes.Load().instances[dest]; o != nil {
		o.enqueueOwned(network.MsgCommitted, buf)
		return
	}
	wire.PutBuffer(buf)
}

// deliverOwned hands an owned frame to a local instance, counting on the
// shard-local counter; the registration-race slow path falls back to the
// shared park queue (which counts on the registry counter directly).
func (sh *shard) deliverOwned(rt *routeTable, dest int32, count int, buf *wire.Buffer) {
	if o := rt.instances[dest]; o != nil {
		sh.tuplesFwd.Add(int64(count))
		o.enqueueOwned(network.MsgData, buf)
		return
	}
	sh.sm.parkOrDeliver(dest, count, buf)
}

// flushBatch delivers one sealed cache batch to its destination (local
// instance or peer stream manager). Ownership of buf always transfers
// here; every drop path recycles it.
func (sh *shard) flushBatch(dest int32, count int, buf *wire.Buffer) {
	rt := sh.routes.Load()
	container := rt.plan.TaskContainer(dest)
	if container < 0 {
		wire.PutBuffer(buf)
		return
	}
	if container == sh.sm.opts.Container {
		sh.deliverOwned(rt, dest, count, buf)
		return
	}
	if peer := rt.peers[container]; peer != nil {
		peer.enqueueOwned(network.MsgData, buf)
		return
	}
	sh.sm.parkPeerOrDeliver(container, dest, buf)
}

// onTreeDone adds a finished tree of this shard's acker to its spout's
// batch. The spout is the one the root id encodes. Each ack frame the
// Stream Manager receives, and each rotation, answers a spout with at
// most one frame of these notifications, not one frame per tree.
func (sh *shard) onTreeDone(root uint64, r acker.Result) {
	kind := tuple.AckAck
	switch r {
	case acker.Failed:
		kind = tuple.AckFail
	case acker.TimedOut:
		kind = tuple.AckExpired
	}
	spout := core.RootSpout(root)
	// The ack encodes into a stack array, outside the batch lock.
	var scratch [tuple.AckSize]byte
	enc := tuple.EncodeAck(scratch[:0], &tuple.AckTuple{Kind: kind, SpoutTask: spout, Root: root})
	sh.done.add(spout, enc)
}

// flushDone sends this shard's pending completion frames.
func (sh *shard) flushDone() { sh.done.flush() }
