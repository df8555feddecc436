package stmgr

import (
	"time"

	"heron/internal/acker"
	"heron/internal/core"
	"heron/internal/encoding/wire"
	"heron/internal/network"
	"heron/internal/tuple"
)

// The data path has one lane: receive handlers move every data, marker,
// ack and committed frame, with its buffer, into the inbox, a buffered
// channel, and one worker goroutine routes them. The worker is the
// inbox's only receiver and the only user of the tuple cache, the acker
// and both ack batchers, and it drains the cache and rotates the acker
// itself, so none of them takes a lock. A container's data path scales
// by adding containers, each with its own Stream Manager, as in the
// paper.
//
// Ordering contract: every data, marker and committed frame for a
// destination task flows through the one inbox in arrival order, and
// mixed instance batches go into it whole, so per-channel
// data-before-marker FIFO holds from the receive handler to the outbox.
// Each peer container has a control outbox (backpressure, acks) and a
// data outbox (tuples, markers), both writing to the one peer connection
// (its internal mutex serializes the writes and each drain ends with one
// Flush), so a remote container sees one ordered connection carrying
// coalesced, vectored writes.
const (
	// inboxFrames is the inbox depth, the same as an instance's: enough
	// frames to ride out a scheduling hiccup of the worker, few enough
	// that a full inbox soon blocks the senders, propagating backpressure
	// to them.
	inboxFrames = 1024
	// routeSampleEvery stamps one in this many dispatched frames for the
	// route-latency histogram.
	routeSampleEvery = 8
	// drainCheck is how many processed frames pass between clock checks
	// for the cache drain and the acker rotation while the inbox stays
	// busy.
	drainCheck = 512
)

// inFrame is one frame queued for the worker. stamp is its NowNanos at
// dispatch, 0 when unsampled.
type inFrame struct {
	kind  network.MsgKind
	stamp int64
	buf   *wire.Buffer
}

// startWorker launches the data-path worker.
func (s *StreamManager) startWorker() {
	s.wg.Add(1)
	go s.run()
}

// routeFrameOwned is the Stream Manager's data path: receive handlers
// hand every data, ack and marker frame from instances and peers here,
// with its buffer, and each moves to the inbox without a copy.
func (s *StreamManager) routeFrameOwned(kind network.MsgKind, buf *wire.Buffer) {
	s.mBytesRecv.Inc(int64(len(buf.B)))
	switch kind {
	case network.MsgData, network.MsgMarker, network.MsgAck:
		// Uniform frames, mixed instance batches, markers and acks alike go
		// whole — the zero-copy leg: transport receive buffer → inbox →
		// outbox → pool. A marker takes the inbox its data takes, which is
		// what keeps the barrier aligned per channel. The worker drops what
		// it cannot parse.
		s.dispatch(kind, buf)
	default:
		wire.PutBuffer(buf)
	}
}

// dispatch moves one owned frame into the inbox, stamping one frame in
// routeSampleEvery. A full inbox blocks the caller until the worker takes
// a frame — the backpressure primitive: over inproc the caller is the
// sending instance or peer itself. After Stop the frame is recycled.
func (s *StreamManager) dispatch(kind network.MsgKind, buf *wire.Buffer) {
	f := inFrame{kind: kind, buf: buf}
	if s.dispatched.Add(1)%routeSampleEvery == 0 {
		f.stamp = network.NowNanos()
	}
	// The non-blocking send comes first: a select that also watches stopCh
	// costs every send, and the inbox is rarely full.
	select {
	case s.inbox <- f:
		return
	default:
	}
	select {
	case s.inbox <- f:
	case <-s.stopCh:
		wire.PutBuffer(buf)
	}
}

// run is the worker: take frames while the inbox has them, drain the
// tuple cache and rotate the acker when it empties or their periods
// elapse, park when it is empty, exit on Stop.
//
// It takes nothing until the first plan is published: frames from peers
// that got their plan sooner wait in the bounded inbox (a full inbox
// blocks their sender — backpressure, as at any other time) instead of
// meeting a Stream Manager that cannot route them yet. The wait cannot
// cycle: the plan arrives on the TMaster connection, whose handler never
// dispatches before a plan exists (notifyCommitted returns early without
// one).
func (s *StreamManager) run() {
	defer s.wg.Done()
	defer s.recycleInbox()
	<-s.planReady
	if s.routes.Load().plan == nil {
		return // Stop released the gate; no plan ever came
	}
	period := s.opts.Cfg.CacheDrainFrequency
	if period <= 0 {
		period = core.DefaultCacheDrainFrequency
	}
	park := period
	var rotation time.Duration // 0: acking off, no rotation
	if s.opts.Cfg.AckingEnabled {
		timeout := s.opts.Cfg.MessageTimeout
		if timeout <= 0 {
			timeout = core.DefaultMessageTimeout
		}
		rotation = timeout / time.Duration(acker.DefaultBuckets-1)
		// An idle worker wakes at least once a rotation period, so trees
		// whose acks were lost still expire.
		park = min(park, rotation)
	}
	// One timer, reused: a worker on a paced stream parks thousands of
	// times a second.
	timer := time.NewTimer(park)
	defer timer.Stop()
	lastDrain := time.Now()
	lastRotate := lastDrain
	rotate := func(now time.Time) {
		if rotation > 0 && now.Sub(lastRotate) >= rotation {
			s.rotateAckers()
			lastRotate = now
		}
	}
	frames := 0
	for {
		var f inFrame
		select {
		case f = <-s.inbox:
		default:
			// Idle: flush partial batches now so a lull never strands
			// tuples past one park interval.
			s.drainCache()
			lastDrain = time.Now()
			rotate(lastDrain)
			if !timer.Stop() {
				// It fired while the inbox was busy; drop the stale tick.
				select {
				case <-timer.C:
				default:
				}
			}
			timer.Reset(park)
			select {
			case f = <-s.inbox:
			case <-timer.C:
				continue
			case <-s.stopCh:
				return
			}
		}
		s.processFrame(f.kind, f.buf)
		if f.stamp != 0 {
			// Queue wait plus processing: the latency a tuple actually saw.
			s.mRouteLat.Observe(network.NowNanos() - f.stamp)
		}
		if frames++; frames&(drainCheck-1) == 0 {
			now := time.Now()
			if now.Sub(lastDrain) >= period {
				s.drainCache()
				lastDrain = now
			}
			rotate(now)
		}
	}
}

// recycleInbox returns the buffers of the frames left in the inbox to the
// pool once the worker is done. A sender racing Stop can still leave a
// frame behind it, for the collector: a pool miss, not a leak.
func (s *StreamManager) recycleInbox() {
	for {
		select {
		case f := <-s.inbox:
			wire.PutBuffer(f.buf)
		default:
			return
		}
	}
}

// processFrame routes one frame taken from the inbox and publishes the
// cache depth it leaves behind.
func (s *StreamManager) processFrame(kind network.MsgKind, buf *wire.Buffer) {
	switch kind {
	case network.MsgData:
		if s.optimized {
			s.processData(buf)
		} else {
			s.processDataNaive(buf)
		}
	case network.MsgMarker:
		s.processMarker(buf)
	case network.MsgCommitted:
		s.processCommitted(buf)
	case network.MsgAck:
		s.routeAck(buf.B)
		wire.PutBuffer(buf)
	default:
		wire.PutBuffer(buf)
	}
	s.publishCacheDepth()
}

// drainCache seals every partial batch, the idle and the period drain,
// and counts a drain that seals any on stmgr.cache-drain-count. The count
// moves first, so it already holds when a drained batch is delivered.
func (s *StreamManager) drainCache() {
	if s.cache.buffered == 0 {
		return
	}
	s.mCacheDrains.Inc(1)
	s.cache.drainAll()
	s.publishCacheDepth()
}

// publishCacheDepth sets stmgr.cache-depth to the tuples buffered in the
// cache, storing only when the count changed.
func (s *StreamManager) publishCacheDepth() {
	if n := int64(s.cache.buffered); n != s.mCacheDepth.Value() {
		s.mCacheDepth.Set(n)
	}
}

// processData is the Section V-A fast path: only the frame header (and,
// for mixed frames, each tuple's destination prefix) is parsed; tuple
// payloads cross this router untouched. Routing state is one atomic
// snapshot load — no lock, no allocation.
func (s *StreamManager) processData(buf *wire.Buffer) {
	dest, count, rest, err := tuple.FrameHeader(buf.B)
	if err != nil {
		wire.PutBuffer(buf)
		return
	}
	if dest == tuple.MixedFrameDest {
		// An instance batch: each tuple enters the cache for its own
		// destination at the cost of one destination peek — still lazy.
		var n int64
		_, _, _ = tuple.WalkFrame(buf.B, func(tb []byte) error {
			if d, err := tuple.PeekDest(tb); err == nil {
				n++
				s.cache.add(d, tb)
			}
			return nil
		})
		s.mTuplesIn.Inc(n)
		wire.PutBuffer(buf)
		return
	}
	// The tuple count comes straight from the frame header: uniform frames
	// are routed without walking their entries.
	s.mTuplesIn.Inc(int64(count))
	if count == 1 {
		// Single-tuple frames (fresh from a local instance) enter the tuple
		// cache — the cache batches incoming and outgoing tuples alike, as
		// the paper describes.
		if tb, err := tuple.FrameFirstEntry(rest); err == nil {
			s.cache.add(dest, tb)
		}
		wire.PutBuffer(buf)
		return
	}
	// Pre-batched frames forward whole and owned — no copy anywhere
	// between the transport's receive buffer and the delivery outbox.
	s.flushBatch(dest, count, buf)
}

// processDataNaive is the "without optimizations" arm of Figures 5–9, run
// by the same worker when StreamManagerOptimized is off: every tuple is
// fully decoded and re-encoded at every hop, nothing is pooled, and no
// batching happens — each tuple leaves as its own frame.
func (s *StreamManager) processDataNaive(buf *wire.Buffer) {
	codec := tuple.NaiveCodec{}
	_, _, _ = tuple.WalkFrame(buf.B, func(tb []byte) error {
		var t tuple.DataTuple // fresh allocation per tuple, deliberately
		if err := codec.DecodeData(tb, &t); err != nil {
			return nil
		}
		s.mTuplesIn.Inc(1)
		reenc := codec.EncodeData(nil, &t)
		frame := tuple.AppendFrameHeader(nil, t.DestTask, 1)
		frame = tuple.AppendFrameEntry(frame, reenc)
		s.flushBatch(t.DestTask, 1, &wire.Buffer{B: frame})
		return nil
	})
	wire.PutBuffer(buf)
}

// processMarker forwards one checkpoint marker after flushing the cache
// for its destination, preserving data-before-marker order.
func (s *StreamManager) processMarker(buf *wire.Buffer) {
	_, _, dest, err := tuple.DecodeMarker(buf.B)
	if err != nil {
		wire.PutBuffer(buf)
		return
	}
	rt := s.routes.Load()
	// Flush any partially built batch for the destination first; the
	// barrier invariant is per-channel FIFO between data and markers.
	s.cache.flushDest(dest)
	container := rt.plan.TaskContainer(dest)
	if container < 0 {
		wire.PutBuffer(buf)
		return
	}
	if container == s.opts.Container {
		if o := rt.instances[dest]; o != nil {
			o.enqueueOwned(network.MsgMarker, buf)
			return
		}
		// Unregistered instance: the barrier never completes and the
		// checkpoint is abandoned — dropping is safe.
		wire.PutBuffer(buf)
		return
	}
	if peer := rt.peerData[container]; peer != nil {
		peer.enqueueOwned(network.MsgMarker, buf)
		return
	}
	wire.PutBuffer(buf)
}

// processCommitted delivers one global-commit notification to its local
// instance after flushing the cache for the destination — the same
// data-before-marker FIFO the barrier path keeps, so a transactional sink
// never commits an epoch before it has executed every tuple batched ahead
// of the notification. Committed frames are injected locally by
// notifyCommitted and never forwarded; an unregistered destination just
// drops the frame (the instance will resolve the epoch via recovery).
func (s *StreamManager) processCommitted(buf *wire.Buffer) {
	_, _, dest, err := tuple.DecodeMarker(buf.B)
	if err != nil {
		wire.PutBuffer(buf)
		return
	}
	s.cache.flushDest(dest)
	if o := s.routes.Load().instances[dest]; o != nil {
		o.enqueueOwned(network.MsgCommitted, buf)
		return
	}
	wire.PutBuffer(buf)
}

// flushBatch delivers an owned frame of count tuples for dest — a sealed
// cache batch or a pre-batched frame — to its local instance or to the
// data outbox of the peer hosting it. Ownership of buf always transfers
// here; every drop path recycles it, and the registration and dial races
// fall back to the park queues.
func (s *StreamManager) flushBatch(dest int32, count int, buf *wire.Buffer) {
	rt := s.routes.Load()
	container := rt.plan.TaskContainer(dest)
	if container < 0 {
		wire.PutBuffer(buf) // task no longer in the plan (scaled away)
		return
	}
	if container == s.opts.Container {
		if o := rt.instances[dest]; o != nil {
			s.mTuplesFwd.Inc(int64(count))
			o.enqueueOwned(network.MsgData, buf)
			return
		}
		s.parkOrDeliver(dest, count, buf)
		return
	}
	if peer := rt.peerData[container]; peer != nil {
		peer.enqueueOwned(network.MsgData, buf)
		return
	}
	s.parkPeerOrDeliver(container, buf)
}

// onTreeDone adds a finished tree to its spout's batch. The spout is the
// one the root id encodes. Each ack frame the Stream Manager receives,
// and each rotation, answers a spout with at most one frame of these
// notifications, not one frame per tree.
func (s *StreamManager) onTreeDone(root uint64, r acker.Result) {
	kind := tuple.AckAck
	switch r {
	case acker.Failed:
		kind = tuple.AckFail
	case acker.TimedOut:
		kind = tuple.AckExpired
	}
	spout := core.RootSpout(root)
	// The ack encodes into a stack array.
	var scratch [tuple.AckSize]byte
	enc := tuple.EncodeAck(scratch[:0], &tuple.AckTuple{Kind: kind, SpoutTask: spout, Root: root})
	s.done.add(spout, enc)
}
