package instance

import (
	"log"
	"time"

	"heron/internal/core"
	"heron/internal/encoding/wire"
	"heron/internal/network"
	"heron/internal/tuple"
)

// spoutCollector implements api.SpoutCollector. It is used only from the
// executor goroutine.
type spoutCollector struct {
	in *Instance
	// t is the tuple every emit encodes from; it is reset after each emit
	// so it keeps no user value alive.
	t tuple.DataTuple
	// scratch buffers reused across emits when the codec allows pooling.
	destBuf []int32
	encBuf  []byte
}

// Emit implements api.SpoutCollector: it routes the values to every
// consumer, serializes once per destination, and — when msgID is non-nil
// and acking is on — opens a tuple tree with the local acker.
func (c *spoutCollector) Emit(stream string, msgID any, values ...any) {
	in := c.in
	ps := in.plan.Load()
	if ps == nil {
		return
	}
	sid, ok := ps.streamIDByName[streamOrDefault(stream)]
	if !ok {
		log.Printf("instance %v: emit on undeclared stream %q", in.opts.ID, stream)
		return
	}
	c.destBuf = c.destBuf[:0]
	dests, err := ps.destinations(sid, values, c.destBuf)
	if err != nil {
		return
	}
	c.destBuf = dests
	if len(dests) == 0 {
		return
	}

	reliable := msgID != nil && in.opts.Cfg.AckingEnabled
	var slot uint32
	var root, anchorXor uint64
	if reliable {
		slot, root = in.openTree()
	}

	t := &c.t
	t.SrcTask = in.opts.ID.TaskID
	t.StreamID = sid
	t.Values = append(t.Values[:0], values...)
	for _, dest := range dests {
		t.DestTask = dest
		if reliable {
			t.Key = in.rng.Uint64() | 1 // keys are never zero
			anchorXor ^= t.Key
			t.Roots = append(t.Roots[:0], root)
		}
		if in.codec.Pooled() {
			c.encBuf = in.codec.EncodeData(c.encBuf[:0], t)
			in.sendData(dest, c.encBuf)
		} else {
			in.sendData(dest, in.codec.EncodeData(nil, t))
		}
		in.mEmitted.Inc(1)
	}
	t.Reset()

	if reliable {
		p := &in.pending[slot]
		p.msgID = msgID
		// Complete latency is sampled like execute latency: one tree in
		// latencySampleEvery reads the clock. 0 means not sampled.
		if in.latSeq&(latencySampleEvery-1) == 0 {
			p.emitNs = max(network.NowNanos(), 1)
		}
		in.latSeq++
		in.inflight++
		in.mPending.Set(int64(in.inflight))
		in.sendAck(&tuple.AckTuple{
			Kind: tuple.AckAnchor, SpoutTask: in.opts.ID.TaskID,
			Root: root, Delta: anchorXor,
		})
	}
}

// pendingEmit is one slot of the spout's pending table: the tree whose
// root names this slot, while msgID is non-nil.
type pendingEmit struct {
	root   uint64
	msgID  any   // nil while the slot is free
	emitNs int64 // network.NowNanos at emit; 0 when the tree is not sampled
	gen    uint16
}

// Root ids the spout hands out are task u16 | generation u16 | slot u32:
// the slot indexes in.pending, and the generation, bumped each time the
// slot is taken, tells a slot's trees apart. A slot is taken from the free
// list or appended; the table grows only while more trees are in flight
// than ever before, so max spout pending bounds it, and the 32-bit slot
// field cannot fill before memory does.
//
// A notification for a slot's earlier tree misses, unless the generation
// has wrapped onto the same value while it was late. Late notifications
// can only be AckExpired or AckFail: a tree reaches zero in the acker
// once, and a tree that expired never reaches zero again — its late acks
// start a fresh nonzero entry that expires or fails in turn. Should such a
// notification meet the slot's current tree, that tree is failed and its
// message replayed; should an earlier tree's late ack meet the current
// tree's entry in the acker, the entry stays nonzero and expires. The
// worst a collision does is one spurious replay, so at-least-once holds.
// Generations start at a random value per slot, so a restarted task does
// not reissue its predecessor's roots in order.
const slotBits = 32

// openTree takes a free slot of the pending table, or appends one, and
// returns it with the root id of the tree that now owns it.
func (in *Instance) openTree() (uint32, uint64) {
	var slot uint32
	if n := len(in.free); n > 0 {
		slot = in.free[n-1]
		in.free = in.free[:n-1]
	} else {
		slot = uint32(len(in.pending))
		in.pending = append(in.pending, pendingEmit{gen: uint16(in.rng.Uint32())})
	}
	p := &in.pending[slot]
	p.gen++
	p.root = MakeRoot(in.opts.ID.TaskID, uint64(p.gen)<<slotBits|uint64(slot))
	return slot, p.root
}

func streamOrDefault(s string) string {
	if s == "" {
		return core.DefaultStream
	}
	return s
}

// runSpout is the spout executor loop: it interleaves ack processing with
// NextTuple calls, honouring backpressure pauses and the
// max_spout_pending gate (paper Section V-B).
func (in *Instance) runSpout() {
	col := &spoutCollector{in: in}
	if err := in.opts.Spout.Open(context{in}, col); err != nil {
		log.Printf("instance %v: spout open: %v", in.opts.ID, err)
		return
	}
	in.maybeRestore()
	defer func() {
		if err := in.opts.Spout.Close(); err != nil {
			log.Printf("instance %v: spout close: %v", in.opts.ID, err)
		}
	}()

	idle := time.NewTimer(time.Hour)
	defer idle.Stop()
	idleStreak := 0
	for {
		// Drain whatever control traffic is queued without blocking.
		for {
			select {
			case f := <-in.inbox:
				in.spoutFrame(f)
				continue
			case <-in.stop:
				return
			default:
			}
			break
		}
		maxPending := int(in.maxPending.Load())
		gated := in.paused.Load() || (maxPending > 0 && in.inflight >= maxPending)
		if gated {
			// Blocked on acks (or backpressure): push out everything
			// buffered, then wait for progress or a state change.
			in.flushOut()
			select {
			case f := <-in.inbox:
				in.spoutFrame(f)
			case <-in.wake:
			case <-in.stop:
				return
			}
			continue
		}
		if !in.opts.Spout.NextTuple() {
			// No input available: flush and back off, doubling the wait
			// while the source stays dry so an input-bound topology does
			// not burn CPU polling.
			in.flushOut()
			if idleStreak < 5 {
				idleStreak++
			}
			idle.Reset(200 * time.Microsecond << idleStreak)
			select {
			case f := <-in.inbox:
				in.spoutFrame(f)
			case <-idle.C:
			case <-in.stop:
				return
			}
		} else {
			idleStreak = 0
		}
	}
}

// spoutFrame applies one queued frame (batched ack notifications or a
// checkpoint trigger marker) to spout state, then recycles it.
func (in *Instance) spoutFrame(f inFrame) {
	defer wire.PutBuffer(f.buf)
	switch f.kind {
	case network.MsgAck:
		// now is read once, by the first sampled tree the frame completes.
		var now int64
		_ = tuple.WalkAckFrame(f.buf.B, func(ab []byte) error {
			var a tuple.AckTuple
			if err := tuple.DecodeAck(ab, &a); err == nil {
				in.spoutAck(&a, &now)
			}
			return nil
		})
	case network.MsgMarker:
		if id, _, _, err := tuple.DecodeMarker(f.buf.B); err == nil {
			in.spoutCheckpoint(id)
		}
	case network.MsgCommitted:
		if id, _, _, err := tuple.DecodeMarker(f.buf.B); err == nil {
			in.epochCommitted(id)
		}
	}
}

// spoutAck completes one pending emission: a hit only when the root's slot
// is live and holds exactly that root. now caches the frame's clock read.
func (in *Instance) spoutAck(a *tuple.AckTuple, now *int64) {
	slot := uint32(a.Root)
	if int(slot) >= len(in.pending) {
		return
	}
	p := &in.pending[slot]
	if p.msgID == nil || p.root != a.Root {
		return
	}
	msgID, emitNs := p.msgID, p.emitNs
	p.msgID, p.emitNs = nil, 0
	in.free = append(in.free, slot)
	in.inflight--
	in.mPending.Set(int64(in.inflight))
	switch a.Kind {
	case tuple.AckAck:
		in.mAcked.Inc(1)
		if emitNs != 0 {
			if *now == 0 {
				*now = network.NowNanos()
			}
			in.mLatency.Observe(*now - emitNs)
		}
		in.opts.Spout.Ack(msgID)
	case tuple.AckFail, tuple.AckExpired:
		in.mFailed.Inc(1)
		in.opts.Spout.Fail(msgID)
	}
}
