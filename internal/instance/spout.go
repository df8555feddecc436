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
	var root, anchorXor uint64
	if reliable {
		root = MakeRoot(in.opts.ID.TaskID, in.rng.Uint64())
	}

	t := tuple.Get()
	defer tuple.Put(t)
	t.SrcTask = in.opts.ID.TaskID
	t.StreamID = sid
	t.Values = append(t.Values, values...)
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

	if reliable {
		in.pending[root] = pendingEmit{msgID: msgID, emitNs: time.Now().UnixNano()}
		in.inflight++
		in.mPending.Set(int64(in.inflight))
		in.sendAck(&tuple.AckTuple{
			Kind: tuple.AckAnchor, SpoutTask: in.opts.ID.TaskID,
			Root: root, Delta: anchorXor,
		})
	}
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
		_ = tuple.WalkAckFrame(f.buf.B, func(ab []byte) error {
			var a tuple.AckTuple
			if err := tuple.DecodeAck(ab, &a); err == nil {
				in.spoutAck(&a)
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

// spoutAck completes one pending emission.
func (in *Instance) spoutAck(a *tuple.AckTuple) {
	p, ok := in.pending[a.Root]
	if !ok {
		return
	}
	delete(in.pending, a.Root)
	in.inflight--
	in.mPending.Set(int64(in.inflight))
	switch a.Kind {
	case tuple.AckAck:
		in.mAcked.Inc(1)
		in.mLatency.Observe(time.Now().UnixNano() - p.emitNs)
		in.opts.Spout.Ack(p.msgID)
	case tuple.AckFail, tuple.AckExpired:
		in.mFailed.Inc(1)
		in.opts.Spout.Fail(p.msgID)
	}
}
