package instance

import (
	"log"
	"sync/atomic"
	"time"

	"heron/api"
	"heron/internal/core"
	"heron/internal/encoding/wire"
	"heron/internal/network"
	"heron/internal/tuple"
)

// boltTuple implements api.Tuple for one received data tuple. It carries
// the anchoring state the collector needs to compute ack deltas: the
// tuple's own key, its roots, and the XOR of the keys of every tuple
// emitted anchored to it.
//
// raw is the tuple's own immutable copy of its roots (8 little-endian
// bytes each) followed by its encoded values, checked at receive. The
// typed getters read values straight from raw, so String returns a
// substring that stays valid, and usable as a map key, after Execute
// returns; only Bytes and Values materialise, once, into values. A tuple
// is two allocations — itself and raw — and info points into the plan's
// stream table instead of copying its names. Nothing is pooled: user code
// may keep a tuple after Execute returns.
type boltTuple struct {
	raw        string
	info       *core.StreamInfo           // nil for a stream the plan does not know
	values     atomic.Pointer[api.Values] // nil until Bytes or Values is called
	key        uint64
	emittedXor uint64
	nroots     int32
	done       bool
}

// newBoltTuple builds a tuple from a decoded header and the body
// DecodeHeader returned (roots, then checked values), which may alias a
// frame: raw copies it.
func newBoltTuple(dt *tuple.DataTuple, body []byte) *boltTuple {
	return &boltTuple{raw: string(body), key: dt.Key, nroots: int32(len(dt.Roots))}
}

// root returns the tuple's i-th root.
func (t *boltTuple) root(i int) uint64 {
	r, _ := wire.Fixed64(t.raw[8*i : 8*i+8])
	return r
}

// vals returns the tuple's encoded values.
func (t *boltTuple) vals() tuple.RawValues { return tuple.RawValues(t.raw[8*t.nroots:]) }

// Values implements api.Tuple. A kept tuple may be read from several
// goroutines, so the first materialisation to land is the one every
// caller gets.
func (t *boltTuple) Values() api.Values {
	if vs := t.values.Load(); vs != nil {
		return *vs
	}
	vs := api.Values(t.vals().Values())
	if !t.values.CompareAndSwap(nil, &vs) {
		return *t.values.Load()
	}
	return vs
}

// SourceComponent implements api.Tuple.
func (t *boltTuple) SourceComponent() string {
	if t.info == nil {
		return ""
	}
	return t.info.SrcComponent
}

// Stream implements api.Tuple.
func (t *boltTuple) Stream() string {
	if t.info == nil {
		return ""
	}
	return t.info.Stream
}

// String implements api.Tuple.
func (t *boltTuple) String(i int) string { return t.vals().String(i) }

// Int implements api.Tuple.
func (t *boltTuple) Int(i int) int64 { return t.vals().Int(i) }

// Float implements api.Tuple.
func (t *boltTuple) Float(i int) float64 { return t.vals().Float(i) }

// Bool implements api.Tuple.
func (t *boltTuple) Bool(i int) bool { return t.vals().Bool(i) }

// Bytes implements api.Tuple.
func (t *boltTuple) Bytes(i int) []byte { return t.Values()[i].([]byte) }

// boltCollector implements api.BoltCollector; executor goroutine only.
type boltCollector struct {
	in      *Instance
	destBuf []int32
	encBuf  []byte
	roots   []uint64
	anchors []*boltTuple
}

// Emit implements api.BoltCollector.
func (c *boltCollector) Emit(stream string, anchors []api.Tuple, values ...any) {
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

	// Union of the anchors' roots (duplicates are fine to skip: roots are
	// per-spout-emission and an input is anchored to each root once).
	c.roots = c.roots[:0]
	c.anchors = c.anchors[:0]
	reliable := in.opts.Cfg.AckingEnabled && len(anchors) > 0
	if reliable {
		for _, a := range anchors {
			bt, ok := a.(*boltTuple)
			if !ok {
				continue
			}
			c.anchors = append(c.anchors, bt)
			for i := 0; i < int(bt.nroots); i++ {
				r := bt.root(i)
				dup := false
				for _, have := range c.roots {
					if have == r {
						dup = true
						break
					}
				}
				if !dup {
					c.roots = append(c.roots, r)
				}
			}
		}
		reliable = len(c.roots) > 0
	}

	t := tuple.Get()
	defer tuple.Put(t)
	t.SrcTask = in.opts.ID.TaskID
	t.StreamID = sid
	t.Values = append(t.Values, values...)
	if reliable {
		t.Roots = append(t.Roots, c.roots...)
	}
	for _, dest := range dests {
		t.DestTask = dest
		if reliable {
			t.Key = in.rng.Uint64() | 1
			// The new key joins every anchor's pending XOR: it is folded
			// into the anchors' ack deltas.
			for _, bt := range c.anchors {
				bt.emittedXor ^= t.Key
			}
		}
		if in.codec.Pooled() {
			c.encBuf = in.codec.EncodeData(c.encBuf[:0], t)
			in.sendData(dest, c.encBuf)
		} else {
			in.sendData(dest, in.codec.EncodeData(nil, t))
		}
		in.mEmitted.Inc(1)
	}
}

// Ack implements api.BoltCollector: the tuple's tree absorbs
// key ⊕ emittedChildren for every root.
func (c *boltCollector) Ack(t api.Tuple) {
	bt, ok := t.(*boltTuple)
	if !ok || bt.done {
		return
	}
	bt.done = true
	in := c.in
	if !in.opts.Cfg.AckingEnabled || bt.nroots == 0 {
		return
	}
	delta := bt.key ^ bt.emittedXor
	for i := 0; i < int(bt.nroots); i++ {
		root := bt.root(i)
		in.sendAck(&tuple.AckTuple{
			Kind: tuple.AckAck, SpoutTask: RootSpout(root), Root: root, Delta: delta,
		})
	}
	in.mAcked.Inc(1)
}

// Fail implements api.BoltCollector: every root's tree fails now.
func (c *boltCollector) Fail(t api.Tuple) {
	bt, ok := t.(*boltTuple)
	if !ok || bt.done {
		return
	}
	bt.done = true
	in := c.in
	if !in.opts.Cfg.AckingEnabled || bt.nroots == 0 {
		return
	}
	for i := 0; i < int(bt.nroots); i++ {
		root := bt.root(i)
		in.sendAck(&tuple.AckTuple{
			Kind: tuple.AckFail, SpoutTask: RootSpout(root), Root: root,
		})
	}
	in.mFailed.Inc(1)
}

// runBolt is the bolt executor loop.
func (in *Instance) runBolt() {
	col := &boltCollector{in: in}
	if err := in.opts.Bolt.Prepare(context{in}, col); err != nil {
		log.Printf("instance %v: bolt prepare: %v", in.opts.ID, err)
		return
	}
	defer func() {
		if err := in.opts.Bolt.Cleanup(); err != nil {
			log.Printf("instance %v: bolt cleanup: %v", in.opts.ID, err)
		}
	}()
	in.maybeRestore()
	// Bolts that implement api.Ticker and declare a tick interval get
	// periodic Tick calls on this goroutine, interleaved with Execute.
	var tick <-chan time.Time
	ticker, isTicker := in.opts.Bolt.(api.Ticker)
	if isTicker {
		if ms := in.tickEveryMs(); ms > 0 {
			tk := time.NewTicker(time.Duration(ms) * time.Millisecond)
			defer tk.Stop()
			tick = tk.C
		}
	}
	var dt tuple.DataTuple
	for {
		select {
		case f := <-in.inbox:
			switch f.kind {
			case network.MsgData:
				in.boltData(f.buf, &dt, col) // recycles f.buf, possibly after a barrier
			case network.MsgMarker:
				in.boltMarker(f.buf.B, &dt, col)
				wire.PutBuffer(f.buf)
			case network.MsgCommitted:
				if id, _, _, err := tuple.DecodeMarker(f.buf.B); err == nil {
					in.epochCommitted(id)
				}
				wire.PutBuffer(f.buf)
			default:
				wire.PutBuffer(f.buf)
				continue
			}
			in.flushOut() // one outbound frame per processed batch
		case <-tick:
			if err := ticker.Tick(); err != nil {
				log.Printf("instance %v: tick: %v", in.opts.ID, err)
			}
			in.flushOut()
		case <-in.stop:
			return
		}
	}
}

// tickEveryMs reads this component's tick interval from the plan.
func (in *Instance) tickEveryMs() int64 {
	ps := in.plan.Load()
	if ps == nil {
		return 0
	}
	if spec := ps.pp.Topology.Component(in.opts.ID.Component); spec != nil {
		return spec.TickEveryMs
	}
	return 0
}

// executeFrame decodes and executes every tuple of one data frame.
func (in *Instance) executeFrame(frame []byte, dt *tuple.DataTuple, col *boltCollector) {
	_, _, err := tuple.WalkFrame(frame, func(tb []byte) error {
		if body, err := tuple.DecodeHeader(tb, dt); err == nil {
			in.execDecoded(dt, body, col)
		}
		return nil
	})
	if err != nil {
		log.Printf("instance %v: bad frame: %v", in.opts.ID, err)
	}
}

// execDecoded executes one tuple from its decoded header and body (shared
// by the direct path, the barrier filter and held-tuple replay). The
// unoptimised arm materialises every value here, as a full decode would.
func (in *Instance) execDecoded(dt *tuple.DataTuple, body []byte, col *boltCollector) {
	bt := newBoltTuple(dt, body)
	if !in.codec.Lazy() {
		bt.Values()
	}
	if ps := in.plan.Load(); ps != nil && dt.StreamID >= 0 && int(dt.StreamID) < len(ps.pp.Streams) {
		bt.info = &ps.pp.Streams[dt.StreamID]
	}
	in.mExecuted.Inc(1)
	// Clocking every execution costs two time reads per tuple on the
	// hottest path in the engine; 1-in-execLatSampleEvery is plenty
	// for the latency quantiles while mExecuted stays exact.
	sampled := in.execSeq&(execLatSampleEvery-1) == 0
	in.execSeq++
	var start time.Time
	if sampled {
		start = time.Now()
	}
	if err := in.opts.Bolt.Execute(bt); err != nil {
		log.Printf("instance %v: execute: %v", in.opts.ID, err)
	}
	if sampled {
		in.mExecLat.Observe(time.Since(start).Nanoseconds())
	}
}
