package main

import (
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"

	"heron/api"
)

// The generator and the sinks are the benchmark's side of the engine's
// public surface (api.Spout / api.Bolt). Their rule: nothing on the
// per-tuple path is shared between instances. Every instance owns one
// cache-line-padded state block; the controller sums blocks when it
// reads. Latency samples go to preallocated per-instance buffers.

var epoch = time.Now()

// nowNs is the benchmark clock: monotonic nanoseconds since process start.
func nowNs() int64 { return int64(time.Since(epoch)) }

// A stamp is the int64 every tuple carries. The low 40 bits are a clock
// value that wraps every 18 minutes, so a time since a stamp is taken
// modulo 2^40 ns (sinceStamp) and is right however long the process has
// run; bit 61 is always set so the varint encoding has the same width for
// every tuple of a run; a traced tuple additionally carries the emitting
// spout and its pending-ring slot.
const (
	stampTimeMask   = 1<<40 - 1
	stampSlotShift  = 40 // 11 bits: slot in the acked spout's pending ring
	stampSlotMask   = 1<<11 - 1
	stampSpoutShift = 51 // 4 bits
	stampSpoutMask  = 1<<4 - 1
	stampTraced     = 1 << 55
	stampWidth      = 1 << 61
)

func stamp(ns int64) int64  { return ns&stampTimeMask | stampWidth }
func stampNs(s int64) int64 { return s & stampTimeMask }

// sinceStamp is the time from the clock value in stamp s to now (a nowNs
// reading), which must be less than 18 minutes.
func sinceStamp(now, s int64) int64 { return (now - s) & stampTimeMask }
func stampSlot(s int64) int         { return int(s >> stampSlotShift & stampSlotMask) }
func stampSpout(s int64) int        { return int(s >> stampSpoutShift & stampSpoutMask) }
func tracedStamp(ns int64, spout, slot int) int64 {
	return stamp(ns) | stampTraced | int64(spout)<<stampSpoutShift | int64(slot)<<stampSlotShift
}

const (
	emitBatch   = 64 // tuples per NextTuple call
	sampleEvery = 8  // 1-in-8 latency and span sampling
	pendingRing = 2048
)

type pad [64]byte

// sampler is a single-writer append-only buffer of int64 samples that
// lives outside the Go heap, so that tens of megabytes of samples do not
// raise the GC's heap target and hide collection cost from the run.
type sampler struct {
	buf     []int64
	raw     []byte
	n       atomic.Int64
	dropped atomic.Int64
}

func newSampler(capacity int) (*sampler, error) {
	raw, err := syscall.Mmap(-1, 0, capacity*8, syscall.PROT_READ|syscall.PROT_WRITE,
		syscall.MAP_ANON|syscall.MAP_PRIVATE|syscall.MAP_NORESERVE)
	if err != nil {
		return nil, fmt.Errorf("sample buffer of %d entries: %w", capacity, err)
	}
	return &sampler{raw: raw, buf: unsafe.Slice((*int64)(unsafe.Pointer(&raw[0])), capacity)}, nil
}

func (s *sampler) add(v int64) {
	i := s.n.Load()
	if int(i) >= len(s.buf) {
		s.dropped.Add(1)
		return
	}
	s.buf[i] = v
	s.n.Store(i + 1)
}

func (s *sampler) free() {
	if s != nil && s.raw != nil {
		_ = syscall.Munmap(s.raw)
		s.raw, s.buf = nil, nil
	}
}

// spoutState is one spout instance's block.
type spoutState struct {
	_        pad
	emitted  atomic.Int64 // fresh tuples: the audit replays exactly this many
	replayed atomic.Int64 // re-emits after Fail (wc_acked)
	acked    atomic.Int64
	failed   atomic.Int64
	// Spans, accumulated only while rig.trace is set.
	nextNs   atomic.Int64 // inside NextTuple
	idleNs   atomic.Int64 // between NextTuple calls
	emitNs   atomic.Int64 // inside SpoutCollector.Emit, sampled calls only
	emitN    atomic.Int64
	fetchNs  atomic.Int64 // inside kafkasim Consumer.Poll
	_        pad
	lat      *sampler    // wc_acked: emit → Ack callback
	late     *sampler    // open loops: emit clock − due time
	ackRet   *sampler    // traced: bolt Ack call → spout Ack callback
	startDue int64       // open loops: due time of tuple 0 (set once, by the spout)
	stopped  atomic.Bool // the spout has seen genStop: its emitted count is final
}

// boltState is one bolt instance's block.
type boltState struct {
	_        pad
	received atomic.Int64
	dropped  atomic.Int64 // filter: events not forwarded
	userNs   atomic.Int64 // inside Execute (sampled on WordCount, every call on ETL)
	ackNs    atomic.Int64 // inside BoltCollector.Ack, sampled calls only
	ackN     atomic.Int64
	writeNs  atomic.Int64 // inside the Redis pipeline flush
	spanN    atomic.Int64 // Execute calls timed
	_        pad
	lat      *sampler // latency to this operator
	transit  *sampler // traced: Emit call → Execute entry
}

// rig is everything one submitted topology shares with the controller.
type rig struct {
	w      *workload
	seed   int64
	dict   []string
	words  []any // dict pre-boxed, so an emit allocates nothing in the generator
	spouts []*spoutState
	bolts  []*boltState // the last operator
	mids   []*boltState // ETL filter
	window int64        // closed loop: in-flight bound

	opened atomic.Int32 // instances whose Open or Prepare has run
	phase  atomic.Int32 // genHold → genEmit once every instance is open → genStop to drain
	trace  atomic.Bool  // spans on

	// ackCall[spout][slot] is the time a sink called Ack for the traced
	// tuple in that pending-ring slot.
	ackCall [][]atomic.Int64

	etl *etlInput

	mu    sync.Mutex
	sinks []*wcSink // for the audit, registered in Prepare
}

// Generator phases.
const (
	genHold int32 = iota
	genEmit
	genStop
)

// mayEmit is every NextTuple's first question. A spout that sees genStop
// says so: only then is its emitted count final, because the phase can
// change while a batch is being emitted.
func (r *rig) mayEmit(me *spoutState) bool {
	switch r.phase.Load() {
	case genEmit:
		return true
	case genStop:
		me.stopped.Store(true)
	}
	return false
}

func (r *rig) emittedTotal() int64 {
	var n int64
	for _, s := range r.spouts {
		n += s.emitted.Load() + s.replayed.Load()
	}
	return n
}

func sumSpouts(ss []*spoutState, f func(*spoutState) int64) int64 {
	var n int64
	for _, s := range ss {
		n += f(s)
	}
	return n
}

func (r *rig) freshTotal() int64 {
	return sumSpouts(r.spouts, func(s *spoutState) int64 { return s.emitted.Load() })
}

func (r *rig) replayedTotal() int64 {
	return sumSpouts(r.spouts, func(s *spoutState) int64 { return s.replayed.Load() })
}

func sumBolts(bs []*boltState, f func(*boltState) int64) int64 {
	var n int64
	for _, b := range bs {
		n += f(b)
	}
	return n
}

func (r *rig) receivedTotal() int64 {
	return sumBolts(r.bolts, func(b *boltState) int64 { return b.received.Load() })
}

func (r *rig) failedTotal() int64 {
	return sumSpouts(r.spouts, func(s *spoutState) int64 { return s.failed.Load() })
}

// delivered counts spout tuples that reached the last operator they are
// routed to. On ETL that is the filter for dropped events and the
// aggregator for kept ones; on wc_acked it is the spout's Ack callback.
func (r *rig) delivered() int64 {
	switch {
	case r.w.etl:
		return sumBolts(r.mids, func(b *boltState) int64 { return b.dropped.Load() }) + r.receivedTotal()
	case r.w.acked:
		return sumSpouts(r.spouts, func(s *spoutState) int64 { return s.acked.Load() })
	default:
		return r.receivedTotal()
	}
}

// drained reports whether every spout has stopped and every emitted tuple
// has been accounted for.
func (r *rig) drained() bool {
	for _, s := range r.spouts {
		if !s.stopped.Load() {
			return false
		}
	}
	switch {
	case r.w.etl:
		mid := sumBolts(r.mids, func(b *boltState) int64 { return b.received.Load() })
		kept := mid - sumBolts(r.mids, func(b *boltState) int64 { return b.dropped.Load() })
		return mid == r.emittedTotal() && r.receivedTotal() == kept
	case r.w.acked:
		return r.delivered()+r.failedTotal() == r.emittedTotal()
	default:
		return r.receivedTotal() == r.emittedTotal()
	}
}

// splitmix is the generator's PRNG: small, fast and replayable by the
// reference computation from (seed, instance).
type splitmix uint64

func newSplitmix(seed int64, instance int) splitmix {
	return splitmix(uint64(seed)*0x9E3779B97F4A7C15 + uint64(instance+1)*0xD1B54A32D192ED03)
}

func (s *splitmix) next() uint64 {
	*s += 0x9E3779B97F4A7C15
	z := uint64(*s)
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return z ^ z>>31
}

// intn returns a value in [0, n) (n < 2^32).
func (s *splitmix) intn(n int) int { return int((s.next() >> 32) * uint64(n) >> 32) }

// spoutSpans does the per-call span bookkeeping shared by every spout:
// time between NextTuple calls and time inside them.
type spoutSpans struct {
	me       *spoutState
	lastExit int64
	traced   bool
}

func (s *spoutSpans) enter(r *rig, t int64) {
	s.traced = r.trace.Load()
	if s.traced && s.lastExit != 0 {
		s.me.idleNs.Add(t - s.lastExit)
	}
}

func (s *spoutSpans) exit(t int64) {
	if !s.traced {
		s.lastExit = 0
		return
	}
	s.lastExit = nowNs()
	s.me.nextNs.Add(s.lastExit - t)
}

// timedEmit is Emit wrapped in a span.
func (s *spoutSpans) timedEmit(out api.SpoutCollector, id any, vals []any, t0 int64) {
	out.Emit("", id, vals...)
	s.me.emitNs.Add(nowNs() - t0)
	s.me.emitN.Add(1)
}

// wordSpout generates WordCount input: uniformly random words from the
// dictionary, each with a stamp. It runs either as a closed loop (emit
// while the in-flight window has room; with acking the engine's
// max-spout-pending is the window) or as an open loop on an arithmetic
// schedule.
type wordSpout struct {
	spoutSpans
	r    *rig
	idx  int
	out  api.SpoutCollector
	rng  splitmix
	vals [2]any
	seq  int64

	// acked: the pending ring. A msgID is a slot index, pre-boxed.
	ids     []any
	free    []int32
	slotT   []int64
	slotKey []int32
	replay  []int32
	ackN    int64

	// open loop
	interval int64
	n        int64
}

func (s *wordSpout) Open(ctx api.TopologyContext, out api.SpoutCollector) error {
	s.idx = int(ctx.ComponentIndex())
	if s.idx >= len(s.r.spouts) {
		return fmt.Errorf("bench: spout index %d outside the %d planned", s.idx, len(s.r.spouts))
	}
	s.me = s.r.spouts[s.idx]
	s.out = out
	s.rng = newSplitmix(s.r.seed, s.idx)
	if s.r.w.acked {
		s.ids = make([]any, pendingRing)
		s.free = make([]int32, 0, pendingRing)
		s.slotT = make([]int64, pendingRing)
		s.slotKey = make([]int32, pendingRing)
		for i := pendingRing - 1; i >= 0; i-- {
			s.ids[i] = i
			s.free = append(s.free, int32(i))
		}
	}
	if rate := s.r.w.ratePerSpout; rate > 0 {
		s.interval = int64(time.Second) / int64(rate)
	}
	s.r.opened.Add(1)
	return nil
}

func (s *wordSpout) NextTuple() bool {
	t := nowNs()
	s.enter(s.r, t)
	var ok bool
	if s.interval > 0 {
		ok = s.emitDue(t)
	} else {
		ok = s.emitWindow(t)
	}
	s.exit(t)
	return ok
}

// emitWindow is the closed loop: one clock read (the caller's) per batch.
func (s *wordSpout) emitWindow(t int64) bool {
	r := s.r
	if !r.mayEmit(s.me) {
		return false
	}
	acked := r.w.acked
	if !acked && r.emittedTotal()-r.receivedTotal() >= r.window {
		return false
	}
	batchStamp := any(stamp(t))
	var fresh, again int64
	for i := 0; i < emitBatch; i++ {
		var key int32
		isReplay := false
		if n := len(s.replay); n > 0 {
			key, s.replay, isReplay = s.replay[n-1], s.replay[:n-1], true
		}
		var id any
		slot := 0
		if acked {
			n := len(s.free)
			if n == 0 {
				if isReplay {
					s.replay = append(s.replay, key)
				}
				break
			}
			slot = int(s.free[n-1])
			s.free = s.free[:n-1]
			id = s.ids[slot]
		}
		if isReplay {
			again++
		} else {
			key = int32(s.rng.intn(len(r.words)))
			fresh++
		}
		if acked {
			s.slotT[slot], s.slotKey[slot] = t, key
		}
		s.vals[0] = r.words[key]
		if s.traced && s.seq%sampleEvery == 0 {
			t0 := nowNs()
			s.vals[1] = tracedStamp(t0, s.idx, slot)
			s.timedEmit(s.out, id, s.vals[:], t0)
		} else {
			s.vals[1] = batchStamp
			s.out.Emit("", id, s.vals[:]...)
		}
		s.seq++
	}
	s.count(fresh, again)
	return fresh+again > 0
}

// emitDue is the open loop: tuple i is due at startDue + i·interval, and
// everything due by now is emitted, at most one batch per call.
func (s *wordSpout) emitDue(t int64) bool {
	r := s.r
	if !r.mayEmit(s.me) {
		return false
	}
	if s.n == 0 {
		s.me.startDue = t
	}
	due := s.me.startDue + s.n*s.interval
	if due > t {
		return false
	}
	var fresh int64
	for ; fresh < emitBatch && due <= t; fresh++ {
		s.vals[0] = r.words[s.rng.intn(len(r.words))]
		if s.seq%sampleEvery == 4 {
			s.me.late.add(t - due)
		}
		if s.traced && s.seq%sampleEvery == 0 {
			t0 := nowNs()
			s.vals[1] = tracedStamp(t0, s.idx, 0)
			s.timedEmit(s.out, nil, s.vals[:], t0)
		} else {
			s.vals[1] = stamp(due)
			s.out.Emit("", nil, s.vals[:]...)
		}
		s.seq++
		s.n++
		due += s.interval
	}
	s.count(fresh, 0)
	return true
}

func (s *wordSpout) count(fresh, again int64) {
	s.me.emitted.Add(fresh)
	if again > 0 {
		s.me.replayed.Add(again)
	}
}

func (s *wordSpout) Ack(id any) {
	slot := id.(int)
	s.ackN++
	if s.traced || s.ackN%sampleEvery == 0 {
		t := nowNs()
		if s.ackN%sampleEvery == 0 {
			s.me.lat.add(t - s.slotT[slot])
		}
		if s.traced {
			if called := s.r.ackCall[s.idx][slot].Swap(0); called != 0 {
				s.me.ackRet.add(t - called)
			}
		}
	}
	s.free = append(s.free, int32(slot))
	s.me.acked.Add(1)
}

// Fail replays the word: the engine is at-least-once under acking, and
// the audit allows a word to arrive more often than it was first emitted.
func (s *wordSpout) Fail(id any) {
	slot := id.(int)
	s.r.ackCall[s.idx][slot].Store(0)
	s.replay = append(s.replay, s.slotKey[slot])
	s.free = append(s.free, int32(slot))
	s.me.failed.Add(1)
}

func (s *wordSpout) Close() error { return nil }

// wcSink is the WordCount sink: a per-word count, saved and restored as
// keyed state when the topology checkpoints.
type wcSink struct {
	r      *rig
	me     *boltState
	out    api.BoltCollector
	counts map[string]int64
	n      int64
	sample bool
}

func (b *wcSink) Prepare(ctx api.TopologyContext, out api.BoltCollector) error {
	idx := int(ctx.ComponentIndex())
	if idx >= len(b.r.bolts) {
		return fmt.Errorf("bench: sink index %d outside the %d planned", idx, len(b.r.bolts))
	}
	b.me = b.r.bolts[idx]
	b.out = out
	b.counts = make(map[string]int64, len(b.r.dict))
	b.sample = !b.r.w.acked
	b.r.mu.Lock()
	b.r.sinks = append(b.r.sinks, b)
	b.r.mu.Unlock()
	b.r.opened.Add(1)
	return nil
}

func (b *wcSink) Execute(t api.Tuple) error {
	st := t.Int(1)
	if st&stampTraced != 0 {
		b.executeTraced(t, st)
		return nil
	}
	b.counts[t.String(0)]++
	b.n++
	if b.sample && b.n%sampleEvery == 0 {
		b.me.lat.add(sinceStamp(nowNs(), st))
	}
	b.out.Ack(t)
	b.me.received.Add(1)
	return nil
}

// executeTraced is Execute with spans: transit up to entry, the time
// inside Execute, and the time inside BoltCollector.Ack.
func (b *wcSink) executeTraced(t api.Tuple, st int64) {
	t0 := nowNs()
	b.me.transit.add(sinceStamp(t0, st))
	b.counts[t.String(0)]++
	b.n++
	t1 := nowNs()
	if b.r.w.acked {
		b.r.ackCall[stampSpout(st)][stampSlot(st)].Store(t1)
	}
	b.out.Ack(t)
	t2 := nowNs()
	b.me.ackNs.Add(t2 - t1)
	b.me.ackN.Add(1)
	b.me.userNs.Add(t2 - t0)
	b.me.spanN.Add(1)
	b.me.received.Add(1)
}

func (b *wcSink) Cleanup() error { return nil }

// SaveState implements api.StatefulComponent: one key per word.
func (b *wcSink) SaveState(s api.State) error {
	for w, n := range b.counts {
		s.Set(w, strconv.AppendInt(nil, n, 10))
	}
	return nil
}

// RestoreState implements api.StatefulComponent. No workload injects a
// failure, so it only ever sees the empty initial state.
func (b *wcSink) RestoreState(s api.State) error {
	var err error
	s.Range(func(k string, v []byte) bool {
		var n int64
		if n, err = strconv.ParseInt(string(v), 10, 64); err != nil {
			return false
		}
		b.counts[k] = n
		return true
	})
	return err
}
