// Package stmgr implements the Stream Manager: the dedicated process
// responsible for all data transfers among Heron Instances (the paper's
// Sections II and V). One Stream Manager runs per container; instances
// connect to their local Stream Manager, and Stream Managers form a full
// mesh across containers.
//
// The module carries the paper's Section V-A optimizations, switchable at
// configuration time so the evaluation's "with/without optimizations"
// comparison (Figures 5–9) is reproducible:
//
//   - optimized: pooled buffers, per-destination tuple-cache batching
//     drained every cache_drain_frequency, and lazy forwarding — only the
//     destination field of a tuple is parsed, the payload crosses the
//     router as an opaque byte slice.
//   - unoptimized: allocation per message, no batching (every tuple is
//     its own frame), and a full decode + re-encode at every hop.
//
// There is one data path (shard.go): a receive goroutine moves each
// frame, with its buffer, into the dispatch ring of the shard that owns
// the destination task, and that shard's worker routes it — at one shard
// as at many, optimized or not. The path is lock-free with respect to
// the Stream Manager's own state: routing decisions read an immutable
// routeTable snapshot through one atomic pointer load, and control-plane
// changes (plan broadcasts, registrations, peer dials) rebuild and swap
// the snapshots under s.mu. Tuple payloads cross the router with at most
// one copy: they are appended once into a pooled batch frame whose
// ownership then flows cache → outbox → Conn.SendOwned → pool.
//
// The Stream Manager also hosts the acker state for local spouts and
// implements spout-based backpressure: when a local delivery queue grows
// past the high-water mark, local spouts are paused and peers are told to
// pause theirs.
package stmgr

import (
	"errors"
	"fmt"
	"log"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"heron/internal/acker"
	"heron/internal/core"
	"heron/internal/ctrl"
	"heron/internal/encoding/wire"
	"heron/internal/metrics"
	"heron/internal/network"
	"heron/internal/statemgr"
	"heron/internal/tuple"
)

// Backpressure watermarks, in frames queued toward one local instance.
const (
	backpressureHWM = 2048
	backpressureLWM = 128
)

// Options configure one Stream Manager.
type Options struct {
	Topology  string
	Container int32
	Cfg       *core.Config
	// State is this container's State Manager session, used to discover
	// the TMaster.
	State *statemgr.Manager
	// Registry receives this container's data-plane metrics.
	Registry *metrics.Registry
}

// routeTable is an immutable snapshot of the routing state: the physical
// plan plus the outboxes of registered local instances and connected peer
// Stream Managers. The data path reads it with one atomic pointer load
// and never takes s.mu; mutators rebuild the tables under s.mu and swap
// them in (copy-on-write). The Stream Manager holds one whose peers are
// the control outboxes (backpressure, acks); each shard holds one whose
// peers are that shard's own data outboxes. All share one instances map.
type routeTable struct {
	plan      *core.PhysicalPlan
	instances map[int32]*outbox // local task id → delivery queue
	peers     map[int32]*outbox // container id → peer stream manager
}

// StreamManager routes every tuple of one container.
type StreamManager struct {
	opts      Options
	transport network.Transport
	codec     tuple.Codec
	optimized bool

	listener network.Listener

	// routes is the data path's view of the world; see routeTable.
	routes atomic.Pointer[routeTable]

	// mu guards the control-plane master copies below. The data path
	// (processData, flushBatch, deliverOwned, routeAck) never takes it
	// outside the two park slow paths.
	mu        sync.Mutex
	plan      *core.PhysicalPlan
	epoch     int64                  // epoch of the applied plan
	instances map[int32]*outbox      // local task id → delivery queue
	instConns map[int32]network.Conn // local task id → conn (for close)
	// pending holds data frames for local tasks whose instance has not
	// registered yet (instances and their upstream spouts start
	// concurrently); flushed on registration, capped per task. Buffers are
	// pooled and owned by the parked queue.
	pending map[int32][]*wire.Buffer
	// peerPending parks data frames bound for a container that is in the
	// plan but whose peer connection is not established yet. The window is
	// real during a runtime rescale: relaunched spouts restore and replay
	// while the plan broadcast still lacks a late-registering container's
	// address (a brand-new container from a scale-up registers last), and a
	// dropped frame there is a lost tuple the checkpoint already passed.
	// Flushed in order when the peer dial lands; capped per container.
	// Entries carry their destination task so replay can target the
	// outbox of the shard that owns it.
	peerPending map[int32][]parkedFrame
	peers       map[int32]*outbox // control outbox per peer container
	peerConns   map[int32]network.Conn
	peerAddrs   map[int32]string
	spoutsUp    map[int32]bool // local spout tasks currently registered
	// peerShardOut holds, per peer container, one data outbox per shard,
	// all writing to the shared peer connection (whose mutex serializes
	// the writes), so shard workers never contend on a queue lock while a
	// remote peer still sees one ordered connection.
	peerShardOut map[int32][]*outbox

	// nShards and shards are fixed at construction: each shard runs a
	// worker over its own ring, cache and acker.
	nShards int
	shards  []*shard
	// planReady holds the shard workers until the first plan is published
	// (or Stop); see shard.run.
	planReady chan struct{}
	planOnce  sync.Once

	acks *ackBatcher // remote acks, batched per peer container

	// Backpressure state machine. bpActive is read on every outbox depth
	// observation (the data path), so it is an atomic; bpMu serializes the
	// rare transitions and guards bpSince.
	bpActive atomic.Bool
	bpMu     sync.Mutex
	bpSince  time.Time // when the current assertion began

	stopCh      chan struct{}
	stopOnce    sync.Once
	wg          sync.WaitGroup
	tmasterMu   sync.Mutex
	tmaster     network.Conn
	tmasterLoc  core.TMasterLocation // where tmaster was dialed
	cancelWatch func()

	mCacheDrains *metrics.Counter
	mCacheDepth  *metrics.Gauge
	mTuplesIn    *metrics.Counter
	mTuplesFwd   *metrics.Counter
	mAcksRouted  *metrics.Counter
	mAcksDropped *metrics.Counter
	mBPTransit   *metrics.Counter
	mBPTime      *metrics.Counter
	mBPActive    *metrics.Gauge
	mBytesSent   *metrics.Counter
	mBytesRecv   *metrics.Counter
	mCkptEpoch   *metrics.Gauge
	mRouteLat    *metrics.Histogram
}

// newCore builds a Stream Manager with its routing state, metrics, shard
// set and caches wired, but no listener and no control loops — the shared
// substrate of New and the in-package test/bench constructors, so the two
// can never drift.
func newCore(opts Options) (*StreamManager, error) {
	if opts.Cfg == nil {
		return nil, errors.New("stmgr: missing config")
	}
	tr, err := network.ByName(opts.Cfg.Transport)
	if err != nil {
		return nil, err
	}
	codec, err := tuple.ByName(opts.Cfg.Codec)
	if err != nil {
		return nil, err
	}
	if opts.Registry == nil {
		opts.Registry = metrics.NewRegistry()
	}
	s := &StreamManager{
		opts:         opts,
		transport:    tr,
		codec:        codec,
		optimized:    opts.Cfg.StreamManagerOptimized,
		instances:    map[int32]*outbox{},
		instConns:    map[int32]network.Conn{},
		pending:      map[int32][]*wire.Buffer{},
		peerPending:  map[int32][]parkedFrame{},
		peers:        map[int32]*outbox{},
		peerConns:    map[int32]network.Conn{},
		peerAddrs:    map[int32]string{},
		peerShardOut: map[int32][]*outbox{},
		spoutsUp:     map[int32]bool{},
		planReady:    make(chan struct{}),
		stopCh:       make(chan struct{}),
	}
	tags := metrics.Tags{Component: metrics.StmgrComponent, Task: opts.Container}
	s.mCacheDrains = opts.Registry.Counter(metrics.MStmgrCacheDrains, tags)
	s.mCacheDepth = opts.Registry.Gauge(metrics.MStmgrCacheDepth, tags)
	s.mTuplesIn = opts.Registry.Counter(metrics.MStmgrTuplesIn, tags)
	s.mTuplesFwd = opts.Registry.Counter(metrics.MStmgrTuplesFwd, tags)
	s.mAcksRouted = opts.Registry.Counter(metrics.MStmgrAcksRouted, tags)
	s.mAcksDropped = opts.Registry.Counter(metrics.MStmgrAcksDropped, tags)
	s.mBPTransit = opts.Registry.Counter(metrics.MStmgrBPTransitions, tags)
	s.mBPTime = opts.Registry.Counter(metrics.MStmgrBPAssertedTime, tags)
	s.mBPActive = opts.Registry.Gauge(metrics.MStmgrBPActive, tags)
	s.mBytesSent = opts.Registry.Counter(metrics.MStmgrBytesSent, tags)
	s.mBytesRecv = opts.Registry.Counter(metrics.MStmgrBytesReceived, tags)
	s.mCkptEpoch = opts.Registry.Gauge(metrics.MCheckpointEpoch, tags)
	s.mRouteLat = opts.Registry.Histogram(metrics.MStmgrRouteLatency, tags)
	s.nShards = opts.Cfg.ResolveStmgrShards(runtime.GOMAXPROCS(0))
	s.acks = newAckBatcher(s.peerOutboxes, s.mAcksDropped)
	s.initShards()
	s.publishRoutes()
	return s, nil
}

// New creates and starts a Stream Manager: it listens for data
// connections, registers with the TMaster as soon as the TMaster location
// appears in the State Manager, and begins routing once the physical plan
// arrives.
func New(opts Options) (*StreamManager, error) {
	if opts.Cfg == nil || opts.State == nil {
		return nil, errors.New("stmgr: missing config or state manager")
	}
	s, err := newCore(opts)
	if err != nil {
		return nil, err
	}
	l, err := s.transport.Listen("")
	if err != nil {
		s.Stop()
		return nil, err
	}
	s.listener = l

	s.wg.Add(2)
	go s.acceptLoop()
	go s.drainLoop()
	if opts.Cfg.AckingEnabled {
		s.wg.Add(1)
		go s.rotateLoop()
	}
	if err := s.watchTMaster(); err != nil {
		s.Stop()
		return nil, err
	}
	return s, nil
}

// publishRoutesLocked rebuilds the immutable routing snapshots from the
// master copies; the caller holds s.mu. Every mutation of plan,
// instances, or peers must republish before releasing the lock. The first
// publication that carries a plan releases the shard workers.
func (s *StreamManager) publishRoutesLocked() {
	rt := &routeTable{
		plan:      s.plan,
		instances: make(map[int32]*outbox, len(s.instances)),
		peers:     make(map[int32]*outbox, len(s.peers)),
	}
	for task, o := range s.instances {
		rt.instances[task] = o
	}
	for c, o := range s.peers {
		rt.peers[c] = o
	}
	s.routes.Store(rt)
	// Each shard gets its own snapshot: the shared instances map plus the
	// shard's slice of the per-peer outbox fan-out.
	for i, sh := range s.shards {
		sr := &routeTable{plan: s.plan, instances: rt.instances}
		if len(s.peerShardOut) > 0 {
			sr.peers = make(map[int32]*outbox, len(s.peerShardOut))
			for c, outs := range s.peerShardOut {
				sr.peers[c] = outs[i]
			}
		}
		sh.routes.Store(sr)
	}
	if s.plan != nil {
		s.planOnce.Do(func() { close(s.planReady) })
	}
}

// publishRoutes is publishRoutesLocked for callers not yet holding s.mu.
func (s *StreamManager) publishRoutes() {
	s.mu.Lock()
	s.publishRoutesLocked()
	s.mu.Unlock()
}

// Addr returns the data listener's address for the TMaster directory.
func (s *StreamManager) Addr() string { return s.listener.Addr() }

// watchTMaster connects (and reconnects) to the TMaster whenever its
// location changes in the State Manager.
func (s *StreamManager) watchTMaster() error {
	connect := func(loc core.TMasterLocation) {
		if loc.Addr == "" {
			return
		}
		s.connectTMaster(loc)
	}
	cancel, err := s.opts.State.WatchTMasterLocation(s.opts.Topology, connect)
	if err != nil {
		return err
	}
	s.cancelWatch = cancel
	// The location may already be present.
	if loc, err := s.opts.State.GetTMasterLocation(s.opts.Topology); err == nil {
		connect(loc)
	}
	return nil
}

// connectTMaster dials the TMaster at loc and registers over the new
// connection. The location watch and watchTMaster's initial read can both
// deliver the same location at once; only the first connection to it is
// kept, and the redelivery's is closed unregistered. Otherwise the two
// registrations could race and leave the TMaster holding the connection
// this side closed, and no plan would reach us again.
func (s *StreamManager) connectTMaster(loc core.TMasterLocation) {
	tr, err := network.ByName(loc.Transport)
	if err != nil {
		return
	}
	conn, err := tr.Dial(loc.Addr)
	if err != nil {
		return
	}
	s.tmasterMu.Lock()
	stopped := false
	select {
	case <-s.stopCh:
		stopped = true
	default:
	}
	if stopped || (s.tmaster != nil && loc == s.tmasterLoc) {
		s.tmasterMu.Unlock()
		conn.Close()
		return
	}
	old := s.tmaster
	s.tmaster, s.tmasterLoc = conn, loc
	s.tmasterMu.Unlock()
	if old != nil {
		old.Close()
	}
	conn.Start(func(kind network.MsgKind, payload []byte) {
		if kind != network.MsgControl {
			return
		}
		m, err := ctrl.Decode(payload)
		if err != nil {
			return
		}
		switch m.Op {
		case ctrl.OpPlan:
			s.applyPlan(m.Plan)
		case ctrl.OpTune:
			s.forwardToSpouts(m)
		case ctrl.OpCheckpointTrigger:
			s.triggerCheckpoint(m.CheckpointID)
		case ctrl.OpCheckpointCommitted:
			s.mCkptEpoch.Set(m.CheckpointID)
			s.notifyCommitted(m.CheckpointID)
		}
	})
	reg, err := ctrl.Encode(&ctrl.Message{
		Op:        ctrl.OpRegisterStmgr,
		Topology:  s.opts.Topology,
		Container: s.opts.Container,
		DataAddr:  s.Addr(),
	})
	if err == nil {
		_ = conn.Send(network.MsgControl, reg)
	}
}

// applyPlan installs a broadcast physical plan: peer connections are
// reconciled against the new stream-manager directory, the routing
// snapshot is republished, and the plan is pushed to every registered
// local instance.
func (s *StreamManager) applyPlan(p *ctrl.PlanPayload) {
	if p == nil {
		return
	}
	pp, err := p.BuildPhysicalPlan()
	if err != nil {
		log.Printf("stmgr[%s/%d]: bad plan: %v", s.opts.Topology, s.opts.Container, err)
		return
	}
	raw, err := ctrl.Encode(&ctrl.Message{Op: ctrl.OpPlan, Topology: s.opts.Topology, Plan: p})
	if err != nil {
		return
	}

	s.mu.Lock()
	// A plan's epoch is the control-log seq of its plan record, which
	// rises across TMaster generations, and a fenced-out leader cannot
	// broadcast. So a lower epoch is a stale broadcast, whoever sent it.
	if p.Epoch < s.epoch {
		s.mu.Unlock()
		return
	}
	s.epoch = p.Epoch
	s.plan = pp
	// Reconcile peers: close connections whose address changed or whose
	// container vanished; dial new ones.
	type dial struct {
		container int32
		addr      string
	}
	var dials []dial
	for c, addr := range p.Stmgrs {
		if c == s.opts.Container {
			continue
		}
		if s.peerAddrs[c] != addr {
			if old := s.peers[c]; old != nil {
				old.close()
				s.closePeerShardOutLocked(c)
				s.peerConns[c].Close()
				delete(s.peers, c)
				delete(s.peerConns, c)
			}
			dials = append(dials, dial{c, addr})
		}
	}
	for c := range s.peers {
		if _, ok := p.Stmgrs[c]; !ok {
			s.peers[c].close()
			s.closePeerShardOutLocked(c)
			s.peerConns[c].Close()
			delete(s.peers, c)
			delete(s.peerConns, c)
			delete(s.peerAddrs, c)
		}
	}
	// Frames parked for a container the new plan no longer has were bound
	// for tasks that were scaled away; recycle them.
	for c, parked := range s.peerPending {
		if len(pp.ContainerTasks(c)) == 0 {
			for _, pf := range parked {
				wire.PutBuffer(pf.buf)
			}
			delete(s.peerPending, c)
		}
	}
	outs := make([]*outbox, 0, len(s.instances))
	for _, o := range s.instances {
		outs = append(outs, o)
	}
	s.publishRoutesLocked()
	s.mu.Unlock()

	for _, d := range dials {
		conn, err := s.transport.Dial(d.addr)
		if err != nil {
			log.Printf("stmgr[%s/%d]: dial peer %d at %s: %v",
				s.opts.Topology, s.opts.Container, d.container, d.addr, err)
			continue
		}
		// Frames we receive on a dialed peer conn (rare: peers answer on
		// their accepted side normally) go through the same router.
		s.startConn(conn, nil)
		s.attachPeer(d.container, d.addr, conn)
	}
	// Forward the plan to local instances.
	for _, o := range outs {
		o.enqueue(network.MsgControl, raw)
	}
}

// attachPeer installs an established peer connection as container's
// outboxes: one for control plus one per shard for data, all over the
// same connection. Frames parked while the container had no connection
// are replayed before the routing snapshot lets new traffic reach the
// outboxes directly: the parked queue and each outbox are FIFO, and
// parked frames replay into the outbox of the shard that owns their
// destination, so tuple order per destination is preserved.
func (s *StreamManager) attachPeer(container int32, addr string, conn network.Conn) {
	s.mu.Lock()
	s.peers[container] = newOutbox(conn, nil, s.onBytesSent)
	s.peerConns[container] = conn
	s.peerAddrs[container] = addr
	outs := make([]*outbox, s.nShards)
	for i := range outs {
		outs[i] = newOutbox(conn, nil, s.onBytesSent)
	}
	s.peerShardOut[container] = outs
	for _, pf := range s.peerPending[container] {
		outs[s.shardOf(pf.dest)].enqueueOwned(network.MsgData, pf.buf)
	}
	delete(s.peerPending, container)
	s.publishRoutesLocked()
	s.mu.Unlock()
}

// closePeerShardOutLocked closes and removes container's per-shard
// outboxes; the caller holds s.mu.
func (s *StreamManager) closePeerShardOutLocked(container int32) {
	for _, o := range s.peerShardOut[container] {
		o.close()
	}
	delete(s.peerShardOut, container)
}

// acceptLoop admits connections from local instances and peer stream
// managers; both speak the same framed protocol and are served by the
// same router.
func (s *StreamManager) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.listener.Accept()
		if err != nil {
			return
		}
		s.startConn(conn, s.handleControl)
	}
}

// startConn begins receiving on conn. Control frames go to onControl
// (nil for dialed peer connections, which never originate control);
// every other frame moves, with its buffer, from the transport into the
// router — no copy between the receive buffer and a shard ring.
func (s *StreamManager) startConn(conn network.Conn, onControl func(network.Conn, []byte)) {
	conn.StartOwned(func(kind network.MsgKind, buf *wire.Buffer) {
		if kind == network.MsgControl {
			if onControl != nil {
				onControl(conn, buf.B)
			}
			wire.PutBuffer(buf)
			return
		}
		s.routeFrameOwned(kind, buf)
	})
}

// handleControl processes a control frame from an accepted connection.
func (s *StreamManager) handleControl(conn network.Conn, payload []byte) {
	m, err := ctrl.Decode(payload)
	if err != nil {
		return
	}
	switch m.Op {
	case ctrl.OpRegisterInstance:
		s.registerInstance(conn, m.TaskID)
	case ctrl.OpBackpressure:
		// A peer asks us to pause/resume our local spouts.
		s.setSpoutPause(m.On, m.Container)
	case ctrl.OpTune:
		s.forwardToSpouts(m)
	case ctrl.OpCheckpointSaved:
		// A local instance persisted its snapshot; relay the ack to the
		// checkpoint coordinator on the TMaster.
		s.relayToTMaster(payload)
	}
}

// triggerCheckpoint starts checkpoint id on this container by injecting a
// trigger marker (srcTask -1) at every registered local spout. A spout
// that has not registered yet simply never sees the marker: the
// checkpoint cannot complete and is abandoned at the next interval.
func (s *StreamManager) triggerCheckpoint(id int64) {
	rt := s.routes.Load()
	if rt == nil || rt.plan == nil {
		return
	}
	for task, o := range rt.instances {
		if int(task) < len(rt.plan.Tasks) && rt.plan.Tasks[task].Kind == core.KindSpout {
			o.enqueue(network.MsgMarker, tuple.AppendMarker(nil, id, -1, task))
		}
	}
}

// notifyCommitted fans the global-commit notification for checkpoint id
// out to every registered local instance as a MsgCommitted frame — the
// second phase of the transactional source/sink protocol. The frame must
// not overtake data already batched for the same instance (a sink must
// see every pre-commit tuple before it learns the epoch committed), so it
// takes the same route its data takes: through the destination's shard
// ring (processCommitted flushes the shard cache for the destination
// first). Committed frames are local-only — every container's Stream
// Manager hears the broadcast itself, so nothing is forwarded to peers.
// Before the first plan it does nothing, which is what lets the shard
// workers wait for that plan without a cycle (see shard.run).
func (s *StreamManager) notifyCommitted(id int64) {
	rt := s.routes.Load()
	if rt == nil || rt.plan == nil {
		return
	}
	for task := range rt.instances {
		buf := wire.GetBuffer()
		buf.B = tuple.AppendMarker(buf.B, id, -1, task)
		_ = s.shards[s.shardOf(task)].inbox.Enqueue(network.MsgCommitted, buf)
	}
}

// relayToTMaster forwards a raw control frame from a local instance up to
// the TMaster (checkpoint acks travel instance → stmgr → coordinator).
func (s *StreamManager) relayToTMaster(payload []byte) {
	s.tmasterMu.Lock()
	conn := s.tmaster
	s.tmasterMu.Unlock()
	if conn != nil {
		_ = conn.Send(network.MsgControl, payload)
	}
}

// forwardToSpouts relays a control message to every local spout instance.
func (s *StreamManager) forwardToSpouts(m *ctrl.Message) {
	raw, err := ctrl.Encode(m)
	if err != nil {
		return
	}
	for _, o := range s.spoutOutboxes() {
		o.enqueue(network.MsgControl, raw)
	}
}

// spoutOutboxes returns the outboxes of registered local spout instances,
// from the routing snapshot.
func (s *StreamManager) spoutOutboxes() []*outbox {
	rt := s.routes.Load()
	if rt == nil || rt.plan == nil {
		return nil
	}
	var outs []*outbox
	for task, o := range rt.instances {
		if int(task) < len(rt.plan.Tasks) && rt.plan.Tasks[task].Kind == core.KindSpout {
			outs = append(outs, o)
		}
	}
	return outs
}

// registerInstance binds a local task to its connection, republishes the
// routing snapshot, and hands the instance the current plan.
func (s *StreamManager) registerInstance(conn network.Conn, task int32) {
	onDepth := func(depth int) { s.observeDepth(depth) }
	o := newOutbox(conn, onDepth, s.onBytesSent)

	s.mu.Lock()
	if old := s.instances[task]; old != nil {
		old.close()
	}
	s.instances[task] = o
	s.instConns[task] = conn
	parked := s.pending[task]
	delete(s.pending, task)
	var planMsg []byte
	if s.plan != nil {
		if raw, err := ctrl.Encode(&ctrl.Message{Op: ctrl.OpPlan, Topology: s.opts.Topology, Plan: s.payloadLocked()}); err == nil {
			planMsg = raw
		}
		if int(task) < len(s.plan.Tasks) && s.plan.Tasks[task].Kind == core.KindSpout {
			s.spoutsUp[task] = true
		}
	}
	s.publishRoutesLocked()
	s.mu.Unlock()
	if planMsg != nil {
		o.enqueue(network.MsgControl, planMsg)
	}
	// Release any data that arrived before this instance came up. Done
	// outside s.mu: enqueue triggers the depth callback.
	for _, buf := range parked {
		o.enqueueOwned(network.MsgData, buf)
	}
}

// payloadLocked rebuilds a plan payload from current state; caller holds mu.
func (s *StreamManager) payloadLocked() *ctrl.PlanPayload {
	stmgrs := make(map[int32]string, len(s.peerAddrs)+1)
	for c, a := range s.peerAddrs {
		stmgrs[c] = a
	}
	stmgrs[s.opts.Container] = s.Addr()
	return &ctrl.PlanPayload{
		Epoch:    s.epoch,
		Topology: s.plan.Topology,
		Packing:  s.plan.Packing,
		Stmgrs:   stmgrs,
	}
}

// onBytesSent feeds the bytes-sent counter from every outbox delivery.
func (s *StreamManager) onBytesSent(n int) { s.mBytesSent.Inc(int64(n)) }

// observeDepth drives the backpressure state machine from instance queue
// depths. It runs on every outbox enqueue, so the steady-state path is a
// single atomic load — s.mu is never taken here.
func (s *StreamManager) observeDepth(depth int) {
	if depth > backpressureHWM {
		if s.bpActive.Load() {
			return // already asserted
		}
		s.bpMu.Lock()
		trigger := !s.bpActive.Load()
		if trigger {
			s.bpActive.Store(true)
			s.bpSince = time.Now()
		}
		s.bpMu.Unlock()
		if trigger {
			s.mBPTransit.Inc(1)
			// The asserted-time counter only accrues on release, so a
			// sustained assertion would otherwise be invisible between
			// transitions; the gauge lets observers (the health manager's
			// backpressure sensor) see an assertion in progress.
			s.mBPActive.Set(1)
			s.broadcastBackpressure(true)
		}
		return
	}
	if depth > backpressureLWM || !s.bpActive.Load() {
		return
	}
	s.bpMu.Lock()
	release := s.bpActive.Load()
	if release {
		// Only release when every local queue is below the low-water mark.
		if rt := s.routes.Load(); rt != nil {
			for _, o := range rt.instances {
				if o.depth() > backpressureLWM {
					release = false
					break
				}
			}
		}
		if release {
			s.bpActive.Store(false)
			s.mBPTime.Inc(time.Since(s.bpSince).Nanoseconds())
		}
	}
	s.bpMu.Unlock()
	if release {
		s.mBPTransit.Inc(1)
		s.mBPActive.Set(0)
		s.broadcastBackpressure(false)
	}
}

// broadcastBackpressure pauses/resumes local spouts and tells every peer
// to do the same (Heron's spout-based backpressure).
func (s *StreamManager) broadcastBackpressure(on bool) {
	s.setSpoutPause(on, s.opts.Container)
	raw, err := ctrl.Encode(&ctrl.Message{
		Op: ctrl.OpBackpressure, Topology: s.opts.Topology,
		Container: s.opts.Container, On: on,
	})
	if err != nil {
		return
	}
	rt := s.routes.Load()
	if rt == nil {
		return
	}
	for _, p := range rt.peers {
		p.enqueue(network.MsgControl, raw)
	}
}

// setSpoutPause forwards a pause/resume to the local spout instances.
func (s *StreamManager) setSpoutPause(on bool, origin int32) {
	raw, err := ctrl.Encode(&ctrl.Message{
		Op: ctrl.OpBackpressure, Topology: s.opts.Topology,
		Container: origin, On: on,
	})
	if err != nil {
		return
	}
	for _, o := range s.spoutOutboxes() {
		o.enqueue(network.MsgControl, raw)
	}
}

// drainLoop ticks every cache_drain_frequency. The shard workers drain
// their own tuple caches; this loop aggregates the shard-local counters
// into the registry and publishes the summed cache depth. Acks never wait
// for it: routeAck sends the batches it fills.
func (s *StreamManager) drainLoop() {
	defer s.wg.Done()
	period := s.opts.Cfg.CacheDrainFrequency
	if period <= 0 {
		period = core.DefaultCacheDrainFrequency
	}
	t := time.NewTicker(period)
	defer t.Stop()
	for {
		select {
		case <-s.stopCh:
			s.aggregateShardCounters()
			return
		case <-t.C:
			var depth int64
			for _, sh := range s.shards {
				depth += sh.cache.buffered()
			}
			s.mCacheDepth.Set(depth)
			s.aggregateShardCounters()
			s.mCacheDrains.Inc(1)
		}
	}
}

// aggregateShardCounters folds the shards' single-writer tuple counters
// into the registry counters as deltas, so the hot path never touches a
// shared counter while the metrics plane still sees the usual series.
func (s *StreamManager) aggregateShardCounters() {
	for _, sh := range s.shards {
		if d := sh.tuplesIn.Load() - sh.lastIn; d != 0 {
			s.mTuplesIn.Inc(d)
			sh.lastIn += d
		}
		if d := sh.tuplesFwd.Load() - sh.lastFwd; d != 0 {
			s.mTuplesFwd.Inc(d)
			sh.lastFwd += d
		}
	}
}

// rotateLoop expires ack trees: messageTimeout spread over the rotation
// buckets.
func (s *StreamManager) rotateLoop() {
	defer s.wg.Done()
	timeout := s.opts.Cfg.MessageTimeout
	if timeout <= 0 {
		timeout = core.DefaultMessageTimeout
	}
	period := timeout / time.Duration(acker.DefaultBuckets-1)
	t := time.NewTicker(period)
	defer t.Stop()
	for {
		select {
		case <-s.stopCh:
			return
		case <-t.C:
			s.rotateAckers()
		}
	}
}

// rotateAckers rotates every shard's acker once. Each rotation answers a
// spout with at most one frame of expirations.
func (s *StreamManager) rotateAckers() {
	for _, sh := range s.shards {
		sh.ack.Rotate()
		sh.flushDone()
	}
}

// Stop tears the Stream Manager down.
func (s *StreamManager) Stop() {
	s.stopOnce.Do(func() {
		close(s.stopCh)
		if s.cancelWatch != nil {
			s.cancelWatch()
		}
		if s.listener != nil {
			s.listener.Close()
		}
		s.tmasterMu.Lock()
		if s.tmaster != nil {
			s.tmaster.Close()
		}
		s.tmasterMu.Unlock()
		s.mu.Lock()
		insts := s.instances
		instConns := s.instConns
		peers := s.peers
		peerConns := s.peerConns
		peerShardOuts := s.peerShardOut
		s.instances = map[int32]*outbox{}
		s.instConns = map[int32]network.Conn{}
		s.peers = map[int32]*outbox{}
		s.peerConns = map[int32]network.Conn{}
		s.peerShardOut = map[int32][]*outbox{}
		for _, parked := range s.peerPending {
			for _, pf := range parked {
				wire.PutBuffer(pf.buf)
			}
		}
		s.peerPending = map[int32][]parkedFrame{}
		s.publishRoutesLocked()
		s.mu.Unlock()
		// Order matters: close connections first (stops the dispatch
		// producers), then the shard rings (workers drain leftovers and
		// exit), then the outboxes, then wait for every goroutine.
		for _, c := range instConns {
			c.Close()
		}
		for _, c := range peerConns {
			c.Close()
		}
		for _, sh := range s.shards {
			sh.inbox.Close()
		}
		s.planOnce.Do(func() { close(s.planReady) })
		for _, o := range insts {
			o.close()
		}
		for _, o := range peers {
			o.close()
		}
		for _, outs := range peerShardOuts {
			for _, o := range outs {
				o.close()
			}
		}
		s.wg.Wait()
	})
}

// Plan returns the installed physical plan (nil before the first
// broadcast); used by tests and the harness.
func (s *StreamManager) Plan() *core.PhysicalPlan {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.plan
}

// String implements fmt.Stringer.
func (s *StreamManager) String() string {
	return fmt.Sprintf("stmgr[%s/%d]", s.opts.Topology, s.opts.Container)
}
