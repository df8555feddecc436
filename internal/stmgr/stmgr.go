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
// There is one data path (worker.go): a receive handler moves each
// frame, with its buffer, into the inbox channel, and one worker routes
// it, optimized or not. The path is lock-free with respect to the Stream
// Manager's own state: routing decisions read an immutable routeTable
// snapshot through one atomic pointer load, and control-plane changes
// (plan broadcasts, registrations, peer dials) rebuild and swap the
// snapshot under s.mu. Tuple payloads cross the router with at most
// one copy: they are appended once into a pooled batch frame whose
// ownership then flows cache → outbox → Conn.SendOwned → pool.
//
// The Stream Manager also hosts the acker state for local spouts and
// implements spout-based backpressure: when a local delivery queue grows
// past the high-water mark, local spouts are paused and peers are told to
// pause theirs. It remembers which containers assert, so a spout that
// registers and a peer that attaches later hear what is in force, and it
// releases a peer's assertion when it closes that peer's connection.
package stmgr

import (
	"errors"
	"fmt"
	"log"
	"maps"
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
// and never takes s.mu; mutators rebuild the table under s.mu and swap
// it in (copy-on-write). Each peer Stream Manager has two outboxes on its
// one connection: peers carries control (backpressure, acks) and
// peerData carries tuples and markers.
type routeTable struct {
	plan      *core.PhysicalPlan
	instances map[int32]*outbox // local task id → delivery queue
	peers     map[int32]*outbox // container id → peer control outbox
	peerData  map[int32]*outbox // container id → peer data outbox
}

// StreamManager routes every tuple of one container.
type StreamManager struct {
	opts      Options
	transport network.Transport
	optimized bool

	listener network.Listener

	// routes is the data path's view of the world; see routeTable.
	routes atomic.Pointer[routeTable]

	// mu guards the control-plane master copies below. The worker
	// (processData, flushBatch, routeAck) never takes it outside the two
	// park slow paths.
	mu        sync.Mutex
	plan      *core.PhysicalPlan
	epoch     int64             // epoch of the applied plan
	instances map[int32]*outbox // local task id → delivery queue
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
	peerPending map[int32][]*wire.Buffer
	peers       map[int32]*outbox // control outbox per peer container
	peerData    map[int32]*outbox // data outbox per peer container
	peerAddrs   map[int32]string

	// inbox is the queue receive handlers feed (dispatch); the worker
	// (worker.go) is its only receiver and the only user of cache, ack,
	// done and acks.
	inbox chan inFrame
	// dispatched counts frames into the inbox, to stamp one in
	// routeSampleEvery.
	dispatched atomic.Uint64
	cache      *tupleCache
	// planReady holds the worker until the first plan is published (or
	// Stop); see run.
	planReady chan struct{}
	planOnce  sync.Once

	ack  *acker.Acker
	done *ackBatcher // finished trees, batched per local spout task
	acks *ackBatcher // remote acks, batched per peer container

	// bpActive is this container's own backpressure assertion. It is read
	// on every outbox depth observation (the data path), so it is an
	// atomic; its rare transitions happen under spoutMu.
	bpActive atomic.Bool

	// spoutMu serializes what local spouts hear besides their plan: the
	// backpressure transitions of this container, the assertions and
	// releases of its peers, and the TMaster's OpTune, with their replay
	// to a spout that registers later, so a spout's last word on each is
	// the current one. It guards the three fields below. Every frame sent
	// under it goes out through outbox.control, which does not call back
	// into observeDepth.
	spoutMu sync.Mutex
	bpSince time.Time // when this container's assertion began
	// asserting holds the containers, this one included, whose
	// backpressure assertion is in force.
	asserting map[int32]bool
	// tune is the TMaster's last OpTune, encoded (nil until the first).
	tune []byte

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

// newCore builds a Stream Manager with its routing state, metrics, inbox,
// cache and acker wired, but no listener, no worker and no control loops
// — the shared substrate of New and the in-package test/bench
// constructors, so the two can never drift.
func newCore(opts Options) (*StreamManager, error) {
	if opts.Cfg == nil {
		return nil, errors.New("stmgr: missing config")
	}
	tr, err := network.ByName(opts.Cfg.Transport)
	if err != nil {
		return nil, err
	}
	if opts.Registry == nil {
		opts.Registry = metrics.NewRegistry()
	}
	s := &StreamManager{
		opts:        opts,
		transport:   tr,
		optimized:   opts.Cfg.StreamManagerOptimized,
		instances:   map[int32]*outbox{},
		pending:     map[int32][]*wire.Buffer{},
		peerPending: map[int32][]*wire.Buffer{},
		peers:       map[int32]*outbox{},
		peerData:    map[int32]*outbox{},
		peerAddrs:   map[int32]string{},
		asserting:   map[int32]bool{},
		inbox:       make(chan inFrame, inboxFrames),
		planReady:   make(chan struct{}),
		stopCh:      make(chan struct{}),
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
	s.cache = newTupleCache(opts.Cfg, s.flushBatch)
	s.ack = acker.New(acker.DefaultBuckets, s.onTreeDone)
	s.done = newAckBatcher(s.instanceOutboxes, nil)
	s.acks = newAckBatcher(s.peerOutboxes, s.mAcksDropped)
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

	s.startWorker()
	s.wg.Add(1)
	go s.acceptLoop()
	if err := s.watchTMaster(); err != nil {
		s.Stop()
		return nil, err
	}
	return s, nil
}

// publishRoutesLocked rebuilds the immutable routing snapshot from the
// master copies; the caller holds s.mu. Every mutation of plan,
// instances, or peers must republish before releasing the lock. The first
// publication that carries a plan releases the worker.
func (s *StreamManager) publishRoutesLocked() {
	s.routes.Store(&routeTable{
		plan:      s.plan,
		instances: maps.Clone(s.instances),
		peers:     maps.Clone(s.peers),
		peerData:  maps.Clone(s.peerData),
	})
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
			s.relayTune(m)
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
// reconciled against the new stream-manager directory, the plan is
// queued to every registered local instance, and the routing snapshot is
// republished. The plan is queued first, so no data or marker the worker
// routes under the new snapshot reaches an instance ahead of it.
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
	var closed []int32
	for c, addr := range p.Stmgrs {
		if c == s.opts.Container {
			continue
		}
		if s.peerAddrs[c] != addr {
			if s.peers[c] != nil {
				s.closePeerLocked(c)
				closed = append(closed, c)
			}
			dials = append(dials, dial{c, addr})
		}
	}
	for c := range s.peers {
		if _, ok := p.Stmgrs[c]; !ok {
			s.closePeerLocked(c)
			delete(s.peerAddrs, c)
			closed = append(closed, c)
		}
	}
	// Frames parked for a container the new plan no longer has were bound
	// for tasks that were scaled away; recycle them.
	for c, parked := range s.peerPending {
		if len(pp.ContainerTasks(c)) == 0 {
			for _, buf := range parked {
				wire.PutBuffer(buf)
			}
			delete(s.peerPending, c)
		}
	}
	for _, o := range s.instances {
		o.control(raw)
	}
	s.publishRoutesLocked()
	s.mu.Unlock()

	// A closed peer's assertion dies with its connection: the Stream
	// Manager that replaces it starts unasserted and would never release
	// it.
	s.spoutMu.Lock()
	for _, c := range closed {
		if s.asserting[c] {
			s.pauseLocked(false, c)
		}
	}
	s.spoutMu.Unlock()

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
}

// attachPeer installs an established peer connection as container's
// control and data outboxes, both over the same connection. Frames parked
// while the container had no connection are replayed into the data outbox
// before the routing snapshot lets new traffic reach it directly: the
// parked queue and the outbox are FIFO, so tuple order per destination is
// preserved. If this container asserts backpressure, the peer is told
// once the routing snapshot holds it, so a release cannot slip past it.
func (s *StreamManager) attachPeer(container int32, addr string, conn network.Conn) {
	s.mu.Lock()
	ctl := newOutbox(conn, nil, s.onBytesSent)
	data := newOutbox(conn, nil, s.onBytesSent)
	s.peers[container] = ctl
	s.peerData[container] = data
	s.peerAddrs[container] = addr
	for _, buf := range s.peerPending[container] {
		data.enqueueOwned(network.MsgData, buf)
	}
	delete(s.peerPending, container)
	s.publishRoutesLocked()
	s.mu.Unlock()

	s.spoutMu.Lock()
	if s.asserting[s.opts.Container] {
		ctl.control(s.pauseMsg(true, s.opts.Container))
	}
	s.spoutMu.Unlock()
}

// closePeerLocked closes container's outboxes and their shared
// connection and forgets them; the caller holds s.mu.
func (s *StreamManager) closePeerLocked(container int32) {
	s.peers[container].close()
	s.peerData[container].close()
	s.peers[container].conn.Close()
	delete(s.peers, container)
	delete(s.peerData, container)
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
// router — no copy between the receive buffer and the inbox.
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
		// A peer asserts or releases: pause/resume our local spouts.
		s.spoutMu.Lock()
		s.pauseLocked(m.On, m.Container)
		s.spoutMu.Unlock()
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
// takes the same route its data takes: through the inbox
// (processCommitted flushes the cache for the destination first).
// Committed frames are local-only — every container's Stream Manager
// hears the broadcast itself, so nothing is forwarded to peers. Before
// the first plan it does nothing, which is what lets the worker wait for
// that plan without a cycle (see run).
func (s *StreamManager) notifyCommitted(id int64) {
	rt := s.routes.Load()
	if rt == nil || rt.plan == nil {
		return
	}
	for task := range rt.instances {
		buf := wire.GetBuffer()
		buf.B = tuple.AppendMarker(buf.B, id, -1, task)
		s.dispatch(network.MsgCommitted, buf)
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

// relayTune forwards the TMaster's OpTune to every registered local spout
// and keeps it for the spouts that register later.
func (s *StreamManager) relayTune(m *ctrl.Message) {
	raw, err := ctrl.Encode(m)
	if err != nil {
		return
	}
	s.spoutMu.Lock()
	defer s.spoutMu.Unlock()
	s.tune = raw
	for _, o := range s.spoutOutboxes() {
		o.control(raw)
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

// registerInstance binds a local task to its connection, hands the
// instance the current plan, and republishes the routing snapshot; a
// spout then hears the last tune and every assertion in force.
func (s *StreamManager) registerInstance(conn network.Conn, task int32) {
	onDepth := func(depth int) { s.observeDepth(depth) }
	o := newOutbox(conn, onDepth, s.onBytesSent)

	s.mu.Lock()
	if old := s.instances[task]; old != nil {
		old.close()
	}
	s.instances[task] = o
	parked := s.pending[task]
	delete(s.pending, task)
	spout := false
	if s.plan != nil {
		// The plan goes first: once the snapshot holds o, the worker may
		// route data and markers to it.
		if raw, err := ctrl.Encode(&ctrl.Message{Op: ctrl.OpPlan, Topology: s.opts.Topology, Plan: s.payloadLocked()}); err == nil {
			o.control(raw)
		}
		spout = int(task) < len(s.plan.Tasks) && s.plan.Tasks[task].Kind == core.KindSpout
	}
	s.publishRoutesLocked()
	s.mu.Unlock()
	if spout {
		// The routing snapshot already holds o, so a tune, assertion or
		// release relayed after this replay reaches o behind it.
		s.spoutMu.Lock()
		if s.tune != nil {
			o.control(s.tune)
		}
		for origin := range s.asserting {
			o.control(s.pauseMsg(true, origin))
		}
		s.spoutMu.Unlock()
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
	if depth > backpressureHWM && !s.bpActive.Load() {
		s.assertBackpressure()
	} else if depth <= backpressureLWM && s.bpActive.Load() {
		s.releaseBackpressure()
	}
}

// assertBackpressure starts this container's assertion unless another
// caller just did.
func (s *StreamManager) assertBackpressure() {
	s.spoutMu.Lock()
	defer s.spoutMu.Unlock()
	if s.bpActive.Load() {
		return
	}
	s.bpActive.Store(true)
	s.bpSince = time.Now()
	s.mBPTransit.Inc(1)
	// The asserted-time counter only accrues on release, so a sustained
	// assertion would otherwise be invisible between transitions; the
	// gauge lets observers (the health manager's backpressure sensor) see
	// an assertion in progress.
	s.mBPActive.Set(1)
	s.broadcastBackpressureLocked(true)
}

// releaseBackpressure ends this container's assertion once every local
// queue is below the low-water mark.
func (s *StreamManager) releaseBackpressure() {
	s.spoutMu.Lock()
	defer s.spoutMu.Unlock()
	if !s.bpActive.Load() {
		return
	}
	if rt := s.routes.Load(); rt != nil {
		for _, o := range rt.instances {
			if o.depth() > backpressureLWM {
				return
			}
		}
	}
	s.bpActive.Store(false)
	s.mBPTime.Inc(time.Since(s.bpSince).Nanoseconds())
	s.mBPTransit.Inc(1)
	s.mBPActive.Set(0)
	s.broadcastBackpressureLocked(false)
}

// broadcastBackpressureLocked pauses/resumes local spouts and tells every
// peer to do the same (Heron's spout-based backpressure); the caller
// holds spoutMu.
func (s *StreamManager) broadcastBackpressureLocked(on bool) {
	raw := s.pauseLocked(on, s.opts.Container)
	for _, p := range s.routes.Load().peers {
		p.control(raw)
	}
}

// pauseLocked records origin's assertion or release and forwards it to
// the registered local spouts, returning the encoded message; the caller
// holds spoutMu.
func (s *StreamManager) pauseLocked(on bool, origin int32) []byte {
	if on {
		s.asserting[origin] = true
	} else {
		delete(s.asserting, origin)
	}
	raw := s.pauseMsg(on, origin)
	for _, o := range s.spoutOutboxes() {
		o.control(raw)
	}
	return raw
}

// pauseMsg encodes origin's assertion (on) or release.
func (s *StreamManager) pauseMsg(on bool, origin int32) []byte {
	// A message of plain fields always marshals.
	raw, _ := ctrl.Encode(&ctrl.Message{
		Op: ctrl.OpBackpressure, Topology: s.opts.Topology,
		Container: origin, On: on,
	})
	return raw
}

// rotateAckers rotates the acker once; the worker calls it every
// messageTimeout / (acker.DefaultBuckets-1). Each rotation answers a
// spout with at most one frame of expirations.
func (s *StreamManager) rotateAckers() {
	s.ack.Rotate()
	s.done.flush()
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
		peers := s.peers
		peerData := s.peerData
		s.instances = map[int32]*outbox{}
		s.peers = map[int32]*outbox{}
		s.peerData = map[int32]*outbox{}
		for _, parked := range s.peerPending {
			for _, buf := range parked {
				wire.PutBuffer(buf)
			}
		}
		s.peerPending = map[int32][]*wire.Buffer{}
		s.publishRoutesLocked()
		s.mu.Unlock()
		// Order matters: close connections first (stops the dispatch
		// producers; stopCh already released the worker and any sender
		// blocked on a full inbox), then the outboxes, then wait for every
		// goroutine. A peer's control and data outboxes share one
		// connection.
		for _, o := range insts {
			o.conn.Close()
		}
		for _, o := range peers {
			o.conn.Close()
		}
		s.planOnce.Do(func() { close(s.planReady) })
		for _, o := range insts {
			o.close()
		}
		for _, o := range peers {
			o.close()
		}
		for _, o := range peerData {
			o.close()
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
