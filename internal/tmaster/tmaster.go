// Package tmaster implements the Topology Master: the per-topology
// process (container 0) that manages the topology throughout its
// existence. It advertises its location through the State Manager as an
// ephemeral record (so every Stream Manager immediately observes its
// death), tracks Stream Manager registrations, distributes the physical
// plan, and aggregates the snapshots pushed by the Metrics Managers.
package tmaster

import (
	"errors"
	"fmt"
	"log"
	"sync"
	"sync/atomic"
	"time"

	"heron/internal/checkpoint"
	"heron/internal/core"
	"heron/internal/ctrl"
	"heron/internal/metrics"
	"heron/internal/network"
	"heron/internal/replication"
	"heron/internal/statemgr"
)

// Options configure one Topology Master.
type Options struct {
	Topology string
	Cfg      *core.Config
	// State is the TMaster's own State Manager session; closing the
	// TMaster closes the session and thereby deletes the ephemeral
	// location record.
	State *statemgr.Manager
	// Lead is the generation this TMaster runs as: its fencing term, the
	// control log it appends through, and the view it recovers from (see
	// leadership.go). Required.
	Lead *Leadership
}

// TMaster is the topology controller.
type TMaster struct {
	opts     Options
	listener network.Listener

	mu      sync.Mutex
	stmgrs  map[int32]*stmgrEntry
	metrics map[int32]*metrics.Snapshot // latest snapshot per container
	ready   chan struct{}
	readyOK sync.Once

	// conns (under mu) holds every accepted connection — Stream Manager
	// registrations and the containers' metrics sinks alike — so Stop can
	// close them all and end their readers.
	conns []network.Conn

	// Checkpoint coordination (nil/zero when CheckpointInterval == 0).
	ckpt          *checkpoint.Coordinator
	ckptBackend   checkpoint.Backend
	ckptSuspended atomic.Bool
	commitWaiters []chan int64 // notified (non-blocking) on every commit

	// tuneMu orders the OpTune sends, Tune's and the re-send after every
	// complete plan broadcast, so the last window a Stream Manager hears
	// is the last one logged. tune is that window, -1 when the log
	// recorded none; it is stored under tuneMu and loaded without it.
	tuneMu sync.Mutex
	tune   atomic.Int64

	// Leadership (leadership.go): a fenced log append proves a newer
	// generation exists and deposes this one.
	deposed    atomic.Bool
	deposeOnce sync.Once
	crashed    atomic.Bool

	stopCh   chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

type stmgrEntry struct {
	addr string
	conn network.Conn
}

// New starts a Topology Master: it listens for Stream Manager
// registrations and advertises its location.
func New(opts Options) (*TMaster, error) {
	if opts.Cfg == nil || opts.State == nil || opts.Lead == nil || opts.Lead.Log == nil {
		return nil, errors.New("tmaster: missing config, state manager or leadership")
	}
	tr, err := network.ByName(opts.Cfg.Transport)
	if err != nil {
		return nil, err
	}
	l, err := tr.Listen("")
	if err != nil {
		return nil, err
	}
	tm := &TMaster{
		opts:     opts,
		listener: l,
		stmgrs:   map[int32]*stmgrEntry{},
		metrics:  map[int32]*metrics.Snapshot{},
		ready:    make(chan struct{}),
		stopCh:   make(chan struct{}),
	}
	tm.tune.Store(-1)
	if v := opts.Lead.Recovered; v != nil && v.Tunes > 0 {
		tm.tune.Store(v.MaxSpoutPending)
	}
	if opts.Cfg.CheckpointInterval > 0 {
		backend, err := checkpoint.New(opts.Cfg.StateBackend)
		if err != nil {
			l.Close()
			return nil, err
		}
		if err := backend.Initialize(opts.Cfg); err != nil {
			l.Close()
			return nil, err
		}
		tm.ckptBackend = backend
		tm.ckpt = checkpoint.NewCoordinator(opts.Topology, backend)
		if err := tm.initCheckpoints(); err != nil {
			l.Close()
			backend.Close()
			return nil, err
		}
		tm.wg.Add(1)
		go tm.checkpointLoop()
	}
	tm.wg.Add(1)
	go tm.acceptLoop()
	loc := core.TMasterLocation{
		Topology:  opts.Topology,
		Transport: opts.Cfg.Transport,
		Addr:      l.Addr(),
		SessionID: opts.Lead.Term,
	}
	if err := opts.State.SetTMasterLocation(loc); err != nil {
		tm.Stop()
		return nil, err
	}
	return tm, nil
}

// Addr returns the control listener's address.
func (tm *TMaster) Addr() string { return tm.listener.Addr() }

func (tm *TMaster) acceptLoop() {
	defer tm.wg.Done()
	for {
		conn, err := tm.listener.Accept()
		if err != nil {
			return
		}
		c := conn
		tm.mu.Lock()
		select {
		case <-tm.stopCh: // Stop has already swept conns
			tm.mu.Unlock()
			c.Close()
			return
		default:
		}
		tm.conns = append(tm.conns, c)
		tm.mu.Unlock()
		c.Start(func(kind network.MsgKind, payload []byte) {
			if kind != network.MsgControl {
				return
			}
			m, err := ctrl.Decode(payload)
			if err != nil {
				return
			}
			switch m.Op {
			case ctrl.OpRegisterStmgr:
				tm.register(m.Container, m.DataAddr, c)
			case ctrl.OpRefresh:
				tm.Refresh()
			case ctrl.OpMetrics:
				if m.Metrics != nil {
					tm.mu.Lock()
					tm.metrics[m.Container] = m.Metrics
					tm.mu.Unlock()
				}
			case ctrl.OpCheckpointSaved:
				tm.checkpointSaved(m.TaskID, m.CheckpointID)
			}
		})
	}
}

// register records a Stream Manager and rebroadcasts the plan once every
// expected container is present (and on every re-registration, so
// restarted containers propagate their new addresses to all peers).
func (tm *TMaster) register(container int32, addr string, conn network.Conn) {
	tm.mu.Lock()
	if old := tm.stmgrs[container]; old != nil && old.conn != conn {
		old.conn.Close()
	}
	tm.stmgrs[container] = &stmgrEntry{addr: addr, conn: conn}
	tm.mu.Unlock()
	tm.broadcastIfComplete()
}

// Refresh re-reads the topology state and rebroadcasts (used after
// scaling updates).
func (tm *TMaster) Refresh() { tm.broadcastIfComplete() }

// broadcastIfComplete pushes the current plan to every registered Stream
// Manager when all containers of the packing plan have registered.
//
// The plan is logged before any Stream Manager sees it, and the record's
// Seq is the plan's epoch: a fenced-out leader's append fails before it
// can broadcast, and Seq rises across terms, so receivers order plans by
// epoch alone. The plan state is read after the append, so the broadcast
// with the highest epoch carries the newest state.
func (tm *TMaster) broadcastIfComplete() {
	if tm.isDeposed() {
		return
	}
	packing, err := tm.opts.State.GetPackingPlan(tm.opts.Topology)
	if err != nil || !tm.allRegistered(packing) {
		return
	}
	rec := &replication.Record{
		Kind: replication.KindPlan,
		Plan: &replication.PlanRecord{Containers: len(packing.Containers), Tasks: packing.NumInstances()},
	}
	if err := tm.AppendControl(rec); err != nil {
		return
	}
	topo, err := tm.opts.State.GetTopology(tm.opts.Topology)
	if err != nil {
		return
	}
	if packing, err = tm.opts.State.GetPackingPlan(tm.opts.Topology); err != nil {
		return
	}
	tm.mu.Lock()
	if !tm.allRegisteredLocked(packing) {
		tm.mu.Unlock()
		return // a container joined the plan since the check; its registration rebroadcasts
	}
	payload := &ctrl.PlanPayload{
		Epoch:    rec.Seq,
		Topology: topo,
		Packing:  packing,
		Stmgrs:   map[int32]string{},
	}
	// Only advertise containers in the current plan (stale registrations
	// from removed containers are dropped from the directory).
	valid := map[int32]bool{}
	for i := range packing.Containers {
		valid[packing.Containers[i].ID] = true
	}
	conns := make([]network.Conn, 0, len(tm.stmgrs))
	for c, e := range tm.stmgrs {
		if valid[c] {
			payload.Stmgrs[c] = e.addr
			conns = append(conns, e.conn)
		}
	}
	// Drop metric snapshots of containers no longer in the plan (scale
	// down), so the merged view never reports tasks that ceased to exist.
	for c := range tm.metrics {
		if !valid[c] {
			delete(tm.metrics, c)
		}
	}
	tm.mu.Unlock()

	raw, err := ctrl.Encode(&ctrl.Message{Op: ctrl.OpPlan, Topology: tm.opts.Topology, Plan: payload})
	if err != nil {
		return
	}
	for _, c := range conns {
		_ = c.Send(network.MsgControl, raw)
	}
	// Re-advertise the newest committed epoch with every complete plan
	// broadcast. Commit notifications are fire-and-forget; if the previous
	// TMaster died between backend.Commit and the broadcast (or a container
	// relaunched without a restore), transactional sinks would sit on a
	// prepared transaction for an epoch that already won. The notification
	// is an idempotent high-water mark, so repeating it is free.
	if tm.ckpt != nil {
		if latest, err := tm.ckpt.LatestCommitted(); err == nil && latest > 0 {
			tm.broadcastCtrl(&ctrl.Message{
				Op: ctrl.OpCheckpointCommitted, Topology: tm.opts.Topology, CheckpointID: latest,
			})
		}
	}
	// Re-send the tuned window too: a relaunched container's spouts would
	// otherwise start at Config.MaxSpoutPending.
	tm.tuneMu.Lock()
	if w := tm.tune.Load(); w >= 0 {
		tm.broadcastCtrl(&ctrl.Message{Op: ctrl.OpTune, Topology: tm.opts.Topology, MaxSpoutPending: int(w)})
	}
	tm.tuneMu.Unlock()
	tm.readyOK.Do(func() { close(tm.ready) })
}

// allRegistered reports whether every container of packing has a
// registered Stream Manager.
func (tm *TMaster) allRegistered(packing *core.PackingPlan) bool {
	tm.mu.Lock()
	defer tm.mu.Unlock()
	return tm.allRegisteredLocked(packing)
}

func (tm *TMaster) allRegisteredLocked(packing *core.PackingPlan) bool {
	for i := range packing.Containers {
		if _, ok := tm.stmgrs[packing.Containers[i].ID]; !ok {
			return false
		}
	}
	return true
}

// Ready is closed after the first complete plan broadcast: the topology
// is fully wired.
func (tm *TMaster) Ready() <-chan struct{} { return tm.ready }

// MetricsSnapshots returns the latest typed snapshot pushed by each
// container's Metrics Manager.
func (tm *TMaster) MetricsSnapshots() map[int32]*metrics.Snapshot {
	tm.mu.Lock()
	defer tm.mu.Unlock()
	out := make(map[int32]*metrics.Snapshot, len(tm.metrics))
	for c, m := range tm.metrics {
		out[c] = m
	}
	return out
}

// MetricsView merges the containers' latest snapshots into the
// topology-wide typed view with per-component quantile summaries — the
// aggregation behind heron.Handle.Metrics() and the HTTP endpoints.
func (tm *TMaster) MetricsView() *metrics.TopologyView {
	tm.mu.Lock()
	snaps := make([]*metrics.Snapshot, 0, len(tm.metrics))
	for _, m := range tm.metrics {
		snaps = append(snaps, m)
	}
	tm.mu.Unlock()
	return metrics.MergeSnapshots(snaps...)
}

// Tune logs a max-spout-pending window and broadcasts it to every
// registered stream manager, which relays it to its local spouts and
// replays it to any spout that registers later.
func (tm *TMaster) Tune(maxSpoutPending int) error {
	tm.tuneMu.Lock()
	defer tm.tuneMu.Unlock()
	if err := tm.AppendControl(&replication.Record{
		Kind: replication.KindTune, Value: int64(maxSpoutPending),
	}); err != nil {
		return err
	}
	tm.tune.Store(int64(maxSpoutPending))
	tm.broadcastCtrl(&ctrl.Message{
		Op: ctrl.OpTune, Topology: tm.opts.Topology, MaxSpoutPending: maxSpoutPending,
	})
	return nil
}

// MaxSpoutPending returns the window the control log last recorded, or
// Config.MaxSpoutPending when it recorded none.
func (tm *TMaster) MaxSpoutPending() int {
	if w := tm.tune.Load(); w >= 0 {
		return int(w)
	}
	return tm.opts.Cfg.MaxSpoutPending
}

// broadcastCtrl sends one control message to every registered stream
// manager.
func (tm *TMaster) broadcastCtrl(m *ctrl.Message) {
	raw, err := ctrl.Encode(m)
	if err != nil {
		return
	}
	tm.mu.Lock()
	conns := make([]network.Conn, 0, len(tm.stmgrs))
	for _, e := range tm.stmgrs {
		conns = append(conns, e.conn)
	}
	tm.mu.Unlock()
	for _, c := range conns {
		_ = c.Send(network.MsgControl, raw)
	}
}

// checkpointLoop drives the coordinator: once the topology is wired, it
// begins a checkpoint every CheckpointInterval by broadcasting a trigger.
// An incomplete checkpoint (e.g. a container died mid-barrier) is simply
// superseded by the next Begin — no timeout machinery.
func (tm *TMaster) checkpointLoop() {
	defer tm.wg.Done()
	select {
	case <-tm.ready:
	case <-tm.stopCh:
		return
	}
	t := time.NewTicker(tm.opts.Cfg.CheckpointInterval)
	defer t.Stop()
	for {
		select {
		case <-tm.stopCh:
			return
		case <-t.C:
			if !tm.ckptSuspended.Load() {
				tm.triggerCheckpoint()
			}
		}
	}
}

// triggerCheckpoint begins one checkpoint over every task of the current
// packing plan.
func (tm *TMaster) triggerCheckpoint() (int64, bool) {
	if tm.isDeposed() {
		return 0, false
	}
	packing, err := tm.opts.State.GetPackingPlan(tm.opts.Topology)
	if err != nil {
		return 0, false
	}
	var tasks []int32
	for i := range packing.Containers {
		for _, inst := range packing.Containers[i].Instances {
			tasks = append(tasks, inst.ID.TaskID)
		}
	}
	// Begin logs the epoch ahead of handing it out; a fenced append
	// deposes us and withholds the id, so the trigger never goes out.
	id, ok := tm.ckpt.Begin(tasks)
	if !ok {
		return 0, false
	}
	tm.broadcastCtrl(&ctrl.Message{
		Op: ctrl.OpCheckpointTrigger, Topology: tm.opts.Topology, CheckpointID: id,
	})
	return id, true
}

// SuspendCheckpoints pauses interval-triggered checkpoints. The rescale
// protocol owns the checkpoint sequence while it runs: an interval
// barrier racing the repartitioned snapshot could commit a checkpoint of
// the old task set after the new one, which relaunched containers would
// then restore. Explicit CheckpointNow triggers still work.
func (tm *TMaster) SuspendCheckpoints() { tm.ckptSuspended.Store(true) }

// ResumeCheckpoints re-enables interval-triggered checkpoints.
func (tm *TMaster) ResumeCheckpoints() { tm.ckptSuspended.Store(false) }

// CheckpointNow synchronously runs one full checkpoint: it triggers a
// barrier over the current plan and blocks until a checkpoint at least as
// new commits, returning the committed id. It works while interval
// checkpoints are suspended — that is exactly how the rescale protocol
// captures the topology's state before repartitioning it.
func (tm *TMaster) CheckpointNow(timeout time.Duration) (int64, error) {
	if tm.ckpt == nil {
		return 0, errors.New("tmaster: checkpointing disabled")
	}
	if tm.isDeposed() {
		return 0, tm.errNotLeader()
	}
	ch := make(chan int64, 4)
	tm.mu.Lock()
	tm.commitWaiters = append(tm.commitWaiters, ch)
	tm.mu.Unlock()
	defer tm.dropWaiter(ch)
	id, ok := tm.triggerCheckpoint()
	if !ok {
		return 0, errors.New("tmaster: cannot trigger checkpoint (no plan or no tasks)")
	}
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	for {
		select {
		case got := <-ch:
			if got >= id {
				return got, nil
			}
		case <-deadline.C:
			return 0, fmt.Errorf("tmaster: checkpoint %d did not commit within %v", id, timeout)
		case <-tm.stopCh:
			return 0, errors.New("tmaster: stopped")
		}
	}
}

func (tm *TMaster) dropWaiter(ch chan int64) {
	tm.mu.Lock()
	defer tm.mu.Unlock()
	for i, w := range tm.commitWaiters {
		if w == ch {
			tm.commitWaiters = append(tm.commitWaiters[:i], tm.commitWaiters[i+1:]...)
			return
		}
	}
}

// ReserveCheckpointID hands out the next checkpoint id for an externally
// built snapshot — the rescale protocol's repartitioned checkpoint.
func (tm *TMaster) ReserveCheckpointID() (int64, error) {
	if tm.ckpt == nil {
		return 0, errors.New("tmaster: checkpointing disabled")
	}
	if tm.isDeposed() {
		return 0, tm.errNotLeader()
	}
	// Reserve logs the id ahead of handing it out: a fenced append means a
	// new leader may hand the same id out for a different epoch.
	return tm.ckpt.Reserve()
}

// checkpointSaved records one task's snapshot ack; when the barrier set
// completes, the checkpoint commits and every container learns the new
// restorable epoch.
func (tm *TMaster) checkpointSaved(task int32, id int64) {
	if tm.ckpt == nil {
		return
	}
	complete, err := tm.ckpt.Saved(task, id)
	if err != nil {
		log.Printf("tmaster[%s]: commit checkpoint %d: %v", tm.opts.Topology, id, err)
		return
	}
	if complete {
		tm.broadcastCtrl(&ctrl.Message{
			Op: ctrl.OpCheckpointCommitted, Topology: tm.opts.Topology, CheckpointID: id,
		})
		tm.mu.Lock()
		waiters := append([]chan int64(nil), tm.commitWaiters...)
		tm.mu.Unlock()
		for _, w := range waiters {
			select {
			case w <- id:
			default:
			}
		}
	}
}

// Stmgrs returns the registered container → address directory.
func (tm *TMaster) Stmgrs() map[int32]string {
	tm.mu.Lock()
	defer tm.mu.Unlock()
	out := make(map[int32]string, len(tm.stmgrs))
	for c, e := range tm.stmgrs {
		out[c] = e.addr
	}
	return out
}

// Stop closes the listener, every accepted connection, and the State
// Manager session (deleting the ephemeral location record — the paper's
// TMaster-death signal).
func (tm *TMaster) Stop() {
	tm.stopOnce.Do(func() {
		close(tm.stopCh)
		tm.listener.Close()
		tm.mu.Lock()
		for _, c := range tm.conns {
			c.Close()
		}
		tm.conns = nil
		tm.stmgrs = map[int32]*stmgrEntry{}
		tm.mu.Unlock()
		tm.wg.Wait()
		if tm.ckptBackend != nil {
			_ = tm.ckptBackend.Close()
		}
		if tm.crashed.Load() {
			// Hard kill: leave the session hanging so ephemerals and the
			// leader lease lapse by TTL instead of vanishing instantly.
			tm.opts.State.Abandon()
			return
		}
		_ = tm.opts.State.Close()
	})
}
