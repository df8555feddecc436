// Package instance implements the Heron Instance: the process that runs
// exactly one spout or bolt task (the paper's Section II — "every spout
// and bolt run as separate Heron Instances", giving per-task resource and
// failure isolation).
//
// An instance connects to its container's Stream Manager, registers its
// task id, receives the physical plan, and then runs a single-threaded
// executor loop: spouts pull from user code and emit; bolts execute
// incoming tuples. All routing decisions (grouping, destination task) are
// made here, while the tuple values are still in memory — the Stream
// Manager only ever reads the destination header.
package instance

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"heron/api"
	"heron/internal/checkpoint"
	"heron/internal/core"
	"heron/internal/ctrl"
	"heron/internal/encoding/wire"
	"heron/internal/metrics"
	"heron/internal/network"
	"heron/internal/tuple"
)

// Options configure one instance.
type Options struct {
	Topology string
	ID       core.InstanceID
	Kind     core.ComponentKind
	Spout    api.Spout // when Kind == KindSpout
	Bolt     api.Bolt  // when Kind == KindBolt
	Cfg      *core.Config
	// StmgrAddr is the local Stream Manager's data address.
	StmgrAddr string
	Registry  *metrics.Registry
	// Checkpoint, when non-nil, enables the aligned-marker checkpoint
	// protocol: the instance snapshots StatefulComponents through this
	// backend and participates in barrier alignment.
	Checkpoint checkpoint.Backend
	// RestoreCheckpoint, when > 0, is the committed checkpoint id to
	// restore from before processing any input (container relaunch).
	RestoreCheckpoint int64
}

// inFrame is one frame queued for the executor. The executor owns buf and
// recycles it with wire.PutBuffer once it has processed the frame (or, for
// a frame holding post-barrier tuples, once the barrier releases them).
type inFrame struct {
	kind network.MsgKind
	buf  *wire.Buffer
}

// Instance is one running spout or bolt task.
type Instance struct {
	opts  Options
	conn  network.Conn
	codec tuple.Codec

	plan      atomic.Pointer[planState]
	planReady chan struct{}
	readyOnce sync.Once

	inbox chan inFrame
	// wake nudges a gated executor when state it is waiting on (a
	// backpressure release, a new plan) changes outside the inbox.
	wake chan struct{}
	stop chan struct{}
	once sync.Once
	wg   sync.WaitGroup

	// pauses tracks which containers currently assert backpressure.
	pauseMu sync.Mutex
	pauses  map[int32]bool
	paused  atomic.Bool

	// maxPending is the live max-spout-pending window; OpTune updates it
	// at runtime (0 = unbounded).
	maxPending atomic.Int64

	rng *rand.Rand

	// Spout state (executor goroutine only): the pending table, indexed
	// by the slot in each root id, and its free slots (spout.go).
	inflight int
	pending  []pendingEmit
	free     []uint32

	// Checkpoint state (executor goroutine only). lastCkptID is the
	// newest checkpoint this instance completed (or restored from); older
	// markers are stale. bar is the bolt's in-progress barrier, nil
	// outside alignment.
	lastCkptID int64
	bar        *barrier
	markerBuf  []byte
	// snapKeys is the key count of the last snapshot; the next one
	// presizes its map to it.
	snapKeys int
	// lastCommitID is the newest globally committed epoch this instance
	// has applied to its transactional source/sink; commit notifications
	// are an idempotent high-water mark, so older ones are ignored.
	lastCommitID int64

	// Reusable scratch buffers (executor goroutine only; Send copies).
	frameBuf []byte
	ackBuf   []byte
	encBuf2  []byte

	// Output batching (executor goroutine only): emitted tuples and acks
	// accumulate directly in pooled frame buffers (header space reserved up
	// front) and leave in one frame per flush — the gateway-side batching
	// of Heron's instances. Ownership of the buffers transfers to the
	// connection on flush (SendOwned), so a flush is copy-free. Disabled
	// with the naive codec so the unoptimized arm stays per-tuple end to
	// end.
	batchOut    bool
	outBatchMax int
	outData     *wire.Buffer // nil between batches
	outCount    int
	outAcks     *wire.Buffer // nil between batches
	outAckCnt   int

	// Metrics (engine taxonomy, tagged with component + task).
	mEmitted  *metrics.Counter
	mExecuted *metrics.Counter
	mAcked    *metrics.Counter
	mFailed   *metrics.Counter
	mLatency  *metrics.Histogram // spout: emit → tree completion, sampled
	mExecLat  *metrics.Histogram // bolt: time inside Execute, sampled
	mPending  *metrics.Gauge     // spout: un-acked tuples in flight
	latSeq    uint64             // executor goroutine only; drives latency sampling
	mCkptDur  *metrics.Histogram // ns per snapshot (checkpointing only)
	mCkptSize *metrics.Histogram // encoded snapshot bytes
	mRestores *metrics.Counter   // restores performed after recovery
}

// latencySampleEvery is the sampling interval of both latency
// histograms: one in this many bolt executions, and one in this many
// reliable spout emits, is clocked. Must be a power of two.
const latencySampleEvery = 8

// New creates an instance, connects it to the Stream Manager and starts
// its executor.
func New(opts Options) (*Instance, error) {
	if opts.Cfg == nil {
		return nil, errors.New("instance: nil config")
	}
	switch opts.Kind {
	case core.KindSpout:
		if opts.Spout == nil {
			return nil, errors.New("instance: spout kind without spout")
		}
	case core.KindBolt:
		if opts.Bolt == nil {
			return nil, errors.New("instance: bolt kind without bolt")
		}
	default:
		return nil, fmt.Errorf("instance: bad kind %v", opts.Kind)
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
	conn, err := tr.Dial(opts.StmgrAddr)
	if err != nil {
		return nil, fmt.Errorf("instance %v: dialing stmgr: %w", opts.ID, err)
	}
	tags := metrics.Tags{Component: opts.ID.Component, Task: opts.ID.TaskID}
	inst := &Instance{
		opts:      opts,
		conn:      conn,
		codec:     codec,
		planReady: make(chan struct{}),
		inbox:     make(chan inFrame, 1024),
		wake:      make(chan struct{}, 1),
		stop:      make(chan struct{}),
		pauses:    map[int32]bool{},
		rng:       rand.New(rand.NewSource(int64(opts.ID.TaskID)*2654435761 + time.Now().UnixNano())),

		batchOut: opts.Cfg.StreamManagerOptimized && codec.Pooled(),

		mEmitted: opts.Registry.Counter(metrics.MEmitCount, tags),
		mAcked:   opts.Registry.Counter(metrics.MAckCount, tags),
		mFailed:  opts.Registry.Counter(metrics.MFailCount, tags),
	}
	switch opts.Kind {
	case core.KindSpout:
		inst.mLatency = opts.Registry.Histogram(metrics.MCompleteLatency, tags)
		inst.mPending = opts.Registry.Gauge(metrics.MSpoutPending, tags)
	case core.KindBolt:
		inst.mExecuted = opts.Registry.Counter(metrics.MExecuteCount, tags)
		inst.mExecLat = opts.Registry.Histogram(metrics.MExecuteLatency, tags)
	}
	if opts.Checkpoint != nil {
		inst.mCkptDur = opts.Registry.Histogram(metrics.MCheckpointDuration, tags)
		inst.mCkptSize = opts.Registry.Histogram(metrics.MCheckpointSize, tags)
		inst.mRestores = opts.Registry.Counter(metrics.MRestoreCount, tags)
	}
	conn.StartOwned(inst.onFrame)
	reg, err := ctrl.Encode(&ctrl.Message{Op: ctrl.OpRegisterInstance, Topology: opts.Topology, TaskID: opts.ID.TaskID})
	if err != nil {
		conn.Close()
		return nil, err
	}
	if err := conn.Send(network.MsgControl, reg); err != nil {
		conn.Close()
		return nil, fmt.Errorf("instance %v: registering: %w", opts.ID, err)
	}
	inst.outBatchMax = opts.Cfg.InstanceBatchTuples
	if inst.outBatchMax <= 0 {
		inst.outBatchMax = defaultOutBatchTuples
	}
	if inst.outBatchMax == 1 {
		inst.batchOut = false // per-tuple: the ablation baseline
	}
	inst.maxPending.Store(int64(opts.Cfg.MaxSpoutPending))
	inst.wg.Add(1)
	go inst.run()
	return inst, nil
}

// onFrame is the connection handler: control frames are applied
// immediately, data/ack frames are queued for the executor. Every frame
// arrives in a buffer this instance owns, so queueing it is copy-free.
func (in *Instance) onFrame(kind network.MsgKind, buf *wire.Buffer) {
	if kind == network.MsgControl {
		m, err := ctrl.Decode(buf.B) // copies everything it keeps
		wire.PutBuffer(buf)
		if err != nil {
			return
		}
		switch m.Op {
		case ctrl.OpPlan:
			in.applyPlan(m.Plan)
		case ctrl.OpBackpressure:
			in.setPause(m.Container, m.On)
		case ctrl.OpTune:
			if m.MaxSpoutPending >= 0 {
				in.maxPending.Store(int64(m.MaxSpoutPending))
				in.nudge()
			}
		}
		return
	}
	select {
	case in.inbox <- inFrame{kind, buf}:
	case <-in.stop:
		wire.PutBuffer(buf)
	}
}

func (in *Instance) applyPlan(p *ctrl.PlanPayload) {
	if p == nil {
		return
	}
	ps, err := newPlanState(p, in.opts.ID.TaskID)
	if err != nil {
		return
	}
	old := in.plan.Load()
	if old != nil && old.epoch > ps.epoch {
		return
	}
	in.plan.Store(ps)
	in.readyOnce.Do(func() { close(in.planReady) })
}

func (in *Instance) setPause(origin int32, on bool) {
	in.pauseMu.Lock()
	if on {
		in.pauses[origin] = true
	} else {
		delete(in.pauses, origin)
	}
	in.paused.Store(len(in.pauses) > 0)
	in.pauseMu.Unlock()
	in.nudge()
}

// nudge wakes a gated executor without blocking.
func (in *Instance) nudge() {
	select {
	case in.wake <- struct{}{}:
	default:
	}
}

// run dispatches to the executor for this instance's kind.
func (in *Instance) run() {
	defer in.wg.Done()
	select {
	case <-in.planReady:
	case <-in.stop:
		return
	}
	switch in.opts.Kind {
	case core.KindSpout:
		in.runSpout()
	case core.KindBolt:
		in.runBolt()
	}
}

// Stop halts the executor and closes the connection.
func (in *Instance) Stop() {
	in.once.Do(func() {
		close(in.stop)
		in.conn.Close()
	})
	in.wg.Wait()
}

// TaskID returns this instance's task id.
func (in *Instance) TaskID() int32 { return in.opts.ID.TaskID }

// context implements api.TopologyContext against the current plan.
type context struct {
	in *Instance
}

// TopologyName implements api.TopologyContext.
func (c context) TopologyName() string { return c.in.opts.Topology }

// ComponentName implements api.TopologyContext.
func (c context) ComponentName() string { return c.in.opts.ID.Component }

// ComponentIndex implements api.TopologyContext.
func (c context) ComponentIndex() int32 { return c.in.opts.ID.ComponentIndex }

// TaskID implements api.TopologyContext.
func (c context) TaskID() int32 { return c.in.opts.ID.TaskID }

// ComponentParallelism implements api.TopologyContext.
func (c context) ComponentParallelism(component string) int {
	ps := c.in.plan.Load()
	if ps == nil {
		return 0
	}
	return len(ps.pp.ComponentTasks(component))
}

// Metrics implements api.TopologyContext: user metrics land in the same
// container registry as the engine's own, tagged with this instance's
// component and task and namespaced under the user prefix — so they ride
// the Metrics Manager → Topology Master pipeline unchanged.
func (c context) Metrics() api.ComponentMetrics {
	return userMetrics{
		reg:  c.in.opts.Registry,
		tags: metrics.Tags{Component: c.in.opts.ID.Component, Task: c.in.opts.ID.TaskID},
	}
}

// userMetrics implements api.ComponentMetrics over a registry.
type userMetrics struct {
	reg  *metrics.Registry
	tags metrics.Tags
}

// Counter implements api.ComponentMetrics.
func (u userMetrics) Counter(name string) api.MetricCounter {
	return u.reg.Counter(metrics.UserPrefix+name, u.tags)
}

// Gauge implements api.ComponentMetrics.
func (u userMetrics) Gauge(name string) api.MetricGauge {
	return u.reg.Gauge(metrics.UserPrefix+name, u.tags)
}

// Histogram implements api.ComponentMetrics.
func (u userMetrics) Histogram(name string) api.MetricHistogram {
	return u.reg.Histogram(metrics.UserPrefix+name, u.tags)
}

// defaultOutBatchTuples flushes the instance's output buffer once this
// many tuples have accumulated.
const defaultOutBatchTuples = 64

// sendData emits one encoded tuple toward the Stream Manager. With
// batching on, tuples accumulate into a mixed-destination frame flushed
// by flushOut; otherwise each tuple leaves as its own frame.
func (in *Instance) sendData(dest int32, encoded []byte) {
	if in.batchOut {
		if in.outData == nil {
			in.outData = wire.GetBuffer()
			in.outData.B = tuple.BeginFrame(in.outData.B)
		}
		in.outData.B = tuple.AppendFrameEntry(in.outData.B, encoded)
		in.outCount++
		if in.outCount >= in.outBatchMax {
			in.flushOut()
		}
		return
	}
	in.frameBuf = tuple.AppendFrameHeader(in.frameBuf[:0], dest, 1)
	in.frameBuf = tuple.AppendFrameEntry(in.frameBuf, encoded)
	_ = in.conn.Send(network.MsgData, in.frameBuf)
}

// sendAck emits one control tuple toward the Stream Manager, batched the
// same way as data.
func (in *Instance) sendAck(a *tuple.AckTuple) {
	in.encBuf2 = tuple.EncodeAck(in.encBuf2[:0], a)
	if in.batchOut {
		if in.outAcks == nil {
			in.outAcks = wire.GetBuffer()
			in.outAcks.B = tuple.BeginAckFrame(in.outAcks.B)
		}
		in.outAcks.B = tuple.AppendFrameEntry(in.outAcks.B, in.encBuf2)
		in.outAckCnt++
		if in.outAckCnt >= in.outBatchMax {
			in.flushOut()
		}
		return
	}
	in.ackBuf = tuple.AppendAckFrameHeader(in.ackBuf[:0], 1)
	in.ackBuf = tuple.AppendFrameEntry(in.ackBuf, in.encBuf2)
	_ = in.conn.Send(network.MsgAck, in.ackBuf)
}

// flushOut sends everything buffered since the last flush: at most one
// mixed-destination data frame and one ack frame. The frames were built
// in place inside pooled buffers, so flushing is patch-header + hand the
// buffer to the connection (SendOwned) + one Flush — no copy.
func (in *Instance) flushOut() {
	flushed := false
	if in.outCount > 0 {
		tuple.PatchFrameHeader(in.outData.B, tuple.MixedFrameDest, in.outCount)
		buf := in.outData
		in.outData, in.outCount = nil, 0
		_ = in.conn.SendOwned(network.MsgData, buf)
		flushed = true
	}
	if in.outAckCnt > 0 {
		tuple.PatchAckFrameHeader(in.outAcks.B, in.outAckCnt)
		buf := in.outAcks
		in.outAcks, in.outAckCnt = nil, 0
		_ = in.conn.SendOwned(network.MsgAck, buf)
		flushed = true
	}
	if flushed {
		_ = in.conn.Flush()
	}
}

// MakeRoot and RootSpout re-export the core helpers used throughout this
// package.
func MakeRoot(spoutTask int32, low uint64) uint64 { return core.MakeRoot(spoutTask, low) }

// RootSpout recovers the spout task id from a root id.
func RootSpout(root uint64) int32 { return core.RootSpout(root) }
