package instance

import (
	"errors"
	"log"
	"time"

	"heron/api"
	"heron/internal/checkpoint"
	"heron/internal/core"
	"heron/internal/ctrl"
	"heron/internal/encoding/wire"
	"heron/internal/network"
	"heron/internal/tuple"
)

// This file is the instance side of the aligned-marker checkpoint
// protocol. A spout snapshots on first sight of a trigger marker from its
// Stream Manager; a bolt aligns a barrier across every upstream task,
// executing pre-barrier tuples and holding post-barrier ones until the
// last marker arrives, then snapshots and releases the held tuples. Both
// then forward markers downstream and ack the coordinator. Everything
// here runs on the executor goroutine.

// barrier tracks one in-progress alignment on a bolt.
type barrier struct {
	id      int64
	waiting map[int32]bool // upstream tasks whose marker has not arrived
	// held are raw encoded tuples that arrived on already-marked channels.
	// They alias the inbox frames they arrived in, so no copy is needed:
	// each frame that contributed a held tuple stays in frames, out of the
	// pool, and releaseHeld recycles it after its tuples have executed.
	held   [][]byte
	frames []*wire.Buffer
}

// component returns the user component (spout or bolt) for optional-
// interface probing.
func (in *Instance) component() any {
	switch in.opts.Kind {
	case core.KindSpout:
		return in.opts.Spout
	case core.KindBolt:
		return in.opts.Bolt
	}
	return nil
}

// statefulComponent returns the user component's StatefulComponent
// extension, or nil.
func (in *Instance) statefulComponent() api.StatefulComponent {
	sc, _ := in.component().(api.StatefulComponent)
	return sc
}

// maybeRestore rebuilds the component's state from the restore checkpoint
// chosen at container launch. Called after Open/Prepare, before any input
// is processed. Transactional sinks run their recovery pass even when
// nothing was ever committed (restore 0): transactions prepared before
// the failure must be aborted, or their records would double-commit when
// a later epoch lands.
func (in *Instance) maybeRestore() {
	if in.opts.Checkpoint == nil {
		return
	}
	restore := in.opts.RestoreCheckpoint
	if restore > 0 {
		// Stale markers from checkpoints attempted before the failure may
		// still be in flight; ignore everything up to the restore point even
		// for stateless components.
		in.lastCkptID = restore
		in.restoreState(restore)
	}
	// Commit notifications for epochs ≤ restore are already resolved by
	// RecoverEpochs below; treat them as applied.
	in.lastCommitID = restore
	if ts, ok := in.component().(api.TransactionalSink); ok {
		if err := ts.RecoverEpochs(restore); err != nil {
			log.Printf("instance %v: recover transactional sink at epoch %d: %v",
				in.opts.ID, restore, err)
		}
	}
}

// restoreState loads and applies the component's snapshot for checkpoint
// restore.
func (in *Instance) restoreState(restore int64) {
	sc := in.statefulComponent()
	if sc == nil {
		return
	}
	data, err := in.opts.Checkpoint.Load(in.opts.Topology, restore, in.opts.ID.TaskID)
	if err != nil {
		if !errors.Is(err, core.ErrNotFound) {
			log.Printf("instance %v: load checkpoint %d: %v", in.opts.ID, restore, err)
		}
		return
	}
	st, err := checkpoint.DecodeState(data)
	if err != nil {
		log.Printf("instance %v: decode checkpoint %d: %v", in.opts.ID, restore, err)
		return
	}
	if err := sc.RestoreState(st); err != nil {
		log.Printf("instance %v: restore state: %v", in.opts.ID, err)
		return
	}
	in.mRestores.Inc(1)
}

// checkpointSave runs the snapshot phase for one checkpoint: stage the
// transactional prepare (source offsets, sink pending transaction), then
// capture and persist the component's state. Stateless components skip
// the snapshot but still ack (the coordinator waits on every task). The
// return value gates the ack: a failed prepare or persist must abandon
// the epoch — acking it would let the coordinator globally commit a
// checkpoint this task did not durably join.
func (in *Instance) checkpointSave(id int64) bool {
	if in.opts.Checkpoint == nil {
		return false
	}
	if ts, ok := in.component().(api.TransactionalSource); ok {
		if err := ts.PrepareOffsets(id); err != nil {
			log.Printf("instance %v: prepare offsets for epoch %d: %v", in.opts.ID, id, err)
			return false
		}
	}
	if ts, ok := in.component().(api.TransactionalSink); ok {
		if err := ts.PrepareEpoch(id); err != nil {
			log.Printf("instance %v: prepare epoch %d: %v", in.opts.ID, id, err)
			return false
		}
	}
	sc := in.statefulComponent()
	if sc == nil {
		return true
	}
	start := time.Now()
	st := checkpoint.NewMapStateSize(in.snapKeys)
	if err := sc.SaveState(st); err != nil {
		log.Printf("instance %v: save state: %v", in.opts.ID, err)
		return false
	}
	in.snapKeys = st.Len()
	data := checkpoint.EncodeState(st)
	if err := in.opts.Checkpoint.Save(in.opts.Topology, id, in.opts.ID.TaskID, data); err != nil {
		log.Printf("instance %v: persist checkpoint %d: %v", in.opts.ID, id, err)
		return false
	}
	in.mCkptDur.Observe(time.Since(start).Nanoseconds())
	in.mCkptSize.Observe(int64(len(data)))
	return true
}

// epochCommitted applies one global-commit notification (a MsgCommitted
// frame) to the transactional source/sink: the coordinator has durably
// committed checkpoint id, so externally staged effects up to that epoch
// become visible. Notifications are a monotone high-water mark — stale
// and duplicate ones are ignored.
func (in *Instance) epochCommitted(id int64) {
	if in.opts.Checkpoint == nil || id <= in.lastCommitID {
		return
	}
	in.lastCommitID = id
	if ts, ok := in.component().(api.TransactionalSource); ok {
		if err := ts.EpochCommitted(id); err != nil {
			log.Printf("instance %v: commit source offsets for epoch %d: %v", in.opts.ID, id, err)
		}
	}
	if ts, ok := in.component().(api.TransactionalSink); ok {
		if err := ts.CommitEpoch(id); err != nil {
			log.Printf("instance %v: commit epoch %d: %v", in.opts.ID, id, err)
		}
	}
}

// forwardMarkers sends this task's marker for checkpoint id to every
// downstream task. The caller must flushOut first: the markers join the
// same FIFO connection behind everything emitted before the barrier.
func (in *Instance) forwardMarkers(id int64) {
	ps := in.plan.Load()
	if ps == nil {
		return
	}
	for _, dest := range ps.downstreamTasks {
		in.markerBuf = tuple.AppendMarker(in.markerBuf[:0], id, in.opts.ID.TaskID, dest)
		_ = in.conn.Send(network.MsgMarker, in.markerBuf)
	}
}

// sendCheckpointSaved acks checkpoint id to the coordinator (relayed by
// the local Stream Manager).
func (in *Instance) sendCheckpointSaved(id int64) {
	raw, err := ctrl.Encode(&ctrl.Message{
		Op: ctrl.OpCheckpointSaved, Topology: in.opts.Topology,
		TaskID: in.opts.ID.TaskID, CheckpointID: id,
	})
	if err == nil {
		_ = in.conn.Send(network.MsgControl, raw)
	}
}

// spoutCheckpoint handles a trigger marker at a spout: flush everything
// emitted so far, snapshot, forward markers, ack. Duplicate or stale
// triggers (re-broadcasts, abandoned checkpoints) are ignored.
func (in *Instance) spoutCheckpoint(id int64) {
	if in.opts.Checkpoint == nil || id <= in.lastCkptID {
		return
	}
	in.lastCkptID = id
	in.flushOut()
	in.forwardMarkers(id)
	if in.checkpointSave(id) {
		in.sendCheckpointSaved(id)
	}
}

// boltMarker handles one marker frame at a bolt, advancing (or starting)
// the barrier for its checkpoint id.
func (in *Instance) boltMarker(data []byte, dt *tuple.DataTuple, col *boltCollector) {
	if in.opts.Checkpoint == nil {
		return
	}
	id, src, _, err := tuple.DecodeMarker(data)
	if err != nil || id <= in.lastCkptID {
		return
	}
	ps := in.plan.Load()
	if ps == nil {
		return
	}
	if in.bar != nil && in.bar.id != id {
		// A newer checkpoint began before the old barrier completed: the
		// coordinator abandoned the old one. Its held tuples are
		// pre-barrier for the new checkpoint — execute them now.
		in.releaseHeld(dt, col)
	}
	if in.bar == nil {
		in.bar = &barrier{id: id, waiting: make(map[int32]bool, len(ps.upstreamTasks))}
		for _, t := range ps.upstreamTasks {
			in.bar.waiting[t] = true
		}
	}
	delete(in.bar.waiting, src)
	if len(in.bar.waiting) > 0 {
		return
	}
	// Barrier complete: everything pre-checkpoint has been executed and
	// everything post-checkpoint is held. Snapshot between the two.
	in.lastCkptID = id
	in.flushOut()
	in.forwardMarkers(id)
	if in.checkpointSave(id) {
		in.sendCheckpointSaved(id)
	}
	in.releaseHeld(dt, col)
}

// releaseHeld executes the tuples deferred during alignment, recycles the
// frames they aliased and drops the barrier.
func (in *Instance) releaseHeld(dt *tuple.DataTuple, col *boltCollector) {
	bar := in.bar
	in.bar = nil
	if bar == nil {
		return
	}
	for _, tb := range bar.held {
		if body, err := tuple.DecodeHeader(tb, dt); err == nil {
			in.execDecoded(dt, body, col)
		}
	}
	for _, buf := range bar.frames {
		wire.PutBuffer(buf)
	}
}

// boltData routes one data frame through the barrier filter: with no
// barrier in progress every tuple executes; during alignment, tuples from
// channels that already delivered their marker are post-barrier and held,
// tuples from still-unmarked channels execute immediately. Filtering is
// per tuple, not per frame — a frame may interleave both kinds. boltData
// owns buf: it recycles it at once, or hands it to the barrier when a
// held tuple aliases it.
func (in *Instance) boltData(buf *wire.Buffer, dt *tuple.DataTuple, col *boltCollector) {
	if in.bar == nil {
		in.executeFrame(buf.B, dt, col)
		wire.PutBuffer(buf)
		return
	}
	held := len(in.bar.held)
	_, _, _ = tuple.WalkFrame(buf.B, func(tb []byte) error {
		body, err := tuple.DecodeHeader(tb, dt)
		if err != nil {
			return nil
		}
		if !in.bar.waiting[dt.SrcTask] {
			in.bar.held = append(in.bar.held, tb)
			return nil
		}
		in.execDecoded(dt, body, col)
		return nil
	})
	if len(in.bar.held) > held {
		in.bar.frames = append(in.bar.frames, buf)
		return
	}
	wire.PutBuffer(buf)
}
