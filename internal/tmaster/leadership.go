// This file wires a TMaster into the control plane it leads: every
// control-plane mutation is appended to the control log before it takes
// effect, and a fenced append (core.ErrNotLeader) deposes this TMaster —
// it stops mutating and signals its replica to tear it down. Every
// TMaster is one generation of a replica set, of one replica or more.

package tmaster

import (
	"errors"
	"fmt"

	"heron/internal/core"
	"heron/internal/replication"
)

// Leadership is the context a replica hands to the TMaster it promotes.
type Leadership struct {
	// Term is this TMaster generation's fencing term.
	Term int64
	// Log is the topology's control log, already fenced at Term.
	Log *replication.Log
	// Recovered is the promoting replica's replayed view — the dead
	// leader's last effective control state.
	Recovered *replication.View
	// OnDeposed is invoked (once, possibly from a coordinator callback —
	// it must not block) when a log append is fenced out by a higher
	// term: the replica tears this TMaster down and rejoins as standby.
	OnDeposed func()
}

// isDeposed reports whether a fenced append has already proven a newer
// leader exists.
func (tm *TMaster) isDeposed() bool { return tm.deposed.Load() }

// depose marks the TMaster fenced-out and notifies the replica exactly
// once. Safe to call from under the coordinator's lock: the callback is
// contractually non-blocking (the replica's depose just closes a
// channel; teardown happens on the replica's own goroutine).
func (tm *TMaster) depose() {
	tm.deposeOnce.Do(func() {
		tm.deposed.Store(true)
		if tm.opts.Lead.OnDeposed != nil {
			tm.opts.Lead.OnDeposed()
		}
	})
}

// errNotLeader builds the sentinel error surfaced by control APIs after
// this TMaster generation was fenced out.
func (tm *TMaster) errNotLeader() error {
	return fmt.Errorf("%w: tmaster term %d deposed", core.ErrNotLeader, tm.opts.Lead.Term)
}

// AppendControl writes rec through the control log before its mutation
// takes effect; on success rec.Seq is the record's place in the log. A
// core.ErrNotLeader return means this TMaster was fenced out or has
// stopped — the caller must not apply the mutation, and may retry it
// through the next leader.
func (tm *TMaster) AppendControl(rec *replication.Record) error {
	if tm.isDeposed() {
		return tm.errNotLeader()
	}
	if err := tm.opts.Lead.Log.Append(rec); err != nil {
		if errors.Is(err, core.ErrNotLeader) {
			tm.depose()
			return err
		}
		select {
		case <-tm.stopCh: // the session went with the TMaster
			return fmt.Errorf("%w: tmaster term %d stopped: %v", core.ErrNotLeader, tm.opts.Lead.Term, err)
		default:
		}
		return err
	}
	return nil
}

// initCheckpoints hooks the coordinator into the log and recovers the
// previous generation's checkpoint state from the replayed view. Called
// from New after the coordinator exists but before any loop starts.
func (tm *TMaster) initCheckpoints() error {
	tm.ckpt.PrepareSink = func(next, pending int64) error {
		return tm.AppendControl(&replication.Record{
			Kind: replication.KindLedger, Ledger: &core.CheckpointLedger{Next: next, Pending: pending},
		})
	}
	tm.ckpt.CommitSink = func(id int64) error {
		return tm.AppendControl(&replication.Record{Kind: replication.KindCommit, Value: id})
	}
	if err := tm.ckpt.InitFromBackend(); err != nil {
		return err
	}
	v := tm.opts.Lead.Recovered
	if v == nil {
		return nil
	}
	// Never reuse an epoch id the previous generation had in flight: ids
	// below the replayed ledger floor may be sitting prepared (undecided)
	// at transactional sinks.
	tm.ckpt.InitFloor(v.Ledger.Next)
	// Re-drive a commit the log decided but the backend never heard
	// finished (the old leader died between the log append and the
	// backend commit). Idempotent: commit is a high-water mark.
	if latest, err := tm.ckptBackend.LatestCommitted(tm.opts.Topology); err == nil && v.LastCommit > latest {
		if err := tm.ckptBackend.Commit(tm.opts.Topology, v.LastCommit); err != nil {
			return fmt.Errorf("tmaster: re-drive commit %d: %w", v.LastCommit, err)
		}
	}
	return nil
}

// LatestCommittedEpoch reports the newest globally committed checkpoint
// (0 when checkpointing is disabled or nothing committed) — the failover
// harness polls it to time kill→first-post-failover-commit.
func (tm *TMaster) LatestCommittedEpoch() int64 {
	if tm.ckpt == nil {
		return 0
	}
	latest, err := tm.ckpt.LatestCommitted()
	if err != nil {
		return 0
	}
	return latest
}

// Crash simulates the TMaster process dying: everything stops, but the
// State Manager session is abandoned rather than closed — ephemeral
// records and the leader lease linger until their TTLs lapse, exactly
// what a kill -9 looks like to the rest of the cluster.
func (tm *TMaster) Crash() {
	tm.crashed.Store(true)
	tm.Stop()
}
