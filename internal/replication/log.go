// Package replication makes the control plane survive TMaster death.
// Three pieces compose (the ROADMAP's "Replicated control plane" item,
// after Stream-based State-Machine Replication):
//
//   - leader election over an ephemeral lease znode in the statemgr, with
//     a monotonically increasing fencing term allocated by compare-and-set
//     (elect.go);
//   - an ordered control log appended over the statemgr tree, to which
//     every control-plane mutation — checkpoint-ledger transitions, global
//     commits, health-manager actions, rescale begin/commit/rollback,
//     plan and tune changes — is written before it takes effect, and which
//     the appender compacts into a View snapshot every SnapshotEvery
//     records (this file);
//   - hot-standby replicas that tail the log into a warm View and, on
//     winning election, fence the old leader, replay the suffix, and
//     promote a new active TMaster (replica.go, view.go).
//
// The log is not consensus: the statemgr tree (ZooKeeper's stand-in) is
// the single source of truth, exactly as in real Heron. What the log adds
// is ordering and fencing — a deposed leader's late appends fail the
// term check and are rejected, so at most one TMaster generation can
// mutate control state at a time.
package replication

import (
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"

	"heron/internal/core"
)

// Record kinds.
const (
	KindPlan            = "plan"
	KindLedger          = "ledger"
	KindCommit          = "commit"
	KindHealth          = "health"
	KindRescaleBegin    = "rescale-begin"
	KindRescaleCommit   = "rescale-commit"
	KindRescaleRollback = "rescale-rollback"
	KindTune            = "tune"
)

// Record is one ordered control-log entry. Seq and Term are assigned by
// Append; exactly one payload field is set, selected by Kind.
type Record struct {
	Seq  int64  `json:"seq"`
	Term int64  `json:"term"`
	Kind string `json:"kind"`

	// KindLedger: the coordinator's ledger after the transition (Next is
	// the next epoch it may hand out, Pending the epoch in flight).
	Ledger *core.CheckpointLedger `json:"ledger,omitempty"`
	// KindCommit / KindTune: the globally committed epoch / the new
	// max-spout-pending value.
	Value int64 `json:"value,omitempty"`
	// KindPlan: a summary of the broadcast plan (the durable plan itself
	// lives in the statemgr's topology/packing records).
	Plan *PlanRecord `json:"plan,omitempty"`
	// KindHealth: one health-manager resolver action.
	Health *HealthRecord `json:"health,omitempty"`
	// KindRescale*: the rescale protocol's phase markers.
	Rescale *RescaleRecord `json:"rescale,omitempty"`
}

// PlanRecord summarizes a physical-plan broadcast. The plan's epoch is
// the record's Seq.
type PlanRecord struct {
	Containers int `json:"containers"`
	Tasks      int `json:"tasks"`
}

// HealthRecord is one resolver action written ahead of its effect.
type HealthRecord struct {
	Action    string `json:"action"`
	Component string `json:"component,omitempty"`
	Detail    string `json:"detail,omitempty"`
}

// RescaleRecord marks a phase of the stateful rescale protocol. Begin
// records carry everything a successor needs to drive the existing
// rollback path if the rescale never commits: the pre-rescale topology,
// packing plan, and the checkpoint the barrier committed.
type RescaleRecord struct {
	Component     string            `json:"component"`
	Parallelism   int               `json:"parallelism"`
	PreCheckpoint int64             `json:"preCheckpoint,omitempty"`
	Topology      *core.Topology    `json:"topology,omitempty"`
	Packing       *core.PackingPlan `json:"packing,omitempty"`
}

// Head is the log's CAS anchor: Next is the sequence the next append
// takes, Term fences appenders — an Append whose term is below Head.Term
// is a deposed leader's late write and is rejected.
type Head struct {
	Term int64 `json:"term"`
	Next int64 `json:"next"`
}

// SnapshotEvery is the compaction period: after appending a record whose
// Seq is a multiple of it, the appender snapshots its View and deletes
// every record the snapshot covers, so the log holds at most
// SnapshotEvery records beside its head and snapshot.
const SnapshotEvery = 64

// Log reads and (once fenced to a term) appends the replicated control
// log of one topology.
type Log struct {
	vs       core.VersionedStore
	topology string

	mu   sync.Mutex
	term int64 // 0 = read-only; appends require a fenced term
	// view folds the log through this appender's last append; the first
	// Append after Fence loads it, and compaction snapshots it.
	view *View
}

// NewLog returns a read-only handle; call Fence to become the appender.
func NewLog(vs core.VersionedStore, topology string) *Log {
	return &Log{vs: vs, topology: topology}
}

func logBase(topology string) string  { return "/topologies/" + topology + "/ctrllog" }
func headPath(topology string) string { return logBase(topology) + "/head" }
func snapPath(topology string) string { return logBase(topology) + "/snap" }
func recPath(topology string, seq int64) string {
	return logBase(topology) + "/e" + strconv.FormatInt(seq, 10)
}

// Head reads the current head; ok is false when the log was never
// initialized (no leader has appended or fenced yet).
func (l *Log) Head() (Head, bool, error) {
	data, _, ok, err := l.vs.GetVersioned(headPath(l.topology))
	if err != nil || !ok {
		return Head{}, false, err
	}
	var h Head
	if err := json.Unmarshal(data, &h); err != nil {
		return Head{}, false, fmt.Errorf("replication: corrupt log head: %w", err)
	}
	return h, true, nil
}

// Read returns the record at seq (ok=false if absent).
func (l *Log) Read(seq int64) (*Record, bool, error) {
	data, _, ok, err := l.vs.GetVersioned(recPath(l.topology, seq))
	if err != nil || !ok {
		return nil, false, err
	}
	var r Record
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, false, fmt.Errorf("replication: corrupt record e%d: %w", seq, err)
	}
	return &r, true, nil
}

// Snapshot reads the latest compaction snapshot (ok=false before the
// first compaction): the View folded through its AppliedSeq.
func (l *Log) Snapshot() (*View, bool, error) {
	data, _, ok, err := l.vs.GetVersioned(snapPath(l.topology))
	if err != nil || !ok {
		return nil, false, err
	}
	var v View
	if err := json.Unmarshal(data, &v); err != nil {
		return nil, false, fmt.Errorf("replication: corrupt log snapshot: %w", err)
	}
	return &v, true, nil
}

// Replay brings v up to the log head: it folds every committed record
// after v.AppliedSeq into v, in order. A record compaction already
// deleted is covered by the snapshot, which then replaces v before the
// fold continues past it. On error v keeps the records folded so far.
func (l *Log) Replay(v *View) error {
	head, ok, err := l.Head()
	if err != nil || !ok {
		return err
	}
	for seq := v.AppliedSeq + 1; seq < head.Next; seq = v.AppliedSeq + 1 {
		rec, ok, err := l.Read(seq)
		if err != nil {
			return err
		}
		if ok {
			v.Apply(rec)
			continue
		}
		snap, ok, err := l.Snapshot()
		if err != nil {
			return err
		}
		if !ok || snap.AppliedSeq < seq {
			return fmt.Errorf("replication: log gap at e%d", seq)
		}
		*v = *snap
	}
	return nil
}

// Term returns the fenced append term (0 = read-only).
func (l *Log) Term() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.term
}

// Fence raises the log head's term to term, rejecting all lower-term
// appenders from that point on, and makes this handle the appender. It
// fails with core.ErrNotLeader if a higher term already fenced the log.
func (l *Log) Fence(term int64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	for {
		data, ver, ok, err := l.vs.GetVersioned(headPath(l.topology))
		if err != nil {
			return err
		}
		h := Head{Next: 1}
		if ok {
			if err := json.Unmarshal(data, &h); err != nil {
				return fmt.Errorf("replication: corrupt log head: %w", err)
			}
		}
		if h.Term > term {
			return fmt.Errorf("%w: log fenced at term %d > %d", core.ErrNotLeader, h.Term, term)
		}
		h.Term = term
		b, err := json.Marshal(h)
		if err != nil {
			return err
		}
		if !ok {
			ver = 0
		}
		if _, err := l.vs.SetIf(headPath(l.topology), b, ver); err != nil {
			if errors.Is(err, core.ErrVersionMismatch) {
				continue // raced another head update; reload
			}
			return err
		}
		l.term, l.view = term, nil
		return nil
	}
}

// Append writes rec at the log tail: the record is durably placed, then
// the head advances — only after both does the mutation it describes take
// effect at the caller. A fenced-out appender (head term above ours) gets
// core.ErrNotLeader and must not apply the mutation. A record placed by a
// leader that died before advancing the head never took effect, so the
// next leader's append may overwrite it. Every SnapshotEvery records the
// append also compacts the log (see compact).
func (l *Log) Append(rec *Record) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.term <= 0 {
		return fmt.Errorf("replication: log not fenced for append")
	}
	if l.view == nil {
		v := &View{}
		if err := l.Replay(v); err != nil {
			return err
		}
		l.view = v
	}
	for {
		data, headVer, ok, err := l.vs.GetVersioned(headPath(l.topology))
		if err != nil {
			return err
		}
		h := Head{Term: l.term, Next: 1}
		if ok {
			if err := json.Unmarshal(data, &h); err != nil {
				return fmt.Errorf("replication: corrupt log head: %w", err)
			}
		} else {
			headVer = 0
		}
		if h.Term > l.term {
			return fmt.Errorf("%w: log fenced at term %d > %d", core.ErrNotLeader, h.Term, l.term)
		}
		rec.Seq, rec.Term = h.Next, l.term
		b, err := json.Marshal(rec)
		if err != nil {
			return err
		}
		rp := recPath(l.topology, rec.Seq)
		if _, err := l.vs.SetIf(rp, b, 0); err != nil {
			if !errors.Is(err, core.ErrVersionMismatch) {
				return err
			}
			// A record already sits at this seq: a dead leader placed it
			// but never advanced the head (so it never took effect).
			// Overwrite iff its term is stale; an equal-or-higher term
			// means we are the deposed one.
			exData, exVer, exOk, err2 := l.vs.GetVersioned(rp)
			if err2 != nil {
				return err2
			}
			if exOk {
				var ex Record
				if json.Unmarshal(exData, &ex) == nil && ex.Term >= l.term {
					return fmt.Errorf("%w: record e%d held by term %d", core.ErrNotLeader, rec.Seq, ex.Term)
				}
			}
			if _, err := l.vs.SetIf(rp, b, exVer); err != nil {
				if errors.Is(err, core.ErrVersionMismatch) {
					continue // raced; reload head and retry
				}
				return err
			}
		}
		h.Term, h.Next = l.term, rec.Seq+1
		hb, err := json.Marshal(h)
		if err != nil {
			return err
		}
		if _, err := l.vs.SetIf(headPath(l.topology), hb, headVer); err != nil {
			if errors.Is(err, core.ErrVersionMismatch) {
				continue // head moved under us (fencing bump); reload
			}
			return err
		}
		l.view.Apply(rec)
		if rec.Seq%SnapshotEvery == 0 {
			// Best effort: the record already took effect, and a failed
			// compaction leaves only records the next one deletes.
			_ = l.compact()
		}
		return nil
	}
}

// compact writes the appender's View as the log snapshot, unless a newer
// snapshot is already there (a successor compacted past a deposed
// appender), then deletes every record at or below the snapshot's seq.
// The snapshot is written before any record goes, so a reader that finds
// a record missing always finds a snapshot covering it.
func (l *Log) compact() error {
	b, err := json.Marshal(l.view)
	if err != nil {
		return err
	}
	for {
		cur, ver, ok, err := l.vs.GetVersioned(snapPath(l.topology))
		if err != nil {
			return err
		}
		if ok {
			var v View
			if json.Unmarshal(cur, &v) == nil && v.AppliedSeq >= l.view.AppliedSeq {
				break
			}
		}
		if _, err := l.vs.SetIf(snapPath(l.topology), b, ver); err != nil {
			if errors.Is(err, core.ErrVersionMismatch) {
				continue
			}
			return err
		}
		break
	}
	children, err := l.vs.NodeChildren(logBase(l.topology))
	if err != nil {
		return err
	}
	for _, c := range children {
		name, ok := strings.CutPrefix(c, "e")
		if !ok {
			continue
		}
		if seq, err := strconv.ParseInt(name, 10, 64); err == nil && seq <= l.view.AppliedSeq {
			if err := l.vs.DeleteNode(logBase(l.topology) + "/" + c); err != nil {
				return err
			}
		}
	}
	return nil
}
