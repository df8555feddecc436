// Package checkpoint is the distributed-checkpointing subsystem: the
// aligned-marker (Chandy–Lamport) protocol that upgrades the engine from
// at-least-once replay to checkpoint-based effectively-once for stateful
// topologies.
//
// The moving parts map onto the paper's module boundaries:
//
//   - The Topology Master hosts the Coordinator: a ticker starts
//     checkpoint N by broadcasting OpCheckpointTrigger to every Stream
//     Manager; it commits N once every task has reported OpCheckpointSaved.
//   - Stream Managers inject trigger markers at their local spouts and
//     forward in-stream markers (network.MsgMarker frames) between tasks,
//     flushing any partially batched data for the destination first so
//     markers never overtake tuples.
//   - Instances snapshot themselves: a spout saves on first sight of a
//     marker; a bolt aligns a barrier across all upstream tasks, holding
//     post-marker tuples until the barrier completes, then saves and
//     releases them.
//   - Snapshots persist through a pluggable Backend ("memory", "localfs",
//     "redis") — the same plug-in discipline as the State Manager.
//
// Recovery reads Backend.LatestCommitted once per container launch and
// calls RestoreState on every stateful instance before it processes input.
package checkpoint

import (
	"fmt"
	"sort"
	"sync"

	"heron/internal/core"
)

// Backend persists per-task snapshots and the global commit record. All
// methods must be safe for concurrent use: every container holds its own
// backend session against the shared store.
type Backend interface {
	// Initialize connects the backend; cfg carries the store location
	// (StateRoot, Extra keys).
	Initialize(cfg *core.Config) error
	// Save persists one task's snapshot for a checkpoint.
	Save(topology string, checkpointID int64, task int32, data []byte) error
	// Load reads one task's snapshot; core.ErrNotFound if absent.
	Load(topology string, checkpointID int64, task int32) ([]byte, error)
	// Commit durably marks a checkpoint globally complete.
	Commit(topology string, checkpointID int64) error
	// LatestCommitted returns the newest committed checkpoint id, or 0 if
	// none has been committed yet.
	LatestCommitted(topology string) (int64, error)
	// Dispose deletes all of a topology's snapshots (topology kill).
	Dispose(topology string) error
	// Close releases the session.
	Close() error
}

// Factory builds an uninitialized backend.
type Factory func() Backend

var (
	regMu    sync.Mutex
	backends = map[string]Factory{}
)

// Register adds a backend under a name; later registrations replace
// earlier ones, mirroring the core module registries.
func Register(name string, f Factory) {
	regMu.Lock()
	defer regMu.Unlock()
	backends[name] = f
}

// New builds the named backend ("" selects "memory").
func New(name string) (Backend, error) {
	if name == "" {
		name = "memory"
	}
	regMu.Lock()
	f, ok := backends[name]
	names := make([]string, 0, len(backends))
	for n := range backends {
		names = append(names, n)
	}
	regMu.Unlock()
	if !ok {
		sort.Strings(names)
		return nil, fmt.Errorf("checkpoint: unknown backend %q (registered: %v): %w",
			name, names, core.ErrNotFound)
	}
	return f(), nil
}

// Coordinator is the TMaster-side checkpoint state machine. At most one
// checkpoint is outstanding; a pending checkpoint that cannot complete
// (e.g. a container died mid-barrier) is simply abandoned when the next
// interval begins — markers for a stale id are ignored downstream, so the
// protocol is self-healing without timeouts.
//
// The epoch sequence is recorded once, in the control log: PrepareSink
// writes each id ahead of handing it out, CommitSink each global commit
// ahead of the backend commit, and a restarted coordinator takes its id
// floor from the replayed log through InitFloor. The backend only knows
// committed checkpoints, so without that floor a coordinator restarted
// mid-epoch would hand out the in-flight id again — one that
// transactional sinks may already hold a prepared transaction under.
type Coordinator struct {
	topology string
	backend  Backend

	// PrepareSink, when set, records the ledger transition of Begin and
	// Reserve (next is the id after the one handed out, pending the epoch
	// in flight) before the id leaves the coordinator; an error withholds
	// the id. CommitSink, when set, records a completed checkpoint before
	// the backend commit; an error aborts the commit. A fenced control-log
	// append fails either sink: this coordinator's TMaster was deposed and
	// must neither start nor decide an epoch. PrepareSink runs under the
	// coordinator's lock, so ledger records land in id order; it must not
	// call back into the coordinator.
	PrepareSink func(next, pending int64) error
	CommitSink  func(id int64) error

	mu      sync.Mutex
	next    int64
	pending int64          // 0 = no checkpoint outstanding
	waiting map[int32]bool // tasks not yet saved for pending
}

// NewCoordinator creates a coordinator persisting through backend.
func NewCoordinator(topology string, backend Backend) *Coordinator {
	return &Coordinator{topology: topology, backend: backend, next: 1}
}

// InitFromBackend resumes the id sequence past the latest committed
// checkpoint. A coordinator replacing a dead one also calls InitFloor
// with the replayed ledger, which covers the ids handed out but never
// committed.
func (c *Coordinator) InitFromBackend() error {
	latest, err := c.backend.LatestCommitted(c.topology)
	if err != nil {
		return err
	}
	c.InitFloor(latest + 1)
	return nil
}

// Begin starts a new checkpoint over the given task set, abandoning any
// incomplete pending one. ok is false when tasks is empty or PrepareSink
// failed.
func (c *Coordinator) Begin(tasks []int32) (id int64, ok bool) {
	if len(tasks) == 0 {
		return 0, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	id = c.next
	if sink := c.PrepareSink; sink != nil && sink(id+1, id) != nil {
		return 0, false
	}
	c.next++
	c.pending = id
	c.waiting = make(map[int32]bool, len(tasks))
	for _, t := range tasks {
		c.waiting[t] = true
	}
	return id, true
}

// Saved records one task's snapshot ack. When the last task of the
// pending checkpoint reports, the checkpoint is committed through the
// backend and complete is true. Stale or duplicate acks are ignored.
func (c *Coordinator) Saved(task int32, id int64) (complete bool, err error) {
	c.mu.Lock()
	if id != c.pending || !c.waiting[task] {
		c.mu.Unlock()
		return false, nil
	}
	delete(c.waiting, task)
	done := len(c.waiting) == 0
	if done {
		c.pending = 0
	}
	c.mu.Unlock()
	if !done {
		return false, nil
	}
	if sink := c.CommitSink; sink != nil {
		if err := sink(id); err != nil {
			return false, err
		}
	}
	if err := c.backend.Commit(c.topology, id); err != nil {
		return false, err
	}
	return true, nil
}

// Reserve allocates the next checkpoint id without starting a barrier.
// Runtime rescaling writes a repartitioned snapshot under a reserved id
// and commits it directly through the backend; reserving through the
// coordinator keeps the id sequence strictly monotone so instances never
// confuse the repartitioned epoch with an interval checkpoint. An error
// is PrepareSink's: the id was not handed out.
func (c *Coordinator) Reserve() (int64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	id := c.next
	if sink := c.PrepareSink; sink != nil {
		if err := sink(id+1, c.pending); err != nil {
			return 0, err
		}
	}
	c.next++
	return id, nil
}

// InitFloor raises the id sequence to at least next. A new TMaster calls
// it with its replayed view's ledger floor so an epoch that was in flight
// under the dead one — possibly prepared at transactional sinks — is
// abandoned, never reused for a different cut of the stream.
func (c *Coordinator) InitFloor(next int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if next > c.next {
		c.next = next
	}
}

// LatestCommitted reports the newest globally committed epoch from the
// backend (0 if none) — what a restarted coordinator re-broadcasts so
// sinks holding a prepared transaction for an already-committed epoch can
// resolve it.
func (c *Coordinator) LatestCommitted() (int64, error) {
	return c.backend.LatestCommitted(c.topology)
}

// Pending returns the outstanding checkpoint id (0 if none).
func (c *Coordinator) Pending() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.pending
}
