package core

import (
	"errors"
	"time"
)

// ErrNotFound is wrapped by the State Manager's record getters for absent
// records and by the registries for unknown module names.
var ErrNotFound = errors.New("core: not found")

// ErrNotLeader is wrapped by every control-plane operation that lands on
// a deposed or not-yet-elected Topology Master while the control plane is
// replicated (Config.ControlReplicas > 1): scaling, tuning, checkpoint
// reservations, and health-manager actions during a failover window.
// It is a typed transient — callers retry against the new leader (see
// heron.RetryNotLeader) instead of treating the window as a hard failure.
var ErrNotLeader = errors.New("core: not leader")

// ErrVersionMismatch is returned by VersionedStore.SetIf when the node's
// current version differs from the caller's expectation — someone else
// wrote (or created, or deleted) the node in between. It is the CAS
// failure that fences deposed leaders out of the control log.
var ErrVersionMismatch = errors.New("core: version mismatch")

// ErrDuplicateTopology is wrapped by every submission path that rejects a
// topology name already live on the target state tree (whose statemgr
// keys and checkpoint namespace it would collide with), so callers can
// match the condition with errors.Is regardless of which layer caught it.
var ErrDuplicateTopology = errors.New("duplicate topology name")

// ResourceManager is the paper's Section IV-A module: it decides how
// resources are allocated for a topology by producing packing plans. It is
// not a long-running process — it is invoked on demand at submission
// (Pack) and during scaling operations (Repack).
type ResourceManager interface {
	// Initialize binds the manager to a topology and its configuration.
	Initialize(cfg *Config, topo *Topology) error
	// Pack generates the initial packing plan. Policies differ per
	// implementation: round-robin optimizes load balance, bin packing
	// minimizes the number of containers (deployment cost).
	Pack() (*PackingPlan, error)
	// Repack adjusts an existing plan for a topology scaling request.
	// parallelismChanges maps component name to its new parallelism.
	// Implementations should minimize disruption to current placements and
	// reuse free space in already-provisioned containers.
	Repack(current *PackingPlan, parallelismChanges map[string]int) (*PackingPlan, error)
	Close() error
}

// KillRequest asks a scheduler to tear a topology down.
type KillRequest struct {
	Topology string
}

// RestartRequest asks a scheduler to restart a topology's containers
// (ContainerID ≥ 0 restarts one container, -1 restarts all).
type RestartRequest struct {
	Topology    string
	ContainerID int32
}

// UpdateRequest asks a scheduler to move a running topology to a new
// packing plan (topology scaling). The scheduler adds or removes
// containers as the plan demands.
type UpdateRequest struct {
	Topology string
	Current  *PackingPlan
	Proposed *PackingPlan
}

// Scheduler is the paper's Section IV-B module: the bridge between a
// packing plan and an underlying scheduling framework (YARN, Aurora,
// Mesos, or the local machine). A stateful implementation monitors its
// containers and restarts failures itself; a stateless one delegates
// failure handling to the framework.
type Scheduler interface {
	Initialize(cfg *Config) error
	// OnSchedule receives the initial packing plan and acquires the
	// resources it specifies from the underlying framework.
	OnSchedule(initial *PackingPlan) error
	OnKill(req KillRequest) error
	OnRestart(req RestartRequest) error
	OnUpdate(req UpdateRequest) error
	Close() error
}

// QuiescingScheduler is an optional Scheduler capability required for
// stateful runtime rescaling. Unlike OnUpdate's minimal-disruption diff,
// OnQuiescedUpdate stops every worker container of the current plan
// before launching any container of the proposed plan (the TMaster's
// container 0 keeps running — it hosts the checkpoint coordinator and the
// plan directory). The ordering matters: a surviving container processing
// tuples from an already-restored spout would observe state from two
// checkpoint generations, so relaunches may only begin once the old
// generation is fully quiesced; each relaunched instance then restores
// from the checkpoint committed immediately before the update.
type QuiescingScheduler interface {
	OnQuiescedUpdate(req UpdateRequest) error
}

// ContainerLauncher boots the Heron processes of one container: the
// Topology Master for container 0, or a Stream Manager + Metrics Manager +
// Heron Instances for the others. The engine injects it into the Config
// before initializing a Scheduler; schedulers call it when the underlying
// framework grants a container, and call the returned stop function when
// the container is released, restarted or lost.
type ContainerLauncher interface {
	LaunchContainer(topology string, containerID int32) (stop func(), err error)
}

// TMasterLocation is the Topology Master's advertised control endpoint,
// published through the State Manager so Stream Managers can find it (and
// immediately observe its death, since the record is ephemeral).
type TMasterLocation struct {
	Topology string
	// Transport and Addr locate the TMaster's control listener.
	Transport string
	Addr      string
	// SessionID is the TMaster's start time in unix nanos: it tells two
	// TMasters advertising the same address apart. It is not ordered
	// across a wall-clock step.
	SessionID int64
}

// SchedulerLocation records which scheduler instance manages a topology
// and the URL of the underlying framework, part of the metadata the paper
// lists as stored in the State Manager.
type SchedulerLocation struct {
	Topology string
	Kind     string // module name, e.g. "yarn"
	// FrameworkURL points at the underlying scheduling framework.
	FrameworkURL string
}

// StateManager is the paper's Section IV-C module reduced to the tree
// kernel ZooKeeper provides: a session on a tree of versioned nodes with
// ephemerals, compare-and-set, TTL leases and watches. A backend
// implements only this; the typed topology records (topology, packing
// plan, locations, checkpoint ledger) are written once on top of it, in
// internal/statemgr. Paths are absolute and slash-separated ("/a/b");
// creating a node creates its missing parents as persistent nodes at
// version 1.
type StateManager interface {
	// Initialize opens the session; every other call fails before it.
	Initialize(cfg *Config) error
	// Close ends the session: its watches stop and every node it still
	// owns (ephemerals and leases) is deleted, firing other sessions'
	// watches — how Stream Managers learn of a TMaster death.
	Close() error
	// Abandon ends the session as a hard crash would: watches stop, but
	// owned ephemerals linger until overwritten or deleted, and leases
	// lapse only at their TTL.
	Abandon()
	// Set writes data at path (last writer wins) and advances its
	// version. An ephemeral write makes this session the node's owner,
	// taking it over from any previous owner; a persistent one clears the
	// owner.
	Set(path string, data []byte, ephemeral bool) error
	VersionedStore
}

// VersionedStore is the part of the kernel the replicated control plane
// (internal/replication) needs. Plain Set is last-writer-wins, which
// cannot fence a deposed leader; SetIf is a versioned compare-and-set,
// and AcquireLease implements the ephemeral lease znode that leader
// election hangs off. Every node carries a version that starts at 1 on
// creation and advances on every write; deletion and re-creation restart
// it.
type VersionedStore interface {
	// SetIf writes data as a persistent node iff the node's current
	// version equals expectVersion (0 = the node must not exist; the
	// write creates it). Returns the node's new version, or
	// ErrVersionMismatch.
	SetIf(path string, data []byte, expectVersion int64) (int64, error)
	// GetVersioned reads a node's data and version. Absent (or
	// lease-expired) nodes report ok=false and version 0 with a nil error.
	GetVersioned(path string) (data []byte, version int64, ok bool, err error)
	// AcquireLease creates or renews a lease node. It succeeds when the
	// node is absent, expired, or already owned by this session; it fails
	// (false, nil) while any other node sits at path. A renewal with
	// unchanged data only extends the deadline. The node vanishes when the
	// holder's session closes or the TTL lapses without renewal —
	// whichever comes first.
	AcquireLease(path string, data []byte, ttl time.Duration) (bool, error)
	// ReleaseLease deletes the lease node if this session holds it.
	ReleaseLease(path string) error
	// WatchNode invokes cb after every change to the node's (exists,
	// version, data), including deletion and lease expiry (exists=false),
	// until cancelled. It is armed when it returns. Returns a cancel func.
	WatchNode(path string, cb func(data []byte, exists bool)) (func(), error)
	// NodeChildren lists the direct children of a tree node, sorted.
	NodeChildren(path string) ([]string, error)
	// DeleteNode removes one node regardless of version or owner
	// (administrative); deleting an absent node is a no-op.
	DeleteNode(path string) error
}

// CheckpointLedger is the checkpoint coordinator's durable control
// record, persisted through the State Manager on every epoch transition.
// Next is the next epoch id the coordinator may hand out; Pending is the
// epoch in flight when the record was written (0 = none) — informational
// for operators, the safety argument only needs Next.
type CheckpointLedger struct {
	Next    int64 `json:"next"`
	Pending int64 `json:"pending"`
}
