package core

import (
	"fmt"
	"time"
)

// Config selects module implementations and tunes the engine. Modules are
// chosen purely by name — the paper's "plug it in the system without
// disrupting the remaining modules" — so swapping YARN for Aurora or
// round-robin packing for bin packing is a configuration change, never a
// code change.
type Config struct {
	// Module selection.
	PackingAlgorithm string // registry name: "roundrobin" (default), "binpacking"
	SchedulerName    string // "local" (default), "yarn", "mesos", "slurm", "aurora", "multitenant"
	StateManagerName string // "memory" (default), "localfs"
	Transport        string // "inproc" (default), "tcp"; "ring" is an alias of "inproc"
	Codec            string // "fast" (default), "naive"

	// StreamManagerOptimized gates the Section V-A fast paths: memory
	// pooling, lazy routing and tuple-cache batching. Disabling it (with
	// Codec "naive") reproduces the "without optimizations" arm of the
	// evaluation.
	StreamManagerOptimized bool

	// Packing inputs.
	NumContainers     int      // round-robin container count hint (default 4)
	ContainerCapacity Resource // bin-packing per-container capacity
	ContainerOverhead Resource // per-container stream/metrics manager cost

	// Data plane tuning (paper Section V-B).
	AckingEnabled bool
	// MaxSpoutPending bounds un-acked tuples in flight per spout task; 0
	// means unbounded. Meaningful only with AckingEnabled.
	MaxSpoutPending int
	// MessageTimeout fails tuple trees not completed in time.
	MessageTimeout time.Duration
	// CacheDrainFrequency is the Stream Manager tuple-cache flush period.
	CacheDrainFrequency time.Duration
	// CacheMaxBatchTuples caps a batch regardless of the drain timer; 0
	// selects the default.
	CacheMaxBatchTuples int
	// InstanceBatchTuples is how many emitted tuples an instance buffers
	// before one IPC send (0 = default 64, 1 = per-tuple; ablation knob
	// for the gateway-side batching).
	InstanceBatchTuples int

	// MetricsExportInterval is how often each container's Metrics Manager
	// pushes a snapshot to the Topology Master (0 selects the default).
	MetricsExportInterval time.Duration

	// CheckpointInterval enables distributed checkpointing: the Topology
	// Master injects epoch markers at spouts this often, and components
	// implementing api.StatefulComponent are snapshotted and restored from
	// the latest committed checkpoint after a container failure. 0 (the
	// default) disables checkpointing. Mutually exclusive with
	// AckingEnabled: ack-driven replay would re-apply pre-checkpoint
	// tuples and duplicate state updates.
	CheckpointInterval time.Duration
	// StateBackend names the snapshot store: "memory" (default),
	// "localfs", or "redis" (the simulated Redis in extsvc/redissim).
	StateBackend string

	// HealthInterval enables the self-regulating health manager: every
	// interval the configured policy's sensor samples the Topology
	// Master's merged metrics view, detectors turn samples into symptoms,
	// symptoms are diagnosed, and resolvers act on the diagnosis —
	// retuning max spout pending or rescaling a component's parallelism at
	// runtime.
	// 0 (the default) disables the health manager.
	HealthInterval time.Duration
	// HealthPolicy names the health-manager policy: "autoscale" (the
	// default when HealthInterval is set), "tune-only", or "observe"
	// (diagnoses only, never acts). "tune-only" never rescales: it drives
	// the max-spout-pending window alone, halving it under sustained
	// backpressure and, while the spouts hold a full window with no
	// backpressure, growing it ×1.5 for as long as each growth raises the
	// acked rate. Requires HealthInterval.
	HealthPolicy string

	// ControlReplicas sizes the control plane's replica set; 0 and 1 (the
	// default) both mean one replica. Every deployment runs the same path:
	// container 0 launches a leader candidate that is elected through the
	// State Manager kernel's CAS, leases and watches and appends every
	// control mutation to the control log, and N-1 hot standbys tail that
	// log and take over when the leader's lease lapses. With one replica,
	// the candidate container 0 relaunches takes over instead. Capped at
	// MaxControlReplicas.
	ControlReplicas int
	// ControlLeaseTTL is the leader lease's time-to-live: a crashed
	// leader that cannot renew is deposed after at most this long. The
	// holder renews every TTL/3. 0 selects DefaultControlLeaseTTL.
	ControlLeaseTTL time.Duration

	// HTTPAddr, when non-empty, starts the observability HTTP server on
	// this address ("127.0.0.1:0" picks a free port). It serves /metrics
	// (Prometheus text) and /topology (JSON).
	HTTPAddr string
	// HTTPPprof additionally mounts net/http/pprof handlers under
	// /debug/pprof/ on the observability server.
	HTTPPprof bool

	// StateRoot is the root path/znode for the State Manager tree.
	StateRoot string

	// Extra carries module-specific settings (e.g. "yarn.queue").
	Extra map[string]string

	// Launcher, Framework and World are live runtime dependencies, never
	// serialized: Launcher boots a container's processes; Framework is the
	// underlying scheduling-framework handle (for the simulated YARN/Aurora
	// cluster, a *cluster.Cluster); World is the deployment whose simulated
	// ZooKeeper trees, snapshot stores and Redis servers the config's
	// sessions share. NewConfig makes a fresh World and Clone shares it, so
	// a config and its clones are one deployment.
	Launcher  ContainerLauncher
	Framework any
	World     *World
}

// Defaults for unset fields.
const (
	DefaultNumContainers       = 4
	DefaultCacheDrainFrequency = 5 * time.Millisecond
	DefaultCacheMaxBatchTuples = 1024
	DefaultMessageTimeout      = 30 * time.Second
	// DefaultMetricsExportInterval paces the Metrics Manager push loop.
	DefaultMetricsExportInterval = 250 * time.Millisecond
	// MaxControlReplicas bounds Config.ControlReplicas: more standbys than
	// this only add election traffic, never availability.
	MaxControlReplicas = 7
	// DefaultControlLeaseTTL bounds failover detection time when the
	// leader hard-crashes without closing its statemgr session.
	DefaultControlLeaseTTL = 250 * time.Millisecond
)

// DefaultInstanceResources is the per-instance ask used when a component
// does not set one (1 core, 1 GB RAM, 1 GB disk — Heron's defaults).
var DefaultInstanceResources = Resource{CPU: 1, RAMMB: 1024, DiskMB: 1024}

// DefaultTMasterResources is the ask of container 0, the container that
// runs the TMaster.
var DefaultTMasterResources = Resource{CPU: 1, RAMMB: 1024, DiskMB: 1024}

// DefaultContainerOverhead covers the Stream Manager and Metrics Manager
// processes of each container.
var DefaultContainerOverhead = Resource{CPU: 1, RAMMB: 512, DiskMB: 512}

// NewConfig returns a Config populated with defaults: the optimized data
// plane, round-robin packing on the local scheduler with the in-memory
// state manager, acking off.
func NewConfig() *Config {
	return &Config{
		PackingAlgorithm:       "roundrobin",
		SchedulerName:          "local",
		StateManagerName:       "memory",
		Transport:              "inproc",
		Codec:                  "fast",
		StreamManagerOptimized: true,
		NumContainers:          DefaultNumContainers,
		ContainerOverhead:      DefaultContainerOverhead,
		MessageTimeout:         DefaultMessageTimeout,
		CacheDrainFrequency:    DefaultCacheDrainFrequency,
		CacheMaxBatchTuples:    DefaultCacheMaxBatchTuples,
		StateBackend:           "memory",
		StateRoot:              "/heron",
		Extra:                  map[string]string{},
		World:                  NewWorld(),
	}
}

// Clone returns a deep copy so per-topology tweaks don't alias; the copy
// shares the World, so it is the same deployment.
func (c *Config) Clone() *Config {
	out := *c
	out.Extra = make(map[string]string, len(c.Extra))
	for k, v := range c.Extra {
		out.Extra[k] = v
	}
	return &out
}

// Validate rejects configurations the engine cannot run.
func (c *Config) Validate() error {
	if c.World == nil {
		return fmt.Errorf("core: nil World (build the Config with NewConfig)")
	}
	if c.NumContainers < 1 {
		return fmt.Errorf("core: NumContainers %d < 1", c.NumContainers)
	}
	if c.MaxSpoutPending < 0 {
		return fmt.Errorf("core: MaxSpoutPending %d < 0", c.MaxSpoutPending)
	}
	if c.CacheDrainFrequency < 0 {
		return fmt.Errorf("core: negative CacheDrainFrequency")
	}
	if c.MetricsExportInterval < 0 {
		return fmt.Errorf("core: negative MetricsExportInterval")
	}
	if c.MaxSpoutPending > 0 && !c.AckingEnabled {
		return fmt.Errorf("core: MaxSpoutPending requires AckingEnabled")
	}
	if c.CheckpointInterval < 0 {
		return fmt.Errorf("core: negative CheckpointInterval")
	}
	if c.CheckpointInterval > 0 && c.AckingEnabled {
		return fmt.Errorf("core: CheckpointInterval and AckingEnabled are mutually exclusive")
	}
	if c.HealthInterval < 0 {
		return fmt.Errorf("core: negative HealthInterval")
	}
	if c.HealthPolicy != "" && c.HealthInterval == 0 {
		return fmt.Errorf("core: HealthPolicy %q requires HealthInterval > 0", c.HealthPolicy)
	}
	if c.ControlReplicas < 0 || c.ControlReplicas > MaxControlReplicas {
		return fmt.Errorf("core: ControlReplicas %d outside [0, %d]", c.ControlReplicas, MaxControlReplicas)
	}
	if c.ControlLeaseTTL < 0 {
		return fmt.Errorf("core: negative ControlLeaseTTL")
	}
	return nil
}

// ResolveControlLeaseTTL applies the lease-TTL default.
func (c *Config) ResolveControlLeaseTTL() time.Duration {
	if c.ControlLeaseTTL > 0 {
		return c.ControlLeaseTTL
	}
	return DefaultControlLeaseTTL
}
