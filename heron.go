// Package heron is the public entry point of this repository: a Go
// implementation of the modular, extensible streaming engine described in
// "Twitter Heron: Towards Extensible Streaming Engines" (ICDE 2017).
//
// Topologies are built with the api package and submitted with Submit.
// Every module — packing algorithm (Resource Manager), Scheduler, State
// Manager, transport, codec — is selected by name in the Config, and new
// implementations plug in through the registries in internal/core without
// touching the rest of the system.
//
//	spec, _ := builder.Build()
//	cfg := heron.NewConfig()
//	cfg.SchedulerName = "yarn"          // or "local", "mesos", "slurm", "aurora"
//	cfg.PackingAlgorithm = "binpacking" // or "roundrobin"
//	h, err := heron.Submit(spec, cfg)
//	defer h.Kill()
package heron

import (
	"errors"
	"fmt"
	"time"

	"heron/api"
	"heron/internal/checkpoint"
	"heron/internal/core"
	"heron/internal/healthmgr"
	"heron/internal/metrics"
	"heron/internal/observability"
	"heron/internal/packing"
	"heron/internal/replication"
	"heron/internal/runtime"
	"heron/internal/statemgr"

	// Register the built-in module implementations.
	_ "heron/internal/scheduler"
)

// Config re-exports the engine configuration.
type Config = core.Config

// Resource re-exports the resource vector.
type Resource = core.Resource

// NewConfig returns the default configuration (optimized data plane,
// round-robin packing, local scheduler, in-memory state manager).
func NewConfig() *Config { return core.NewConfig() }

// Handle controls one submitted topology.
type Handle struct {
	name   string
	cfg    *core.Config
	spec   *api.Spec
	state  *statemgr.Manager
	rm     core.ResourceManager
	sched  core.Scheduler
	engine *runtime.Engine
	obs    *observability.Server
	health *healthmgr.Manager
	killed bool

	// Multi-tenant hooks (nil for standalone submissions): admitUpdate
	// gates every rescale against the tenant quota, onKill releases the
	// quota reservation when the topology dies.
	admitUpdate func(current, proposed *core.PackingPlan) error
	onKill      func()

	// hookAfterRescaleBarrier, when set (chaos tests only), runs after
	// the pre-rescale barrier commits and its begin record is logged —
	// the window where a leader kill leaves a half-done rescale.
	hookAfterRescaleBarrier func()
}

// submitHooks let a shared cluster intercept the submission lifecycle.
// The zero value (standalone Submit) disables every hook.
type submitHooks struct {
	// admitPlan runs after packing and before any container is scheduled;
	// an error aborts the submission (quota admission control).
	admitPlan func(plan *core.PackingPlan, tmAsk core.Resource) error
	// admitUpdate and onKill are installed on the returned Handle.
	admitUpdate func(current, proposed *core.PackingPlan) error
	onKill      func()
}

// Submit validates, packs, and schedules a topology, returning a Handle
// once the containers are launched. The submission path is exactly the
// paper's: Resource Manager pack → State Manager persist → Scheduler
// onSchedule against the configured framework.
//
// Submit dedicates the configured framework to this one topology; to run
// many topologies on one shared substrate under tenant quotas, use
// NewCluster and Cluster.Submit instead.
func Submit(spec *api.Spec, cfg *Config) (*Handle, error) {
	return submit(spec, cfg, submitHooks{})
}

func submit(spec *api.Spec, cfg *Config, hooks submitHooks) (*Handle, error) {
	if spec == nil || spec.Topology == nil {
		return nil, errors.New("heron: nil spec")
	}
	if cfg == nil {
		cfg = NewConfig()
	} else {
		cfg = cfg.Clone()
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if !healthmgr.KnownPolicy(cfg.HealthPolicy) {
		return nil, fmt.Errorf("heron: unknown health policy %q (have %v)",
			cfg.HealthPolicy, healthmgr.Policies())
	}
	if err := spec.Topology.Validate(); err != nil {
		return nil, err
	}

	state, err := statemgr.Open(cfg)
	if err != nil {
		return nil, err
	}
	if names, err := state.ListTopologies(); err == nil {
		for _, n := range names {
			if n == spec.Topology.Name {
				state.Close()
				return nil, fmt.Errorf("heron: topology %q already exists on this state tree: "+
					"a second submission would collide on its statemgr keys and checkpoint namespace; "+
					"kill the running topology first or pick a unique name (%w)", n, core.ErrDuplicateTopology)
			}
		}
	}
	if err := state.SetTopology(spec.Topology); err != nil {
		state.Close()
		return nil, err
	}

	rm, err := core.NewResourceManager(cfg.PackingAlgorithm)
	if err != nil {
		state.Close()
		return nil, err
	}
	if err := rm.Initialize(cfg, spec.Topology); err != nil {
		state.Close()
		return nil, err
	}
	plan, err := rm.Pack()
	if err != nil {
		state.Close()
		return nil, err
	}
	admitted := false
	abort := func() {
		_ = state.DeleteTopology(spec.Topology.Name)
		state.Close()
		if admitted && hooks.onKill != nil {
			hooks.onKill()
		}
	}
	if hooks.admitPlan != nil {
		if err := hooks.admitPlan(plan, cfg.TMasterResources); err != nil {
			abort()
			return nil, err
		}
		admitted = true
	}
	if err := state.SetPackingPlan(spec.Topology.Name, plan); err != nil {
		abort()
		return nil, err
	}

	engine := runtime.NewEngine(cfg, spec)
	cfg.Launcher = engine

	sched, err := core.NewScheduler(cfg.SchedulerName)
	if err != nil {
		abort()
		return nil, err
	}
	if err := sched.Initialize(cfg); err != nil {
		abort()
		return nil, err
	}
	if err := sched.OnSchedule(plan); err != nil {
		sched.Close()
		abort()
		return nil, err
	}
	_ = state.SetSchedulerLocation(core.SchedulerLocation{
		Topology: spec.Topology.Name, Kind: cfg.SchedulerName,
	})
	h := &Handle{
		name: spec.Topology.Name, cfg: cfg, spec: spec,
		state: state, rm: rm, sched: sched, engine: engine,
		admitUpdate: hooks.admitUpdate, onKill: hooks.onKill,
	}
	if cfg.HealthInterval > 0 {
		hm, err := healthmgr.New(healthmgr.Options{
			Topology:        h,
			Policy:          cfg.HealthPolicy,
			Interval:        cfg.HealthInterval,
			AckingEnabled:   cfg.AckingEnabled,
			MaxSpoutPending: cfg.MaxSpoutPending,
			ActionLog:       h.healthActionLog(),
		})
		if err != nil {
			_ = h.Kill()
			return nil, err
		}
		h.health = hm
		hm.Start()
	}
	if cfg.HTTPAddr != "" {
		obs, err := observability.Start(observability.Options{
			Addr:     cfg.HTTPAddr,
			Topology: h.name,
			Views: func() map[string]*metrics.TopologyView {
				return map[string]*metrics.TopologyView{h.name: h.Metrics()}
			},
			Health: func(name string) (any, bool) { return h.healthReport(), name == h.name },
			Pprof:  cfg.HTTPPprof,
		})
		if err != nil {
			_ = h.Kill()
			return nil, fmt.Errorf("heron: observability server: %w", err)
		}
		h.obs = obs
	}
	return h, nil
}

// healthReport is the topology's /health payload, on its own server and
// on a cluster's alike: the health manager's status (when enabled) and
// the control-plane replica status, leader first.
func (h *Handle) healthReport() any {
	r := struct {
		Topology string               `json:"topology"`
		Enabled  bool                 `json:"enabled"`
		Status   *healthmgr.Status    `json:"status,omitempty"`
		Control  []replication.Status `json:"control,omitempty"`
	}{Topology: h.name, Control: h.ControlStatus()}
	if h.health != nil {
		st := h.health.Status()
		r.Enabled, r.Status = true, &st
	}
	return r
}

// HealthStatus returns the health manager's current status (zero value
// when Config.HealthInterval is 0).
func (h *Handle) HealthStatus() healthmgr.Status {
	if h.health == nil {
		return healthmgr.Status{}
	}
	return h.health.Status()
}

// WaitRunning blocks until the topology's plan has been broadcast to
// every container (all Stream Managers registered), or the timeout
// elapses.
func (h *Handle) WaitRunning(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		if tm := h.engine.TMaster(); tm != nil {
			select {
			case <-tm.Ready():
				return nil
			case <-time.After(10 * time.Millisecond):
			}
		} else {
			time.Sleep(5 * time.Millisecond)
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("heron: topology %q not running after %v", h.name, timeout)
		}
	}
}

// Scale adjusts component parallelism on the running topology: the
// Resource Manager repacks with minimal disruption, the Scheduler applies
// the container diff, and the Topology Master rebroadcasts the plan.
func (h *Handle) Scale(changes map[string]int) error {
	if h.killed {
		return errors.New("heron: topology killed")
	}
	current, err := h.state.GetPackingPlan(h.name)
	if err != nil {
		return err
	}
	proposed, err := h.rm.Repack(current, changes)
	if err != nil {
		return err
	}
	if h.admitUpdate != nil {
		// Quota admission before anything mutates: a rejection leaves the
		// topology exactly as it was.
		if err := h.admitUpdate(current, proposed); err != nil {
			return err
		}
	}
	topo, err := h.state.GetTopology(h.name)
	if err != nil {
		return err
	}
	counts := current.ComponentCounts()
	for i := range topo.Components {
		if n, ok := counts[topo.Components[i].Name]; ok {
			topo.Components[i].Parallelism = n
		}
	}
	scaled, err := packing.ScaledTopology(topo, changes)
	if err != nil {
		return err
	}
	if err := h.state.SetTopology(scaled); err != nil {
		return err
	}
	if err := h.state.SetPackingPlan(h.name, proposed); err != nil {
		return err
	}
	if err := h.sched.OnUpdate(core.UpdateRequest{Topology: h.name, Current: current, Proposed: proposed}); err != nil {
		if h.admitUpdate != nil {
			// Give the reservation back; the containers never changed.
			_ = h.admitUpdate(proposed, current)
		}
		return err
	}
	if tm := h.engine.TMaster(); tm != nil {
		tm.Refresh()
	}
	return nil
}

// Restart bounces one container (or all, with containerID -1). With
// checkpointing on, restarting a worker relaunches every worker from the
// last committed checkpoint, as a worker failure does; container 0
// restarts alone.
func (h *Handle) Restart(containerID int32) error {
	if h.killed {
		return errors.New("heron: topology killed")
	}
	return h.sched.OnRestart(core.RestartRequest{Topology: h.name, ContainerID: containerID})
}

// Kill tears the topology down and removes its state.
func (h *Handle) Kill() error {
	if h.killed {
		return nil
	}
	h.killed = true
	if h.health != nil {
		h.health.Stop()
	}
	if h.obs != nil {
		_ = h.obs.Close()
	}
	err := h.sched.OnKill(core.KillRequest{Topology: h.name})
	// Stop the standby pool after the scheduler tore the containers down
	// (with one replica the pool is empty).
	h.engine.StopControl()
	_ = h.sched.Close()
	_ = h.rm.Close()
	_ = h.state.DeleteTopology(h.name)
	_ = h.state.Close()
	if h.cfg.CheckpointInterval > 0 {
		// A killed topology's checkpoints are unreachable; drop them.
		if backend, berr := checkpoint.New(h.cfg.StateBackend); berr == nil {
			if berr = backend.Initialize(h.cfg); berr == nil {
				_ = backend.Dispose(h.name)
				_ = backend.Close()
			}
		}
	}
	if h.onKill != nil {
		h.onKill()
	}
	return err
}

// Name returns the topology name.
func (h *Handle) Name() string { return h.name }

// PackingPlan returns the currently active packing plan.
func (h *Handle) PackingPlan() (*core.PackingPlan, error) {
	return h.state.GetPackingPlan(h.name)
}

// SetMaxSpoutPending retunes the live max-spout-pending window of every
// spout in the running topology (0 = unbounded). This implements the
// paper's Section V-B future work: the parameter can now be driven by
// real-time observations (see the tuning package).
func (h *Handle) SetMaxSpoutPending(n int) error {
	if h.killed {
		return errors.New("heron: topology killed")
	}
	if n < 0 {
		return errors.New("heron: negative max spout pending")
	}
	tm, err := h.leaderTM()
	if err != nil {
		return err
	}
	tm.Tune(n)
	return nil
}

// Metrics returns the topology-wide metrics view: the Topology Master's
// merge of every container's latest pushed snapshot, keyed by the engine
// taxonomy (metrics.MExecuteCount, ...) plus any "user."-prefixed metrics
// registered through api.TopologyContext.Metrics(). The view is a copy —
// safe to read without further synchronization — and reflects the last
// export round (see Config.MetricsExportInterval).
func (h *Handle) Metrics() *metrics.TopologyView {
	var v *metrics.TopologyView
	if tm := h.engine.TMaster(); tm != nil {
		v = tm.MetricsView()
	} else {
		v = metrics.NewView()
	}
	if h.health != nil {
		s := h.health.MetricsSnapshot()
		v.Add(&s)
	}
	h.addControlMetrics(v)
	return v
}

// ObservabilityAddr returns the HTTP introspection server's bound address
// ("" when Config.HTTPAddr was not set).
func (h *Handle) ObservabilityAddr() string {
	if h.obs == nil {
		return ""
	}
	return h.obs.Addr()
}

// Registries exposes the per-container metric registries for measurement
// harnesses (same-process observation; not part of the engine protocol).
func (h *Handle) Registries() map[int32]*metrics.Registry { return h.engine.Registries() }

// SumCounter sums the named taxonomy counter across every task in every
// container, reading the live registries (no export-interval lag).
func (h *Handle) SumCounter(name string) int64 {
	var total int64
	for _, r := range h.engine.Registries() {
		for _, p := range r.Snapshot(0).Counters {
			if p.Name == name {
				total += p.Value
			}
		}
	}
	return total
}

// LatencySnapshots returns every task's snapshot of the named histogram,
// reading the live registries.
func (h *Handle) LatencySnapshots(name string) []metrics.HistogramSnapshot {
	var out []metrics.HistogramSnapshot
	for _, r := range h.engine.Registries() {
		for _, p := range r.Snapshot(0).Histograms {
			if p.Name == name {
				out = append(out, p.HistogramSnapshot)
			}
		}
	}
	return out
}
