// Package runtime glues the modules into a running topology: it
// implements the ContainerLauncher the Scheduler calls, booting the
// control plane's leader candidate for container 0 (control.go) and a
// Stream Manager + Metrics Manager + Heron Instances for every other
// container, each with its own State Manager session — the per-container
// process group of the paper's Section II.
package runtime

import (
	"fmt"
	"sync"

	"heron/api"
	"heron/internal/checkpoint"
	"heron/internal/core"
	"heron/internal/ctrl"
	"heron/internal/instance"
	"heron/internal/metrics"
	"heron/internal/network"
	"heron/internal/statemgr"
	"heron/internal/stmgr"
	"heron/internal/tmaster"
)

// Engine hosts one submitted topology's containers in this process. It
// implements core.ContainerLauncher.
type Engine struct {
	cfg  *core.Config
	spec *api.Spec

	mu         sync.Mutex
	tm         *tmaster.TMaster
	registries map[int32]*metrics.Registry

	// Control plane replicas (control.go).
	ctrlReplicas []*controlReplica
	poolStarted  bool
}

// NewEngine creates the launcher for one topology.
func NewEngine(cfg *core.Config, spec *api.Spec) *Engine {
	return &Engine{cfg: cfg, spec: spec, registries: map[int32]*metrics.Registry{}}
}

// LaunchContainer implements core.ContainerLauncher.
func (e *Engine) LaunchContainer(topology string, containerID int32) (func(), error) {
	if containerID == core.TMasterContainerID {
		return e.launchControl(topology)
	}
	return e.launchWorker(topology, containerID)
}

func (e *Engine) launchWorker(topology string, containerID int32) (func(), error) {
	state, err := statemgr.Open(e.cfg)
	if err != nil {
		return nil, err
	}
	plan, err := state.GetPackingPlan(topology)
	if err != nil {
		state.Close()
		return nil, fmt.Errorf("runtime: container %d: %w", containerID, err)
	}
	var cp *core.ContainerPlan
	for i := range plan.Containers {
		if plan.Containers[i].ID == containerID {
			cp = &plan.Containers[i]
			break
		}
	}
	if cp == nil {
		state.Close()
		return nil, fmt.Errorf("runtime: container %d not in packing plan", containerID)
	}

	registry := metrics.NewRegistry()
	e.mu.Lock()
	e.registries[containerID] = registry
	e.mu.Unlock()

	// With checkpointing on, every instance of this container shares one
	// backend session, and a (re)launched container restores from the
	// latest globally-committed checkpoint — 0 on a fresh start.
	var ckptBackend checkpoint.Backend
	var restoreID int64
	if e.cfg.CheckpointInterval > 0 {
		ckptBackend, err = checkpoint.New(e.cfg.StateBackend)
		if err != nil {
			state.Close()
			return nil, err
		}
		if err := ckptBackend.Initialize(e.cfg); err != nil {
			state.Close()
			return nil, err
		}
		restoreID, err = ckptBackend.LatestCommitted(topology)
		if err != nil {
			ckptBackend.Close()
			state.Close()
			return nil, err
		}
	}

	sm, err := stmgr.New(stmgr.Options{
		Topology:  topology,
		Container: containerID,
		Cfg:       e.cfg,
		State:     state,
		Registry:  registry,
	})
	if err != nil {
		if ckptBackend != nil {
			_ = ckptBackend.Close()
		}
		state.Close()
		return nil, err
	}

	var instances []*instance.Instance
	for _, placed := range cp.Instances {
		spec := e.spec.Topology.Component(placed.ID.Component)
		if spec == nil {
			continue
		}
		opts := instance.Options{
			Topology:          topology,
			ID:                placed.ID,
			Kind:              spec.Kind,
			Cfg:               e.cfg,
			StmgrAddr:         sm.Addr(),
			Registry:          registry,
			Checkpoint:        ckptBackend,
			RestoreCheckpoint: restoreID,
		}
		switch spec.Kind {
		case core.KindSpout:
			opts.Spout = e.spec.Spouts[placed.ID.Component]()
		case core.KindBolt:
			opts.Bolt = e.spec.Bolts[placed.ID.Component]()
		}
		inst, err := instance.New(opts)
		if err != nil {
			for _, i := range instances {
				i.Stop()
			}
			sm.Stop()
			if ckptBackend != nil {
				_ = ckptBackend.Close()
			}
			state.Close()
			return nil, err
		}
		instances = append(instances, inst)
	}

	// The container's Metrics Manager pushes snapshots to the TMaster.
	interval := e.cfg.MetricsExportInterval
	if interval <= 0 {
		interval = core.DefaultMetricsExportInterval
	}
	sink, closeSink := e.metricsSink(topology, containerID, state)
	mm := metrics.NewManager(containerID, registry, interval, sink)

	mm.Start()
	return func() {
		mm.Stop()
		closeSink()
		for _, i := range instances {
			i.Stop()
		}
		sm.Stop()
		if ckptBackend != nil {
			_ = ckptBackend.Close()
		}
		state.Close()
		// Identity-guarded: a relaunch of this container id may already
		// have installed a fresh registry.
		e.mu.Lock()
		if e.registries[containerID] == registry {
			delete(e.registries, containerID)
		}
		e.mu.Unlock()
	}, nil
}

// metricsSink returns the Metrics Manager's export function — it dials the
// TMaster lazily and pushes typed snapshots over a control connection —
// and the function that closes that connection, which container teardown
// calls once the Metrics Manager has stopped.
func (e *Engine) metricsSink(topology string, containerID int32, state *statemgr.Manager) (sink func(metrics.Snapshot), closeSink func()) {
	var mu sync.Mutex
	var conn network.Conn
	closeSink = func() {
		mu.Lock()
		defer mu.Unlock()
		if conn != nil {
			conn.Close()
			conn = nil
		}
	}
	return func(s metrics.Snapshot) {
		msg, err := ctrl.Encode(&ctrl.Message{
			Op: ctrl.OpMetrics, Topology: topology,
			Container: containerID, Metrics: &s,
		})
		if err != nil {
			return
		}
		mu.Lock()
		defer mu.Unlock()
		if conn == nil {
			loc, err := state.GetTMasterLocation(topology)
			if err != nil {
				return
			}
			tr, err := network.ByName(loc.Transport)
			if err != nil {
				return
			}
			c, err := tr.Dial(loc.Addr)
			if err != nil {
				return
			}
			c.Start(func(network.MsgKind, []byte) {})
			conn = c
		}
		if err := conn.Send(network.MsgControl, msg); err != nil {
			conn.Close()
			conn = nil
		}
	}, closeSink
}

// TMaster returns the leading Topology Master, if a replica hosted here
// leads (nil during a failover window).
func (e *Engine) TMaster() *tmaster.TMaster {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.tm
}

// Registry returns a container's metrics registry (harness access).
func (e *Engine) Registry(containerID int32) *metrics.Registry {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.registries[containerID]
}

// Registries snapshots the container → registry map.
func (e *Engine) Registries() map[int32]*metrics.Registry {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make(map[int32]*metrics.Registry, len(e.registries))
	for c, r := range e.registries {
		out[c] = r
	}
	return out
}
