package scheduler

import (
	"fmt"
	"sync"

	"heron/internal/cluster"
	"heron/internal/core"
)

// Aurora is the stateless scheduler of Section IV-B: once containers are
// handed to the framework it does not track their state — Aurora's own
// supervisor restarts failed containers and their tasks. Aurora can only
// allocate homogeneous containers, so every container (including the
// TMaster's) asks for the plan's component-wise maximum requirement.
//
// A supervisor that restarts one container cannot roll the others back
// to the checkpoint it restores from, so a checkpointed topology is
// refused (ErrStateless).
type Aurora struct {
	cfg *core.Config
	cl  *cluster.Cluster

	mu    sync.Mutex
	sizes map[string]core.Resource // homogeneous ask per topology
}

// Initialize implements core.Scheduler. No monitor is started: the
// framework owns failure recovery.
func (a *Aurora) Initialize(cfg *core.Config) error {
	if cfg.Launcher == nil {
		return ErrNoLauncher
	}
	cl, ok := cfg.Framework.(*cluster.Cluster)
	if !ok || cl == nil {
		return ErrNoFramework
	}
	if cfg.CheckpointInterval > 0 {
		return ErrStateless
	}
	a.cfg, a.cl = cfg, cl
	a.sizes = map[string]core.Resource{}
	return nil
}

// homogeneousAsk sizes every container of a plan identically.
func (a *Aurora) homogeneousAsk(p *core.PackingPlan) core.Resource {
	return p.MaxRequired().Max(core.DefaultTMasterResources)
}

// allocate hands one container to the framework with auto-restart on.
func (a *Aurora) allocate(topology string, id int32, ask core.Resource) error {
	return a.cl.Allocate(topology, id, ask, a.cfg.Launcher, cluster.AllocateOptions{AutoRestart: true})
}

// OnSchedule implements core.Scheduler with homogeneous containers and
// framework-side auto-restart.
func (a *Aurora) OnSchedule(initial *core.PackingPlan) error {
	if a.cfg == nil {
		return fmt.Errorf("scheduler: aurora not initialized")
	}
	topo := initial.Topology
	ask := a.homogeneousAsk(initial)
	a.mu.Lock()
	if _, dup := a.sizes[topo]; dup {
		a.mu.Unlock()
		return fmt.Errorf("scheduler: topology %q already scheduled", topo)
	}
	a.sizes[topo] = ask
	a.mu.Unlock()
	ids := append([]int32{core.TMasterContainerID}, sortedIDs(planByID(initial))...)
	for _, id := range ids {
		if err := a.allocate(topo, id, ask); err != nil {
			a.cl.ReleaseTopology(topo)
			a.mu.Lock()
			delete(a.sizes, topo)
			a.mu.Unlock()
			return err
		}
	}
	return nil
}

// OnKill implements core.Scheduler.
func (a *Aurora) OnKill(req core.KillRequest) error {
	a.mu.Lock()
	_, ok := a.sizes[req.Topology]
	delete(a.sizes, req.Topology)
	a.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotRunning, req.Topology)
	}
	a.cl.ReleaseTopology(req.Topology)
	return nil
}

// OnRestart implements core.Scheduler by asking the framework to bounce
// the containers.
func (a *Aurora) OnRestart(req core.RestartRequest) error {
	a.mu.Lock()
	_, ok := a.sizes[req.Topology]
	a.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotRunning, req.Topology)
	}
	if req.ContainerID >= 0 {
		return a.cl.Restart(req.Topology, req.ContainerID)
	}
	for _, id := range a.cl.Containers(req.Topology) {
		if err := a.cl.Restart(req.Topology, id); err != nil {
			return err
		}
	}
	return nil
}

// OnUpdate implements core.Scheduler. If the homogeneous size grew, every
// container must be re-requested at the new size; otherwise only
// membership changes are applied.
func (a *Aurora) OnUpdate(req core.UpdateRequest) error {
	a.mu.Lock()
	oldAsk, ok := a.sizes[req.Topology]
	a.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotRunning, req.Topology)
	}
	newAsk := a.homogeneousAsk(req.Proposed)
	resize := !newAsk.Fits(oldAsk) // grew in some dimension

	curByID, newByID := planByID(req.Current), planByID(req.Proposed)
	for id := range curByID {
		if _, keep := newByID[id]; !keep {
			if err := a.cl.Release(req.Topology, id); err != nil {
				return err
			}
		}
	}
	ask := oldAsk
	if resize {
		ask = newAsk
	}
	for id, nc := range newByID {
		oc, existed := curByID[id]
		switch {
		case !existed:
			if err := a.allocate(req.Topology, id, ask); err != nil {
				return err
			}
		case resize:
			// Homogeneous resize: replace the reservation.
			if err := a.cl.Release(req.Topology, id); err != nil {
				return err
			}
			if err := a.allocate(req.Topology, id, ask); err != nil {
				return err
			}
		case instanceFingerprint(oc) != instanceFingerprint(nc):
			if err := a.cl.Restart(req.Topology, id); err != nil {
				return err
			}
		}
	}
	if resize {
		// Container 0 as well.
		if err := a.cl.Release(req.Topology, core.TMasterContainerID); err == nil {
			if err := a.allocate(req.Topology, core.TMasterContainerID, ask); err != nil {
				return err
			}
		}
	}
	a.mu.Lock()
	a.sizes[req.Topology] = ask
	a.mu.Unlock()
	return nil
}

// Close implements core.Scheduler.
func (a *Aurora) Close() error {
	if a.cfg == nil {
		return nil
	}
	a.mu.Lock()
	var topos []string
	for t := range a.sizes {
		topos = append(topos, t)
	}
	a.sizes = map[string]core.Resource{}
	a.mu.Unlock()
	for _, t := range topos {
		a.cl.ReleaseTopology(t)
	}
	return nil
}
