package scheduler

import (
	"fmt"
	"sync"

	"heron/internal/cluster"
	"heron/internal/core"
)

// YARN is the stateful scheduler of Section IV-B: it communicates with
// the (simulated) YARN framework, monitors container state through
// framework events, and on a container failure invokes the commands to
// restart the container and its tasks itself. YARN can allocate
// heterogeneous containers, so each ask equals the plan's per-container
// requirement.
type YARN struct {
	cfg *core.Config
	cl  *cluster.Cluster

	mu      sync.Mutex
	plans   map[string]*core.PackingPlan
	asks    map[string]map[int32]core.Resource // what each container requested
	stopMon func()
	wg      sync.WaitGroup
}

// Initialize implements core.Scheduler and starts the monitoring loop.
func (y *YARN) Initialize(cfg *core.Config) error {
	if cfg.Launcher == nil {
		return ErrNoLauncher
	}
	cl, err := frameworkOf(cfg)
	if err != nil {
		return err
	}
	y.cfg, y.cl = cfg, cl
	y.plans = map[string]*core.PackingPlan{}
	y.asks = map[string]map[int32]core.Resource{}

	events, cancel := cl.Watch()
	y.stopMon = cancel
	y.wg.Add(1)
	go func() {
		defer y.wg.Done()
		for ev := range events {
			if ev.Kind != cluster.ContainerFailed {
				continue
			}
			y.mu.Lock()
			asks, managed := y.asks[ev.Topology]
			var res core.Resource
			if managed {
				res, managed = asks[ev.ContainerID]
			}
			var reqs map[int32]core.Resource
			if managed && y.cfg.CheckpointInterval > 0 && ev.ContainerID != core.TMasterContainerID {
				reqs = make(map[int32]core.Resource, len(asks))
				for id, r := range asks {
					reqs[id] = r
				}
			}
			y.mu.Unlock()
			if !managed {
				continue
			}
			if reqs != nil {
				// Checkpoint recovery: quiesce the whole worker set before
				// anything restarts, then re-request every container; each
				// relaunch restores from the last committed checkpoint. A
				// container-0 death is control-only: a standby or the
				// relaunched candidate takes over, and the workers keep
				// running.
				for _, id := range quiesceWorkers(y.cl, ev.Topology, ev.ContainerID) {
					if r, ok := reqs[id]; ok {
						_ = y.cl.Allocate(ev.Topology, id, r, y.cfg.Launcher, cluster.AllocateOptions{})
					}
				}
				continue
			}
			// Stateful recovery: re-request an equivalent container from
			// the framework (possibly on a different node) and restart its
			// tasks through the launcher.
			_ = y.cl.Allocate(ev.Topology, ev.ContainerID, res, y.cfg.Launcher, cluster.AllocateOptions{})
		}
	}()
	return nil
}

// tmasterAsk is the container-0 request.
func (y *YARN) tmasterAsk() core.Resource {
	if !y.cfg.TMasterResources.IsZero() {
		return y.cfg.TMasterResources
	}
	return core.Resource{CPU: 1, RAMMB: 1024, DiskMB: 1024}
}

// OnSchedule implements core.Scheduler with heterogeneous containers.
func (y *YARN) OnSchedule(initial *core.PackingPlan) error {
	if y.cfg == nil {
		return fmt.Errorf("scheduler: yarn not initialized")
	}
	topo := initial.Topology
	asks := map[int32]core.Resource{core.TMasterContainerID: y.tmasterAsk()}
	for i := range initial.Containers {
		asks[initial.Containers[i].ID] = initial.Containers[i].Required
	}
	y.mu.Lock()
	if _, dup := y.asks[topo]; dup {
		y.mu.Unlock()
		return fmt.Errorf("scheduler: topology %q already scheduled", topo)
	}
	y.asks[topo] = asks
	y.plans[topo] = initial.Clone()
	y.mu.Unlock()
	for _, id := range containerSet(initial) {
		if err := y.cl.Allocate(topo, id, asks[id], y.cfg.Launcher, cluster.AllocateOptions{}); err != nil {
			y.teardown(topo)
			return err
		}
	}
	return nil
}

func (y *YARN) teardown(topology string) {
	y.cl.ReleaseTopology(topology)
	y.mu.Lock()
	delete(y.asks, topology)
	delete(y.plans, topology)
	y.mu.Unlock()
}

// OnKill implements core.Scheduler.
func (y *YARN) OnKill(req core.KillRequest) error {
	y.mu.Lock()
	_, ok := y.asks[req.Topology]
	y.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotRunning, req.Topology)
	}
	y.teardown(req.Topology)
	return nil
}

// OnRestart implements core.Scheduler.
func (y *YARN) OnRestart(req core.RestartRequest) error {
	y.mu.Lock()
	asks, ok := y.asks[req.Topology]
	var ids []int32
	if ok {
		if req.ContainerID >= 0 {
			ids = []int32{req.ContainerID}
		} else {
			for id := range asks {
				ids = append(ids, id)
			}
		}
	}
	y.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotRunning, req.Topology)
	}
	for _, id := range ids {
		if err := y.cl.Restart(req.Topology, id); err != nil {
			return err
		}
	}
	return nil
}

// OnUpdate implements core.Scheduler: new containers are requested from
// the framework, removed ones released, changed ones restarted.
func (y *YARN) OnUpdate(req core.UpdateRequest) error {
	y.mu.Lock()
	asks, ok := y.asks[req.Topology]
	y.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotRunning, req.Topology)
	}
	curByID, newByID := planByID(req.Current), planByID(req.Proposed)
	for id := range curByID {
		if _, keep := newByID[id]; !keep {
			if err := y.cl.Release(req.Topology, id); err != nil {
				return err
			}
			y.mu.Lock()
			delete(asks, id)
			y.mu.Unlock()
		}
	}
	for id, nc := range newByID {
		oc, existed := curByID[id]
		y.mu.Lock()
		asks[id] = nc.Required
		y.mu.Unlock()
		switch {
		case !existed:
			if err := y.cl.Allocate(req.Topology, id, nc.Required, y.cfg.Launcher, cluster.AllocateOptions{}); err != nil {
				return err
			}
		case instanceFingerprint(oc) != instanceFingerprint(nc):
			if err := y.cl.Restart(req.Topology, id); err != nil {
				return err
			}
		}
	}
	y.mu.Lock()
	y.plans[req.Topology] = req.Proposed.Clone()
	y.mu.Unlock()
	return nil
}

// OnQuiescedUpdate implements core.QuiescingScheduler: the whole worker
// set is released back to the framework before the proposed plan's
// containers are requested — the same quiesce-first ordering as
// checkpoint failure recovery, applied to a plan change.
func (y *YARN) OnQuiescedUpdate(req core.UpdateRequest) error {
	y.mu.Lock()
	asks, ok := y.asks[req.Topology]
	y.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotRunning, req.Topology)
	}
	for _, id := range y.cl.Containers(req.Topology) {
		if id == core.TMasterContainerID {
			continue
		}
		_ = y.cl.Release(req.Topology, id)
		y.mu.Lock()
		delete(asks, id)
		y.mu.Unlock()
	}
	for i := range req.Proposed.Containers {
		c := &req.Proposed.Containers[i]
		y.mu.Lock()
		asks[c.ID] = c.Required
		y.mu.Unlock()
		if err := y.cl.Allocate(req.Topology, c.ID, c.Required, y.cfg.Launcher, cluster.AllocateOptions{}); err != nil {
			return fmt.Errorf("scheduler: reallocating container %d: %w", c.ID, err)
		}
	}
	y.mu.Lock()
	y.plans[req.Topology] = req.Proposed.Clone()
	y.mu.Unlock()
	return nil
}

// Close implements core.Scheduler: the monitor stops and managed
// topologies are released.
func (y *YARN) Close() error {
	if y.cfg == nil {
		return nil
	}
	y.mu.Lock()
	var topos []string
	for t := range y.asks {
		topos = append(topos, t)
	}
	y.mu.Unlock()
	for _, t := range topos {
		y.teardown(t)
	}
	if y.stopMon != nil {
		y.stopMon()
	}
	y.wg.Wait()
	return nil
}
