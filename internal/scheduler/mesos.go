package scheduler

import (
	"fmt"
	"sync"

	"heron/internal/cluster"
	"heron/internal/core"
)

// Mesos is the offer-based scheduler the paper lists as a community
// extension in progress ("the Heron community is currently extending the
// Scheduler component ... for various other frameworks such as Mesos").
// It demonstrates the architecture's claim: a framework with a different
// allocation model — the framework presents resource *offers* and the
// scheduler decides placement, instead of submitting asks — plugs in by
// implementing the same five callbacks, with no changes elsewhere.
//
// Like YARN it is stateful: task-lost events are delivered to the
// framework scheduler, which must re-place the container on a fresh
// offer.
type Mesos struct {
	cfg *core.Config
	cl  *cluster.Cluster

	mu      sync.Mutex
	plans   map[string]*core.PackingPlan
	asks    map[string]map[int32]core.Resource
	stopMon func()
	wg      sync.WaitGroup
}

func init() {
	core.RegisterScheduler("mesos", func() core.Scheduler { return &Mesos{} })
}

// Initialize implements core.Scheduler and subscribes to task-lost
// events.
func (m *Mesos) Initialize(cfg *core.Config) error {
	if cfg.Launcher == nil {
		return ErrNoLauncher
	}
	cl, err := frameworkOf(cfg)
	if err != nil {
		return err
	}
	m.cfg, m.cl = cfg, cl
	m.plans = map[string]*core.PackingPlan{}
	m.asks = map[string]map[int32]core.Resource{}

	events, cancel := cl.Watch()
	m.stopMon = cancel
	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		for ev := range events {
			if ev.Kind != cluster.ContainerFailed {
				continue
			}
			m.mu.Lock()
			asks, managed := m.asks[ev.Topology]
			var res core.Resource
			if managed {
				res, managed = asks[ev.ContainerID]
			}
			var reqs map[int32]core.Resource
			if managed && m.cfg.CheckpointInterval > 0 && ev.ContainerID != core.TMasterContainerID {
				reqs = make(map[int32]core.Resource, len(asks))
				for id, r := range asks {
					reqs[id] = r
				}
			}
			m.mu.Unlock()
			if !managed {
				continue
			}
			if reqs != nil {
				// Checkpoint recovery: quiesce the whole worker set, then
				// re-place every container on fresh offers; each relaunch
				// restores from the last committed checkpoint. A container-0
				// death is control-only: a standby or the relaunched
				// candidate takes over, and the workers keep running.
				for _, id := range quiesceWorkers(m.cl, ev.Topology, ev.ContainerID) {
					if r, ok := reqs[id]; ok {
						_ = m.placeOnOffer(ev.Topology, id, r)
					}
				}
				continue
			}
			// Re-place on a fresh offer.
			_ = m.placeOnOffer(ev.Topology, ev.ContainerID, res)
		}
	}()
	return nil
}

// placeOnOffer picks the best current offer for a container and accepts
// it: the scheduler-side placement decision of the Mesos model.
func (m *Mesos) placeOnOffer(topology string, id int32, res core.Resource) error {
	for _, offer := range m.cl.Offers() {
		if res.Fits(offer.Free) {
			err := m.cl.AllocateOn(offer.Node, topology, id, res, m.cfg.Launcher, cluster.AllocateOptions{})
			if err == nil {
				return nil
			}
			// A racing allocation can invalidate the offer; try the next.
		}
	}
	return fmt.Errorf("scheduler: no offer fits %v for %s/%d", res, topology, id)
}

func (m *Mesos) tmasterAsk() core.Resource {
	if !m.cfg.TMasterResources.IsZero() {
		return m.cfg.TMasterResources
	}
	return core.Resource{CPU: 1, RAMMB: 1024, DiskMB: 1024}
}

// OnSchedule implements core.Scheduler: every container is placed by
// accepting an offer.
func (m *Mesos) OnSchedule(initial *core.PackingPlan) error {
	if m.cfg == nil {
		return fmt.Errorf("scheduler: mesos not initialized")
	}
	topo := initial.Topology
	asks := map[int32]core.Resource{core.TMasterContainerID: m.tmasterAsk()}
	for i := range initial.Containers {
		asks[initial.Containers[i].ID] = initial.Containers[i].Required
	}
	m.mu.Lock()
	if _, dup := m.asks[topo]; dup {
		m.mu.Unlock()
		return fmt.Errorf("scheduler: topology %q already scheduled", topo)
	}
	m.asks[topo] = asks
	m.plans[topo] = initial.Clone()
	m.mu.Unlock()
	for _, id := range containerSet(initial) {
		if err := m.placeOnOffer(topo, id, asks[id]); err != nil {
			m.teardown(topo)
			return err
		}
	}
	return nil
}

func (m *Mesos) teardown(topology string) {
	m.cl.ReleaseTopology(topology)
	m.mu.Lock()
	delete(m.asks, topology)
	delete(m.plans, topology)
	m.mu.Unlock()
}

// OnKill implements core.Scheduler.
func (m *Mesos) OnKill(req core.KillRequest) error {
	m.mu.Lock()
	_, ok := m.asks[req.Topology]
	m.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotRunning, req.Topology)
	}
	m.teardown(req.Topology)
	return nil
}

// OnRestart implements core.Scheduler.
func (m *Mesos) OnRestart(req core.RestartRequest) error {
	m.mu.Lock()
	asks, ok := m.asks[req.Topology]
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
	m.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotRunning, req.Topology)
	}
	for _, id := range ids {
		if err := m.cl.Restart(req.Topology, id); err != nil {
			return err
		}
	}
	return nil
}

// OnUpdate implements core.Scheduler with offer-based placement for the
// added containers.
func (m *Mesos) OnUpdate(req core.UpdateRequest) error {
	m.mu.Lock()
	asks, ok := m.asks[req.Topology]
	m.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotRunning, req.Topology)
	}
	curByID, newByID := planByID(req.Current), planByID(req.Proposed)
	for id := range curByID {
		if _, keep := newByID[id]; !keep {
			if err := m.cl.Release(req.Topology, id); err != nil {
				return err
			}
			m.mu.Lock()
			delete(asks, id)
			m.mu.Unlock()
		}
	}
	for id, nc := range newByID {
		oc, existed := curByID[id]
		m.mu.Lock()
		asks[id] = nc.Required
		m.mu.Unlock()
		switch {
		case !existed:
			if err := m.placeOnOffer(req.Topology, id, nc.Required); err != nil {
				return err
			}
		case instanceFingerprint(oc) != instanceFingerprint(nc):
			if err := m.cl.Restart(req.Topology, id); err != nil {
				return err
			}
		}
	}
	m.mu.Lock()
	m.plans[req.Topology] = req.Proposed.Clone()
	m.mu.Unlock()
	return nil
}

// OnQuiescedUpdate implements core.QuiescingScheduler: every worker
// container is released (returning its resources to the offer pool)
// before the proposed plan's containers are re-placed on fresh offers.
func (m *Mesos) OnQuiescedUpdate(req core.UpdateRequest) error {
	m.mu.Lock()
	asks, ok := m.asks[req.Topology]
	m.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotRunning, req.Topology)
	}
	for _, id := range m.cl.Containers(req.Topology) {
		if id == core.TMasterContainerID {
			continue
		}
		_ = m.cl.Release(req.Topology, id)
		m.mu.Lock()
		delete(asks, id)
		m.mu.Unlock()
	}
	for i := range req.Proposed.Containers {
		c := &req.Proposed.Containers[i]
		m.mu.Lock()
		asks[c.ID] = c.Required
		m.mu.Unlock()
		if err := m.placeOnOffer(req.Topology, c.ID, c.Required); err != nil {
			return fmt.Errorf("scheduler: re-placing container %d: %w", c.ID, err)
		}
	}
	m.mu.Lock()
	m.plans[req.Topology] = req.Proposed.Clone()
	m.mu.Unlock()
	return nil
}

// Close implements core.Scheduler.
func (m *Mesos) Close() error {
	if m.cfg == nil {
		return nil
	}
	m.mu.Lock()
	var topos []string
	for t := range m.asks {
		topos = append(topos, t)
	}
	m.mu.Unlock()
	for _, t := range topos {
		m.teardown(t)
	}
	if m.stopMon != nil {
		m.stopMon()
	}
	m.wg.Wait()
	return nil
}
