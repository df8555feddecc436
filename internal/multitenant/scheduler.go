package multitenant

import (
	"fmt"
	"sync"

	"heron/internal/cluster"
	"heron/internal/core"
	"heron/internal/packing"
)

func init() {
	core.RegisterScheduler("multitenant", func() core.Scheduler { return &Scheduler{} })
}

// Scheduler is the substrate-facing Scheduler module: a stateful,
// quiescing scheduler in the YARN mold whose containers are acquired
// through the substrate's fair placer (spread + cross-tenant isolation)
// instead of the cluster's first-fit path. One instance manages one
// topology — heron.Cluster creates a fresh one per submission — but the
// bookkeeping is keyed by topology name like every other scheduler, so
// the implementation stays symmetric with them.
type Scheduler struct {
	cfg     *core.Config
	binding *Binding

	mu      sync.Mutex
	plans   map[string]*core.PackingPlan
	asks    map[string]map[int32]core.Resource
	stopMon func()
	wg      sync.WaitGroup
}

// Initialize implements core.Scheduler and starts the failure monitor.
func (s *Scheduler) Initialize(cfg *core.Config) error {
	if cfg.Launcher == nil {
		return fmt.Errorf("multitenant: config has no container launcher")
	}
	b, err := bindingOf(cfg)
	if err != nil {
		return err
	}
	s.cfg, s.binding = cfg, b
	s.plans = map[string]*core.PackingPlan{}
	s.asks = map[string]map[int32]core.Resource{}

	events, cancel := b.Sub.Cluster().Watch()
	s.stopMon = cancel
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for ev := range events {
			if ev.Kind != cluster.ContainerFailed {
				continue
			}
			s.binding.Sub.forgetPlacement(ev.Topology, ev.ContainerID)
			s.mu.Lock()
			asks, managed := s.asks[ev.Topology]
			var res core.Resource
			if managed {
				res, managed = asks[ev.ContainerID]
			}
			var reqs map[int32]core.Resource
			if managed && s.cfg.CheckpointInterval > 0 && ev.ContainerID != core.TMasterContainerID {
				reqs = make(map[int32]core.Resource, len(asks))
				for id, r := range asks {
					reqs[id] = r
				}
			}
			s.mu.Unlock()
			if !managed {
				continue
			}
			if reqs != nil {
				// Checkpoint recovery: quiesce the whole worker set before
				// anything restarts, then re-place every container; each
				// relaunch restores from the last committed checkpoint. A
				// container-0 death is control-only: a standby or the
				// relaunched candidate takes over, and the workers keep
				// running.
				for _, id := range s.quiesce(ev.Topology, ev.ContainerID) {
					if r, ok := reqs[id]; ok {
						_ = s.binding.Sub.allocate(ev.Topology, id, r, s.cfg.Launcher)
					}
				}
				continue
			}
			// Stateful recovery: re-place an equivalent container (possibly
			// on a different node) and restart its tasks.
			_ = s.binding.Sub.allocate(ev.Topology, ev.ContainerID, res, s.cfg.Launcher)
		}
	}()
	return nil
}

// quiesce releases every still-running worker (the TMaster keeps running)
// and returns the sorted container set to relaunch.
func (s *Scheduler) quiesce(topology string, failed int32) []int32 {
	ids := []int32{failed}
	for _, id := range s.binding.Sub.Cluster().Containers(topology) {
		if id == core.TMasterContainerID || id == failed {
			continue
		}
		if err := s.binding.Sub.release(topology, id); err == nil {
			ids = append(ids, id)
		}
	}
	sortInt32s(ids)
	return ids
}

func sortInt32s(ids []int32) {
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && ids[j] < ids[j-1]; j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
}

// tmasterAsk is the container-0 request.
func (s *Scheduler) tmasterAsk() core.Resource {
	if !s.cfg.TMasterResources.IsZero() {
		return s.cfg.TMasterResources
	}
	return core.Resource{CPU: 1, RAMMB: 1024, DiskMB: 1024}
}

// OnSchedule implements core.Scheduler: every container of the initial
// plan is placed through the fair placer, in SortAsks order (one
// topology's asks share priority and share, so the order reduces to
// container id — but the policy is applied uniformly).
func (s *Scheduler) OnSchedule(initial *core.PackingPlan) error {
	if s.cfg == nil {
		return fmt.Errorf("multitenant: scheduler not initialized")
	}
	topo := initial.Topology
	asks := map[int32]core.Resource{core.TMasterContainerID: s.tmasterAsk()}
	for i := range initial.Containers {
		asks[initial.Containers[i].ID] = initial.Containers[i].Required
	}
	s.mu.Lock()
	if _, dup := s.asks[topo]; dup {
		s.mu.Unlock()
		return fmt.Errorf("multitenant: topology %q already scheduled", topo)
	}
	s.asks[topo] = asks
	s.plans[topo] = initial.Clone()
	s.mu.Unlock()

	ordered := make([]packing.Ask, 0, len(asks))
	for id, res := range asks {
		ordered = append(ordered, packing.Ask{
			Tenant: s.binding.Tenant, Req: res,
			Tag: fmt.Sprintf("%s/%08d", topo, id),
		})
	}
	packing.SortAsks(ordered)
	ids := make([]int32, 0, len(ordered))
	for id := range asks {
		ids = append(ids, id)
	}
	sortInt32s(ids)
	for _, id := range ids {
		if err := s.binding.Sub.allocate(topo, id, asks[id], s.cfg.Launcher); err != nil {
			s.teardown(topo)
			return err
		}
	}
	return nil
}

func (s *Scheduler) teardown(topology string) {
	for _, id := range s.binding.Sub.Cluster().Containers(topology) {
		_ = s.binding.Sub.release(topology, id)
	}
	s.mu.Lock()
	delete(s.asks, topology)
	delete(s.plans, topology)
	s.mu.Unlock()
}

// OnKill implements core.Scheduler.
func (s *Scheduler) OnKill(req core.KillRequest) error {
	s.mu.Lock()
	_, ok := s.asks[req.Topology]
	s.mu.Unlock()
	if !ok {
		return fmt.Errorf("multitenant: topology %s not scheduled", req.Topology)
	}
	s.teardown(req.Topology)
	return nil
}

// OnRestart implements core.Scheduler (in-place restart keeps the node).
func (s *Scheduler) OnRestart(req core.RestartRequest) error {
	s.mu.Lock()
	asks, ok := s.asks[req.Topology]
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
	s.mu.Unlock()
	if !ok {
		return fmt.Errorf("multitenant: topology %s not scheduled", req.Topology)
	}
	for _, id := range ids {
		if err := s.binding.Sub.Cluster().Restart(req.Topology, id); err != nil {
			return err
		}
	}
	return nil
}

// OnUpdate implements core.Scheduler: minimal-disruption container diff,
// added containers placed through the fair placer.
func (s *Scheduler) OnUpdate(req core.UpdateRequest) error {
	s.mu.Lock()
	asks, ok := s.asks[req.Topology]
	s.mu.Unlock()
	if !ok {
		return fmt.Errorf("multitenant: topology %s not scheduled", req.Topology)
	}
	curByID := map[int32]*core.ContainerPlan{}
	for i := range req.Current.Containers {
		curByID[req.Current.Containers[i].ID] = &req.Current.Containers[i]
	}
	newByID := map[int32]*core.ContainerPlan{}
	for i := range req.Proposed.Containers {
		newByID[req.Proposed.Containers[i].ID] = &req.Proposed.Containers[i]
	}
	for id := range curByID {
		if _, keep := newByID[id]; !keep {
			if err := s.binding.Sub.release(req.Topology, id); err != nil {
				return err
			}
			s.mu.Lock()
			delete(asks, id)
			s.mu.Unlock()
		}
	}
	for _, id := range sortedIDs(newByID) {
		nc := newByID[id]
		oc, existed := curByID[id]
		s.mu.Lock()
		asks[id] = nc.Required
		s.mu.Unlock()
		switch {
		case !existed:
			if err := s.binding.Sub.allocate(req.Topology, id, nc.Required, s.cfg.Launcher); err != nil {
				return err
			}
		case fingerprint(oc) != fingerprint(nc):
			if err := s.binding.Sub.Cluster().Restart(req.Topology, id); err != nil {
				return err
			}
		}
	}
	s.mu.Lock()
	s.plans[req.Topology] = req.Proposed.Clone()
	s.mu.Unlock()
	return nil
}

// OnQuiescedUpdate implements core.QuiescingScheduler: every worker
// releases before anything from the proposed plan is placed, so stateful
// rescales restore from a single checkpoint generation.
func (s *Scheduler) OnQuiescedUpdate(req core.UpdateRequest) error {
	s.mu.Lock()
	asks, ok := s.asks[req.Topology]
	s.mu.Unlock()
	if !ok {
		return fmt.Errorf("multitenant: topology %s not scheduled", req.Topology)
	}
	for _, id := range s.binding.Sub.Cluster().Containers(req.Topology) {
		if id == core.TMasterContainerID {
			continue
		}
		_ = s.binding.Sub.release(req.Topology, id)
		s.mu.Lock()
		delete(asks, id)
		s.mu.Unlock()
	}
	for i := range req.Proposed.Containers {
		c := &req.Proposed.Containers[i]
		s.mu.Lock()
		asks[c.ID] = c.Required
		s.mu.Unlock()
		if err := s.binding.Sub.allocate(req.Topology, c.ID, c.Required, s.cfg.Launcher); err != nil {
			return fmt.Errorf("multitenant: reallocating container %d: %w", c.ID, err)
		}
	}
	s.mu.Lock()
	s.plans[req.Topology] = req.Proposed.Clone()
	s.mu.Unlock()
	return nil
}

// Close implements core.Scheduler: the monitor stops and managed
// topologies release their containers.
func (s *Scheduler) Close() error {
	if s.cfg == nil {
		return nil
	}
	s.mu.Lock()
	var topos []string
	for t := range s.asks {
		topos = append(topos, t)
	}
	s.mu.Unlock()
	for _, t := range topos {
		s.teardown(t)
	}
	if s.stopMon != nil {
		s.stopMon()
	}
	s.wg.Wait()
	return nil
}

// sortedIDs returns a plan map's container ids in ascending order.
func sortedIDs(m map[int32]*core.ContainerPlan) []int32 {
	ids := make([]int32, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sortInt32s(ids)
	return ids
}

// fingerprint canonically describes a container's membership (same idea
// as the scheduler package's instanceFingerprint, duplicated to avoid an
// import cycle with the registration side).
func fingerprint(c *core.ContainerPlan) string {
	cp := *c
	cp.Instances = append([]core.InstancePlacement(nil), c.Instances...)
	tmp := core.PackingPlan{Containers: []core.ContainerPlan{cp}}
	tmp.Normalize()
	out := ""
	for _, inst := range tmp.Containers[0].Instances {
		out += inst.ID.String() + ";"
	}
	return out
}
