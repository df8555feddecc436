// Package scheduler provides the Scheduler module implementations (the
// paper's Section IV-B): the bridge between a packing plan and an
// underlying scheduling framework.
//
// Five of the six registered schedulers are one stateful scheduler, Core,
// over a framework-specific Placement: how one container is placed,
// released and restarted, and where container failures are reported.
//
//   - "local": containers run in-process with no framework, Heron's
//     local mode. No failure events.
//   - "yarn": heterogeneous containers, each asking for exactly its
//     packing-plan requirement, allocated first-fit by the framework.
//   - "mesos": the framework presents resource offers and the scheduler
//     picks one per container.
//   - "slurm": the first placement acquires a fixed node allocation for
//     the whole job (salloc); every container runs inside it.
//   - "multitenant" (registered by internal/multitenant): containers are
//     placed through a shared substrate's fair placer.
//
// The sixth, "aurora", is the paper's stateless scheduler: Aurora's
// supervisor restarts failed containers itself, and only homogeneous
// containers can be allocated. It cannot roll a topology back to one
// checkpoint, so it refuses checkpointed topologies (ErrStateless).
//
// Adding a framework means writing a Placement (or, for a stateless
// framework, the five callbacks) and registering a name — no other module
// changes, which is the extensibility claim this repository demonstrates.
package scheduler

import (
	"errors"
	"fmt"
	"slices"
	"sync"

	"heron/internal/cluster"
	"heron/internal/core"
)

func init() {
	core.RegisterScheduler("local", func() core.Scheduler { return &Core{Placement: &local{}} })
	core.RegisterScheduler("yarn", func() core.Scheduler { return &Core{Placement: &yarn{}} })
	core.RegisterScheduler("mesos", func() core.Scheduler { return &Core{Placement: &mesos{}} })
	core.RegisterScheduler("slurm", func() core.Scheduler { return &Core{Placement: &slurm{}} })
	core.RegisterScheduler("aurora", func() core.Scheduler { return &Aurora{} })
}

// Errors shared by the implementations.
var (
	ErrNoLauncher  = errors.New("scheduler: config has no container launcher")
	ErrNoFramework = errors.New("scheduler: config has no *cluster.Cluster framework")
	ErrNotRunning  = errors.New("scheduler: topology not scheduled")
	// ErrStateless is returned by a stateless scheduler asked to run a
	// checkpointed topology: it cannot relaunch every worker from the
	// same checkpoint, which effectively-once recovery requires.
	ErrStateless = errors.New("scheduler: a stateless scheduler cannot coordinate whole-topology checkpoint recovery")
)

// Placement is the framework-specific part of a scheduler. The Core calls
// it with its lock held, so a placement needs no locking of its own.
type Placement interface {
	// Bind takes the framework handle and launcher from cfg and returns
	// the framework's container event stream and the function that closes
	// it, or a nil stream if the framework reports no failures.
	Bind(cfg *core.Config) (events <-chan cluster.Event, cancel func(), err error)
	// Place acquires a container of res for (topology, id) and launches
	// it. total is the sum of the topology's asks, for frameworks that
	// allocate a whole job up front.
	Place(topology string, id int32, res, total core.Resource) error
	// Release stops a container and frees what it holds. The Core also
	// releases a container that failed, so the placement can forget it.
	Release(topology string, id int32) error
	// Restart stops a container and relaunches it where it runs.
	Restart(topology string, id int32) error
}

// Core is the stateful scheduler over a Placement. It owns the asks of
// every topology, one failure monitor, and checkpoint recovery: with
// CheckpointInterval > 0 a worker failure or restart relaunches every
// worker (relaunchWorkers), while container 0 — the control plane —
// only ever relaunches alone.
type Core struct {
	Placement Placement

	cfg *core.Config
	// mu is held across every operation, so the monitor, Kill, Restart
	// and Update of a topology never interleave.
	mu      sync.Mutex
	asks    map[string]map[int32]core.Resource // topology → container → request, container 0 included
	stopMon func()
	wg      sync.WaitGroup
}

// Initialize implements core.Scheduler and starts the failure monitor if
// the framework reports failures.
func (c *Core) Initialize(cfg *core.Config) error {
	if cfg.Launcher == nil {
		return ErrNoLauncher
	}
	events, cancel, err := c.Placement.Bind(cfg)
	if err != nil {
		return err
	}
	c.cfg = cfg
	c.asks = map[string]map[int32]core.Resource{}
	if events != nil {
		c.stopMon = cancel
		c.wg.Add(1)
		go c.monitor(events)
	}
	return nil
}

// monitor is the failure monitor over the framework's event stream.
func (c *Core) monitor(events <-chan cluster.Event) {
	defer c.wg.Done()
	for ev := range events {
		if ev.Kind == cluster.ContainerFailed {
			c.mu.Lock()
			c.recover(ev.Topology, ev.ContainerID)
			c.mu.Unlock()
		}
	}
}

// recover handles the failure of a managed container: it is released
// (the placement forgets it), then either every worker is relaunched from
// the last committed checkpoint or the failed container alone is
// re-placed.
func (c *Core) recover(topology string, id int32) {
	asks := c.asks[topology]
	if _, managed := asks[id]; !managed {
		return
	}
	_ = c.Placement.Release(topology, id)
	if c.rollsBack(id) {
		_ = c.relaunchWorkers(topology, asks)
		return
	}
	_ = c.place(topology, id)
}

// rollsBack reports whether relaunching container id means relaunching
// every worker: with checkpointing on, a worker's restored state is only
// consistent with the others' if they all restore from the same
// checkpoint. Container 0 hosts the control plane, not state.
func (c *Core) rollsBack(id int32) bool {
	return c.cfg.CheckpointInterval > 0 && id != core.TMasterContainerID
}

// relaunchWorkers is whole-topology rollback. Every worker container is
// released before any is placed again: a survivor's post-checkpoint state
// and in-flight tuples are exactly what a restore must not observe. Then
// each worker of next is placed, and restores from the last committed
// checkpoint as it launches. Container 0 keeps running: it hosts the
// checkpoint coordinator and the plan directory.
func (c *Core) relaunchWorkers(topology string, next map[int32]core.Resource) error {
	for _, id := range workers(c.asks[topology]) {
		_ = c.Placement.Release(topology, id)
	}
	c.asks[topology] = next
	var errs []error
	for _, id := range workers(next) {
		if err := c.place(topology, id); err != nil {
			errs = append(errs, fmt.Errorf("scheduler: relaunching container %d: %w", id, err))
		}
	}
	return errors.Join(errs...)
}

// place places one container at its recorded ask.
func (c *Core) place(topology string, id int32) error {
	var total core.Resource
	asks := c.asks[topology]
	for _, r := range asks {
		total = total.Add(r)
	}
	return c.Placement.Place(topology, id, asks[id], total)
}

// asksOf is a plan's requests: each container's requirement, plus
// container 0's.
func (c *Core) asksOf(p *core.PackingPlan) map[int32]core.Resource {
	asks := map[int32]core.Resource{core.TMasterContainerID: core.DefaultTMasterResources}
	for i := range p.Containers {
		asks[p.Containers[i].ID] = p.Containers[i].Required
	}
	return asks
}

// OnSchedule implements core.Scheduler: container 0 is placed first, then
// the workers in id order.
func (c *Core) OnSchedule(initial *core.PackingPlan) error {
	if c.cfg == nil {
		return errors.New("scheduler: not initialized")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	topo := initial.Topology
	if _, dup := c.asks[topo]; dup {
		return fmt.Errorf("scheduler: topology %q already scheduled", topo)
	}
	c.asks[topo] = c.asksOf(initial)
	for _, id := range sortedIDs(c.asks[topo]) {
		if err := c.place(topo, id); err != nil {
			c.teardown(topo)
			return fmt.Errorf("scheduler: placing container %d: %w", id, err)
		}
	}
	return nil
}

// teardown releases every container of a topology, container 0 last so
// the instances unwind first, and forgets it.
func (c *Core) teardown(topology string) {
	for _, id := range workers(c.asks[topology]) {
		_ = c.Placement.Release(topology, id)
	}
	_ = c.Placement.Release(topology, core.TMasterContainerID)
	delete(c.asks, topology)
}

// managed returns a topology's asks, or ErrNotRunning.
func (c *Core) managed(topology string) (map[int32]core.Resource, error) {
	asks, ok := c.asks[topology]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotRunning, topology)
	}
	return asks, nil
}

// OnKill implements core.Scheduler.
func (c *Core) OnKill(req core.KillRequest) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, err := c.managed(req.Topology); err != nil {
		return err
	}
	c.teardown(req.Topology)
	return nil
}

// OnRestart implements core.Scheduler. Restarting a worker of a
// checkpointed topology relaunches every worker; restarting all
// containers restarts container 0 first.
func (c *Core) OnRestart(req core.RestartRequest) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	asks, err := c.managed(req.Topology)
	if err != nil {
		return err
	}
	ids := []int32{req.ContainerID}
	if req.ContainerID < 0 {
		ids = sortedIDs(asks)
	}
	for _, id := range ids {
		if _, ok := asks[id]; !ok {
			return fmt.Errorf("%w: %s container %d", ErrNotRunning, req.Topology, id)
		}
		if c.rollsBack(id) {
			return c.relaunchWorkers(req.Topology, asks)
		}
		if err := c.Placement.Restart(req.Topology, id); err != nil {
			return err
		}
	}
	return nil
}

// OnUpdate implements core.Scheduler with minimal disruption: removed
// containers are released, added ones placed, changed ones restarted,
// and unchanged ones keep running.
func (c *Core) OnUpdate(req core.UpdateRequest) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	asks, err := c.managed(req.Topology)
	if err != nil {
		return err
	}
	cur, next := planByID(req.Current), planByID(req.Proposed)
	for _, id := range sortedIDs(cur) {
		if _, keep := next[id]; !keep {
			if err := c.Placement.Release(req.Topology, id); err != nil {
				return err
			}
			delete(asks, id)
		}
	}
	for _, id := range sortedIDs(next) {
		nc := next[id]
		oc, existed := cur[id]
		asks[id] = nc.Required
		var err error
		switch {
		case !existed:
			err = c.place(req.Topology, id)
		case instanceFingerprint(oc) != instanceFingerprint(nc):
			err = c.Placement.Restart(req.Topology, id)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// OnQuiescedUpdate implements core.QuiescingScheduler: the proposed plan
// is applied by relaunchWorkers, so every worker stops before any
// container of the proposed plan launches.
func (c *Core) OnQuiescedUpdate(req core.UpdateRequest) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, err := c.managed(req.Topology); err != nil {
		return err
	}
	return c.relaunchWorkers(req.Topology, c.asksOf(req.Proposed))
}

// Close implements core.Scheduler: managed topologies are released and
// the monitor stops.
func (c *Core) Close() error {
	if c.cfg == nil {
		return nil
	}
	c.mu.Lock()
	for topo := range c.asks {
		c.teardown(topo)
	}
	c.mu.Unlock()
	if c.stopMon != nil {
		c.stopMon()
	}
	c.wg.Wait()
	return nil
}

// workers returns the worker container ids of asks in ascending order.
func workers(asks map[int32]core.Resource) []int32 {
	return slices.DeleteFunc(sortedIDs(asks), func(id int32) bool { return id == core.TMasterContainerID })
}

// sortedIDs returns a map's container ids in ascending order.
func sortedIDs[V any](m map[int32]V) []int32 {
	ids := make([]int32, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}

// planByID indexes a plan's containers.
func planByID(p *core.PackingPlan) map[int32]*core.ContainerPlan {
	m := make(map[int32]*core.ContainerPlan, len(p.Containers))
	for i := range p.Containers {
		m[p.Containers[i].ID] = &p.Containers[i]
	}
	return m
}

// instanceFingerprint canonically describes a container's membership so
// updates can tell changed containers from untouched ones.
func instanceFingerprint(c *core.ContainerPlan) string {
	cp := *c
	cp.Instances = append([]core.InstancePlacement(nil), c.Instances...)
	tmp := core.PackingPlan{Containers: []core.ContainerPlan{cp}}
	tmp.Normalize()
	s := ""
	for _, inst := range tmp.Containers[0].Instances {
		s += inst.ID.String() + ";"
	}
	return s
}
