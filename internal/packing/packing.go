// Package packing provides the Resource Manager implementations (the
// paper's Section IV-A): algorithms that map Heron Instances to containers,
// producing the packing plan the Scheduler turns into framework resources.
//
// Two policies ship, matching the paper's examples:
//
//   - "roundrobin" optimizes for load balancing: instances are dealt
//     across a fixed number of containers like cards.
//   - "binpacking" optimizes for total cost in pay-as-you-go environments:
//     a First-Fit-Decreasing heuristic that minimizes the number of
//     containers subject to a per-container capacity.
//
// Both implement Repack for topology scaling with the paper's stated
// goals: minimize disruption to existing placements, balance the newly
// added instances, and exploit free space in already-provisioned
// containers. User-defined policies register the same way (see
// core.RegisterResourceManager).
package packing

import (
	"errors"
	"fmt"
	"sort"

	"heron/internal/core"
)

func init() {
	core.RegisterResourceManager("roundrobin", func() core.ResourceManager { return &RoundRobin{} })
	core.RegisterResourceManager("binpacking", func() core.ResourceManager { return &BinPacking{} })
}

// ErrNotInitialized is returned when Pack or Repack precede Initialize.
var ErrNotInitialized = errors.New("packing: resource manager not initialized")

// instanceRequest resolves a component's per-instance ask, falling back to
// core.DefaultInstanceResources.
func instanceRequest(spec *core.ComponentSpec) core.Resource {
	if !spec.Resources.IsZero() {
		return spec.Resources
	}
	return core.DefaultInstanceResources
}

// pendingInstance is an instance awaiting placement.
type pendingInstance struct {
	id  core.InstanceID
	res core.Resource
}

// enumerate lists every instance of the topology in declaration order with
// dense task ids, the canonical ordering both algorithms share.
func enumerate(t *core.Topology) []pendingInstance {
	var out []pendingInstance
	var task int32
	for i := range t.Components {
		spec := &t.Components[i]
		res := instanceRequest(spec)
		for idx := 0; idx < spec.Parallelism; idx++ {
			out = append(out, pendingInstance{
				id:  core.InstanceID{Component: spec.Name, ComponentIndex: int32(idx), TaskID: task},
				res: res,
			})
			task++
		}
	}
	return out
}

// finalize computes each container's Required ask (instances + overhead)
// and returns the normalized plan.
func finalize(cfg *core.Config, topology string, containers []core.ContainerPlan) *core.PackingPlan {
	overhead := cfg.ContainerOverhead
	if overhead.IsZero() {
		overhead = core.DefaultContainerOverhead
	}
	out := make([]core.ContainerPlan, 0, len(containers))
	for _, c := range containers {
		if len(c.Instances) == 0 {
			continue // never ask for empty containers
		}
		c.Required = c.InstanceSum().Add(overhead)
		out = append(out, c)
	}
	p := &core.PackingPlan{Topology: topology, Containers: out}
	p.Normalize()
	return p
}

// RoundRobin deals instances across cfg.NumContainers containers,
// optimizing for even load.
type RoundRobin struct {
	cfg  *core.Config
	topo *core.Topology
}

// Initialize implements core.ResourceManager.
func (r *RoundRobin) Initialize(cfg *core.Config, topo *core.Topology) error {
	if err := topo.Validate(); err != nil {
		return err
	}
	if cfg.NumContainers < 1 {
		return fmt.Errorf("packing: roundrobin needs NumContainers ≥ 1, got %d", cfg.NumContainers)
	}
	r.cfg, r.topo = cfg, topo
	return nil
}

// Pack implements core.ResourceManager.
func (r *RoundRobin) Pack() (*core.PackingPlan, error) {
	if r.cfg == nil {
		return nil, ErrNotInitialized
	}
	n := r.cfg.NumContainers
	if total := r.topo.TotalInstances(); n > total {
		n = total // no empty containers
	}
	containers := make([]core.ContainerPlan, n)
	for i := range containers {
		containers[i].ID = int32(i + 1)
	}
	for i, inst := range enumerate(r.topo) {
		c := &containers[i%n]
		c.Instances = append(c.Instances, core.InstancePlacement{ID: inst.id, Resources: inst.res})
	}
	plan := finalize(r.cfg, r.topo.Name, containers)
	if err := plan.Validate(r.topo); err != nil {
		return nil, fmt.Errorf("packing: roundrobin produced invalid plan: %w", err)
	}
	return plan, nil
}

// Repack implements core.ResourceManager: removed instances are the
// highest component indices; added instances go to the containers with
// the fewest instances first (load balance), without moving anything that
// already has a home.
func (r *RoundRobin) Repack(current *core.PackingPlan, changes map[string]int) (*core.PackingPlan, error) {
	if r.cfg == nil {
		return nil, ErrNotInitialized
	}
	return repack(r.cfg, r.topo, current, changes, nil)
}

// Close implements core.ResourceManager.
func (r *RoundRobin) Close() error { return nil }

// BinPacking minimizes container count with First-Fit-Decreasing: sort
// instances by RAM descending, place each in the first container with
// room, opening a new container only when none fits.
type BinPacking struct {
	cfg  *core.Config
	topo *core.Topology
	cap  core.Resource
}

// DefaultContainerCapacity bounds a bin-packed container when the
// configuration does not say otherwise.
var DefaultContainerCapacity = core.Resource{CPU: 8, RAMMB: 8192, DiskMB: 16384}

// Initialize implements core.ResourceManager.
func (b *BinPacking) Initialize(cfg *core.Config, topo *core.Topology) error {
	if err := topo.Validate(); err != nil {
		return err
	}
	b.cfg, b.topo = cfg, topo
	b.cap = cfg.ContainerCapacity
	if b.cap.IsZero() {
		b.cap = DefaultContainerCapacity
	}
	overhead := cfg.ContainerOverhead
	if overhead.IsZero() {
		overhead = core.DefaultContainerOverhead
	}
	usable := b.cap.Sub(overhead)
	for i := range topo.Components {
		if req := instanceRequest(&topo.Components[i]); !req.Fits(usable) {
			return fmt.Errorf("packing: instance of %q needs %v, exceeds usable container capacity %v",
				topo.Components[i].Name, req, usable)
		}
	}
	return nil
}

// usableCapacity is the instance budget of one container (capacity minus
// the stream/metrics manager overhead).
func (b *BinPacking) usableCapacity() core.Resource {
	overhead := b.cfg.ContainerOverhead
	if overhead.IsZero() {
		overhead = core.DefaultContainerOverhead
	}
	return b.cap.Sub(overhead)
}

// Pack implements core.ResourceManager.
func (b *BinPacking) Pack() (*core.PackingPlan, error) {
	if b.cfg == nil {
		return nil, ErrNotInitialized
	}
	instances := enumerate(b.topo)
	// First-Fit-Decreasing: big rocks first.
	sort.SliceStable(instances, func(i, j int) bool {
		if instances[i].res.RAMMB != instances[j].res.RAMMB {
			return instances[i].res.RAMMB > instances[j].res.RAMMB
		}
		return instances[i].res.CPU > instances[j].res.CPU
	})
	usable := b.usableCapacity()
	var containers []core.ContainerPlan
	var loads []core.Resource
	for _, inst := range instances {
		placed := false
		for i := range containers {
			if next := loads[i].Add(inst.res); next.Fits(usable) {
				containers[i].Instances = append(containers[i].Instances, core.InstancePlacement{ID: inst.id, Resources: inst.res})
				loads[i] = next
				placed = true
				break
			}
		}
		if !placed {
			containers = append(containers, core.ContainerPlan{
				ID:        int32(len(containers) + 1),
				Instances: []core.InstancePlacement{{ID: inst.id, Resources: inst.res}},
			})
			loads = append(loads, inst.res)
		}
	}
	plan := finalize(b.cfg, b.topo.Name, containers)
	if err := plan.Validate(b.topo); err != nil {
		return nil, fmt.Errorf("packing: binpacking produced invalid plan: %w", err)
	}
	return plan, nil
}

// Repack implements core.ResourceManager, constrained by the container
// capacity: free space in provisioned containers is used first, new
// containers open only when nothing fits.
func (b *BinPacking) Repack(current *core.PackingPlan, changes map[string]int) (*core.PackingPlan, error) {
	if b.cfg == nil {
		return nil, ErrNotInitialized
	}
	usable := b.usableCapacity()
	return repack(b.cfg, b.topo, current, changes, &usable)
}

// Close implements core.ResourceManager.
func (b *BinPacking) Close() error { return nil }

// repack implements the shared minimal-disruption scaling algorithm.
// capacity nil means containers have unbounded room (round-robin mode);
// otherwise no container may exceed it.
//
// The scaled topology (for validation) is derived by applying changes to
// topo; callers persist it alongside the plan.
func repack(cfg *core.Config, topo *core.Topology, current *core.PackingPlan, changes map[string]int, capacity *core.Resource) (*core.PackingPlan, error) {
	// Baseline parallelism comes from the plan being adjusted, not the
	// originally submitted topology: scaling operations compose.
	baseline := &core.Topology{Name: topo.Name, Components: make([]core.ComponentSpec, len(topo.Components))}
	copy(baseline.Components, topo.Components)
	counts := current.ComponentCounts()
	for i := range baseline.Components {
		if n, ok := counts[baseline.Components[i].Name]; ok {
			baseline.Components[i].Parallelism = n
		}
	}
	scaled, err := ScaledTopology(baseline, changes)
	if err != nil {
		return nil, err
	}
	plan := current.Clone()

	// Pass 1: shrinkage — drop the highest component indices.
	for comp, newPar := range changes {
		for ci := range plan.Containers {
			kept := plan.Containers[ci].Instances[:0]
			for _, inst := range plan.Containers[ci].Instances {
				if inst.ID.Component == comp && int(inst.ID.ComponentIndex) >= newPar {
					continue
				}
				kept = append(kept, inst)
			}
			plan.Containers[ci].Instances = kept
		}
	}

	// Pass 2: growth — new indices above the current maximum.
	nextTask := int32(0)
	for _, c := range plan.Containers {
		for _, inst := range c.Instances {
			if inst.ID.TaskID >= nextTask {
				nextTask = inst.ID.TaskID + 1
			}
		}
	}
	var additions []pendingInstance
	for comp, newPar := range changes {
		spec := scaled.Component(comp)
		if spec == nil {
			return nil, fmt.Errorf("packing: scaling unknown component %q", comp)
		}
		have := map[int32]bool{}
		for _, c := range plan.Containers {
			for _, inst := range c.Instances {
				if inst.ID.Component == comp {
					have[inst.ID.ComponentIndex] = true
				}
			}
		}
		res := instanceRequest(spec)
		for idx := 0; idx < newPar; idx++ {
			if !have[int32(idx)] {
				additions = append(additions, pendingInstance{
					id:  core.InstanceID{Component: comp, ComponentIndex: int32(idx), TaskID: nextTask},
					res: res,
				})
				nextTask++
			}
		}
	}
	// Biggest additions first so capacity fragments less.
	sort.SliceStable(additions, func(i, j int) bool { return additions[i].res.RAMMB > additions[j].res.RAMMB })

	loads := make([]core.Resource, len(plan.Containers))
	for i := range plan.Containers {
		loads[i] = plan.Containers[i].InstanceSum()
	}
	nextContainer := int32(0)
	for _, c := range plan.Containers {
		if c.ID >= nextContainer {
			nextContainer = c.ID + 1
		}
	}
	for _, add := range additions {
		// Least-loaded-first among containers with room: balances the new
		// instances while exploiting provisioned free space.
		best := -1
		for i := range plan.Containers {
			if capacity != nil && !loads[i].Add(add.res).Fits(*capacity) {
				continue
			}
			if best == -1 || len(plan.Containers[i].Instances) < len(plan.Containers[best].Instances) {
				best = i
			}
		}
		if best == -1 {
			plan.Containers = append(plan.Containers, core.ContainerPlan{ID: nextContainer})
			loads = append(loads, core.Resource{})
			best = len(plan.Containers) - 1
			nextContainer++
		}
		plan.Containers[best].Instances = append(plan.Containers[best].Instances,
			core.InstancePlacement{ID: add.id, Resources: add.res})
		loads[best] = loads[best].Add(add.res)
	}

	out := finalize(cfg, plan.Topology, plan.Containers)
	if err := out.Validate(scaled); err != nil {
		return nil, fmt.Errorf("packing: repack produced invalid plan: %w", err)
	}
	return out, nil
}

// ScaledTopology returns a copy of t with the parallelism changes applied,
// the logical plan matching a repacked physical plan.
func ScaledTopology(t *core.Topology, changes map[string]int) (*core.Topology, error) {
	out := &core.Topology{Name: t.Name, Components: make([]core.ComponentSpec, len(t.Components))}
	copy(out.Components, t.Components)
	for comp, p := range changes {
		spec := out.Component(comp)
		if spec == nil {
			return nil, fmt.Errorf("packing: scaling unknown component %q", comp)
		}
		if p < 1 {
			return nil, fmt.Errorf("packing: component %q scaled to parallelism %d", comp, p)
		}
		spec.Parallelism = p
	}
	return out, nil
}
