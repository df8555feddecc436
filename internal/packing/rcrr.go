package packing

import (
	"fmt"

	"heron/internal/core"
)

func init() {
	core.RegisterResourceManager("rcrr", func() core.ResourceManager { return &ResourceCompliantRR{} })
}

// ResourceCompliantRR is the third packing policy real Heron ships
// (ResourceCompliantRRPacking): round-robin placement like RoundRobin, but
// bounded by a per-container capacity like BinPacking. When the next
// instance in rotation does not fit its container, the rotation skips
// forward, and a fresh container opens once nothing fits anywhere — load
// balance first, cost second.
type ResourceCompliantRR struct {
	cfg  *core.Config
	topo *core.Topology
	cap  core.Resource
}

// Initialize implements core.ResourceManager.
func (r *ResourceCompliantRR) Initialize(cfg *core.Config, topo *core.Topology) error {
	if err := topo.Validate(); err != nil {
		return err
	}
	if cfg.NumContainers < 1 {
		return fmt.Errorf("packing: rcrr needs NumContainers ≥ 1, got %d", cfg.NumContainers)
	}
	r.cfg, r.topo = cfg, topo
	r.cap = cfg.ContainerCapacity
	if r.cap.IsZero() {
		r.cap = DefaultContainerCapacity
	}
	overhead := cfg.ContainerOverhead
	if overhead.IsZero() {
		overhead = core.DefaultContainerOverhead
	}
	usable := r.cap.Sub(overhead)
	for i := range topo.Components {
		if req := instanceRequest(&topo.Components[i]); !req.Fits(usable) {
			return fmt.Errorf("packing: instance of %q needs %v, exceeds usable container capacity %v",
				topo.Components[i].Name, req, usable)
		}
	}
	return nil
}

func (r *ResourceCompliantRR) usableCapacity() core.Resource {
	overhead := r.cfg.ContainerOverhead
	if overhead.IsZero() {
		overhead = core.DefaultContainerOverhead
	}
	return r.cap.Sub(overhead)
}

// Pack implements core.ResourceManager: deal instances round-robin over
// NumContainers containers, skipping full ones and opening new containers
// only when the whole ring is full.
func (r *ResourceCompliantRR) Pack() (*core.PackingPlan, error) {
	if r.cfg == nil {
		return nil, ErrNotInitialized
	}
	usable := r.usableCapacity()
	n := r.cfg.NumContainers
	if total := r.topo.TotalInstances(); n > total {
		n = total
	}
	containers := make([]core.ContainerPlan, n)
	loads := make([]core.Resource, n)
	for i := range containers {
		containers[i].ID = int32(i + 1)
	}
	cursor := 0
	place := func(inst pendingInstance) {
		for tries := 0; tries < len(containers); tries++ {
			idx := (cursor + tries) % len(containers)
			if loads[idx].Add(inst.res).Fits(usable) {
				containers[idx].Instances = append(containers[idx].Instances,
					core.InstancePlacement{ID: inst.id, Resources: inst.res})
				loads[idx] = loads[idx].Add(inst.res)
				cursor = (idx + 1) % len(containers)
				return
			}
		}
		// Ring full: open a fresh container.
		containers = append(containers, core.ContainerPlan{
			ID: int32(len(containers) + 1),
			Instances: []core.InstancePlacement{
				{ID: inst.id, Resources: inst.res},
			},
		})
		loads = append(loads, inst.res)
		cursor = 0
	}
	for _, inst := range enumerate(r.topo) {
		place(inst)
	}
	plan := finalize(r.cfg, r.topo.Name, containers)
	if err := plan.Validate(r.topo); err != nil {
		return nil, fmt.Errorf("packing: rcrr produced invalid plan: %w", err)
	}
	return plan, nil
}

// Repack implements core.ResourceManager with the shared minimal-
// disruption algorithm, capacity-bounded.
func (r *ResourceCompliantRR) Repack(current *core.PackingPlan, changes map[string]int) (*core.PackingPlan, error) {
	if r.cfg == nil {
		return nil, ErrNotInitialized
	}
	usable := r.usableCapacity()
	return repack(r.cfg, r.topo, current, changes, &usable)
}

// Close implements core.ResourceManager.
func (r *ResourceCompliantRR) Close() error { return nil }
