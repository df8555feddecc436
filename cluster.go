package heron

import (
	"errors"
	"fmt"
	"sync"

	"heron/api"
	"heron/internal/core"
	"heron/internal/metrics"
	"heron/internal/multitenant"
	"heron/internal/observability"
)

// Quota re-exports the per-tenant resource quota (zero dimensions are
// unlimited).
type Quota = multitenant.Quota

// TenantStatus re-exports one tenant's accounting snapshot.
type TenantStatus = multitenant.TenantStatus

// Sentinel errors of the multi-tenant admission path, re-exported for
// errors.Is matching.
var (
	ErrUnknownTenant     = multitenant.ErrUnknownTenant
	ErrDuplicateTopology = multitenant.ErrDuplicateTopology
	ErrQuotaExceeded     = multitenant.ErrQuotaExceeded
	ErrUnknownTopology   = multitenant.ErrUnknownTopology
)

// ClusterConfig sizes a shared multi-tenant cluster.
type ClusterConfig struct {
	// Name identifies the cluster and names the StateRoot its tenants
	// share in the cluster's own World.
	Name string
	// Nodes is the simulated node count (default 4).
	Nodes int
	// NodeResources is each node's capacity (default 64 CPU, 64 GB RAM,
	// 64 GB disk).
	NodeResources Resource
	// HTTPAddr, when set, starts the shared observability endpoint serving
	// every tenant's topologies ("127.0.0.1:0" picks a free port).
	HTTPAddr string
	// HTTPPprof mounts net/http/pprof on the shared endpoint.
	HTTPPprof bool
}

// Cluster is a shared substrate running many topologies from many
// tenants concurrently: one simulated node pool, per-tenant resource
// quotas enforced at admission and rescale, fair cross-tenant container
// placement, and a single observability endpoint. This is the paper's
// premise — topologies as tenants of a general-purpose scheduled cluster
// — promoted from the one-topology-per-framework Submit path.
//
//	cl, _ := heron.NewCluster(heron.ClusterConfig{Nodes: 8, HTTPAddr: "127.0.0.1:0"})
//	defer cl.Close()
//	cl.AddTenant("ads", heron.Quota{Resources: heron.Resource{CPU: 32}}, 0)
//	h, err := cl.Submit("ads", spec, cfg)
type Cluster struct {
	name  string
	sub   *multitenant.Substrate
	obs   *observability.Server
	world *core.World

	mu      sync.Mutex
	handles map[string]*Handle
	closed  bool
}

// NewCluster builds the shared substrate and, when configured, its
// observability endpoint.
func NewCluster(cc ClusterConfig) (*Cluster, error) {
	if cc.Name == "" {
		cc.Name = "cluster"
	}
	if cc.Nodes <= 0 {
		cc.Nodes = 4
	}
	if cc.NodeResources.IsZero() {
		cc.NodeResources = Resource{CPU: 64, RAMMB: 64 * 1024, DiskMB: 64 * 1024}
	}
	c := &Cluster{
		name:    cc.Name,
		sub:     multitenant.NewSubstrate(cc.Name, cc.Nodes, cc.NodeResources),
		world:   core.NewWorld(),
		handles: map[string]*Handle{},
	}
	if cc.HTTPAddr != "" {
		obs, err := observability.Start(observability.Options{
			Addr:    cc.HTTPAddr,
			Cluster: cc.Name,
			Views:   c.views,
			Health: func(name string) (any, bool) {
				if h, ok := c.Handle(name); ok {
					return h.healthReport(), true
				}
				return nil, false
			},
			Rollup: c.rollup,
			Pprof:  cc.HTTPPprof,
		})
		if err != nil {
			return nil, fmt.Errorf("heron: cluster observability server: %w", err)
		}
		c.obs = obs
	}
	return c, nil
}

// AddTenant registers (or re-quotas) a tenant. Higher priority wins
// launch ordering when the substrate is contended; quota changes apply to
// future admissions only.
func (c *Cluster) AddTenant(name string, q Quota, priority int) error {
	return c.sub.AddTenant(name, q, priority)
}

// Submit admits a topology for a tenant and launches it on the shared
// substrate. The config keeps its data-plane settings but the scheduler,
// framework, World and state root are the cluster's: every member runs the
// "multitenant" scheduler against the shared node pool and state tree,
// and the per-Handle observability server is replaced by the cluster
// endpoint. Admission rejects unknown tenants, duplicate topology names
// (whose statemgr keys and checkpoint namespaces would collide), and
// plans whose footprint would push the tenant over quota — all before any
// container launches.
func (c *Cluster) Submit(tenantName string, spec *api.Spec, cfg *Config) (*Handle, error) {
	if spec == nil || spec.Topology == nil {
		return nil, errors.New("heron: nil spec")
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, errors.New("heron: cluster closed")
	}
	c.mu.Unlock()
	if cfg == nil {
		cfg = NewConfig()
	} else {
		cfg = cfg.Clone()
	}
	name := spec.Topology.Name
	cfg.SchedulerName = "multitenant"
	cfg.World, cfg.StateRoot = c.world, "multitenant/"+c.name
	cfg.HTTPAddr = "" // the cluster endpoint serves all tenants
	cfg.Framework = &multitenant.Binding{Sub: c.sub, Tenant: tenantName, Topology: name}
	h, err := submit(spec, cfg, submitHooks{
		admitPlan: func(plan *core.PackingPlan) error {
			return c.sub.AdmitTopology(tenantName, name, plan, core.DefaultTMasterResources)
		},
		admitUpdate: func(current, proposed *core.PackingPlan) error {
			return c.sub.AdmitUpdate(name, current, proposed)
		},
		onKill: func() {
			c.sub.ReleaseTopology(name)
			c.mu.Lock()
			delete(c.handles, name)
			c.mu.Unlock()
		},
	})
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	c.handles[name] = h
	c.mu.Unlock()
	return h, nil
}

// Kill tears down one topology and releases its quota reservation.
func (c *Cluster) Kill(topology string) error {
	c.mu.Lock()
	h, ok := c.handles[topology]
	c.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownTopology, topology)
	}
	return h.Kill()
}

// Handle returns the live handle of a running topology.
func (c *Cluster) Handle(topology string) (*Handle, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	h, ok := c.handles[topology]
	return h, ok
}

// List returns the names of all running topologies, sorted.
func (c *Cluster) List() []string { return c.sub.Topologies() }

// Tenants snapshots every tenant's quota accounting.
func (c *Cluster) Tenants() []TenantStatus { return c.sub.Tenants() }

// ObservabilityAddr returns the shared endpoint's bound address (""
// when ClusterConfig.HTTPAddr was not set).
func (c *Cluster) ObservabilityAddr() string {
	if c.obs == nil {
		return ""
	}
	return c.obs.Addr()
}

// Close kills every running topology, stops the shared endpoint and
// reports any state tree of the cluster's World left with an open session.
func (c *Cluster) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	hs := make([]*Handle, 0, len(c.handles))
	for _, h := range c.handles {
		hs = append(hs, h)
	}
	c.mu.Unlock()
	var errs []error
	for _, h := range hs {
		if err := h.Kill(); err != nil {
			errs = append(errs, err)
		}
	}
	if c.obs != nil {
		errs = append(errs, c.obs.Close())
	}
	return errors.Join(append(errs, c.world.Close())...)
}

// views snapshots every running topology's merged metrics view for the
// shared endpoint.
func (c *Cluster) views() map[string]*metrics.TopologyView {
	c.mu.Lock()
	hs := make(map[string]*Handle, len(c.handles))
	for n, h := range c.handles {
		hs[n] = h
	}
	c.mu.Unlock()
	out := make(map[string]*metrics.TopologyView, len(hs))
	for n, h := range hs {
		out[n] = h.Metrics()
	}
	return out
}

// clusterNode is one node's utilization in the /cluster rollup.
type clusterNode struct {
	Name     string   `json:"name"`
	Capacity Resource `json:"capacity"`
	Used     Resource `json:"used"`
}

// clusterTopology is one running topology in the /cluster rollup.
type clusterTopology struct {
	Name       string  `json:"name"`
	Tenant     string  `json:"tenant"`
	Containers []int32 `json:"containers"`
}

// rollup builds the /cluster payload: tenants with quota accounting,
// per-node utilization, and the running topologies.
func (c *Cluster) rollup() any {
	var nodes []clusterNode
	for _, st := range c.sub.Cluster().Stats() {
		nodes = append(nodes, clusterNode{Name: st.Name, Capacity: st.Capacity, Used: st.Used})
	}
	var topos []clusterTopology
	for _, name := range c.sub.Topologies() {
		tenantName, _ := c.sub.TenantOf(name)
		topos = append(topos, clusterTopology{
			Name: name, Tenant: tenantName,
			Containers: c.sub.Cluster().Containers(name),
		})
	}
	return struct {
		Cluster    string            `json:"cluster"`
		Tenants    []TenantStatus    `json:"tenants"`
		Nodes      []clusterNode     `json:"nodes"`
		Topologies []clusterTopology `json:"topologies"`
	}{c.name, c.sub.Tenants(), nodes, topos}
}
