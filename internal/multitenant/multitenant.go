// Package multitenant promotes the simulated cluster and the scheduler
// layer to a shared substrate: many topologies from many tenants run
// concurrently on one pool of nodes, separated by per-tenant resource
// quotas enforced at admission and at rescale time, placed by the
// fair/priority node placer in internal/packing, and isolated from each
// other's backpressure and health-manager actions (each topology keeps
// its own data plane, TMaster, and control loop — the substrate only
// shares nodes, the state tree, and the observability endpoint).
//
// The public surface is heron.Cluster; this package holds the mechanism:
//
//   - Substrate: tenant registry, quota accounting, admission control,
//     the shared cluster.Cluster node pool, and fair placement state.
//   - Binding: one topology's view of the substrate, injected as
//     Config.Framework for the "multitenant" scheduler.
//   - Scheduler (registered as "multitenant"): the scheduler core of
//     internal/scheduler over a placement that acquires containers
//     through the substrate's placer instead of the cluster's first-fit
//     path.
package multitenant

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"heron/internal/cluster"
	"heron/internal/core"
	"heron/internal/packing"
)

// Sentinel errors for admission decisions; tests and callers match with
// errors.Is.
var (
	ErrUnknownTenant     = errors.New("multitenant: unknown tenant")
	ErrDuplicateTopology = core.ErrDuplicateTopology
	ErrQuotaExceeded     = errors.New("multitenant: tenant quota exceeded")
	ErrUnknownTopology   = errors.New("multitenant: unknown topology")
)

// Quota bounds one tenant's aggregate footprint on the substrate. A
// zero-valued dimension is unlimited, so the zero Quota admits anything.
type Quota struct {
	// Resources caps the sum of the tenant's container asks (workers'
	// packing-plan requirements plus each topology's TMaster ask).
	Resources core.Resource
	// MaxContainers caps the tenant's container count, counting each
	// topology's TMaster container.
	MaxContainers int
}

// allows reports whether usage fits the quota, dimension by dimension
// with zero meaning unlimited.
func (q Quota) allows(used core.Resource, containers int) bool {
	if q.Resources.CPU > 0 && used.CPU > q.Resources.CPU+1e-9 {
		return false
	}
	if q.Resources.RAMMB > 0 && used.RAMMB > q.Resources.RAMMB {
		return false
	}
	if q.Resources.DiskMB > 0 && used.DiskMB > q.Resources.DiskMB {
		return false
	}
	if q.MaxContainers > 0 && containers > q.MaxContainers {
		return false
	}
	return true
}

// TenantStatus is one tenant's externally visible accounting snapshot.
type TenantStatus struct {
	Name       string        `json:"name"`
	Priority   int           `json:"priority"`
	Quota      Quota         `json:"quota"`
	Used       core.Resource `json:"used"`
	Containers int           `json:"containers"`
	// DominantShare is the DRF scalar of Used against the quota (0 when
	// the quota is unlimited).
	DominantShare float64  `json:"dominantShare"`
	Topologies    []string `json:"topologies"`
}

type tenant struct {
	name       string
	priority   int
	quota      Quota
	used       core.Resource
	containers int
}

// member is one admitted topology.
type member struct {
	topology string
	tenant   *tenant
	// reserved is what admission charged the tenant for this topology.
	reserved   core.Resource
	containers int
	tmAsk      core.Resource
}

// Substrate is the shared multi-tenant cluster state. All methods are
// safe for concurrent use.
type Substrate struct {
	name string
	cl   *cluster.Cluster

	mu      sync.Mutex
	tenants map[string]*tenant
	members map[string]*member // topology name → membership
	placer  packing.FairPlacer
	nodeCap map[string]core.Resource
	// ownersByNode tracks, per node, how many containers each tenant has
	// there — the placer's isolation input.
	ownersByNode map[string]map[string]int
	// nodeOfContainer remembers each allocation's node so release can
	// decrement the right counter.
	nodeOfContainer map[allocKey]string
}

type allocKey struct {
	topology string
	id       int32
}

// NewSubstrate builds a substrate over n fresh simulated nodes of
// capacity perNode each.
func NewSubstrate(name string, n int, perNode core.Resource) *Substrate {
	s := &Substrate{
		name:            name,
		cl:              cluster.New(name, n, perNode),
		tenants:         map[string]*tenant{},
		members:         map[string]*member{},
		nodeCap:         map[string]core.Resource{},
		ownersByNode:    map[string]map[string]int{},
		nodeOfContainer: map[allocKey]string{},
	}
	for _, st := range s.cl.Stats() {
		s.nodeCap[st.Name] = st.Capacity
	}
	return s
}

// Cluster exposes the underlying simulated node pool (chaos injection,
// node stats).
func (s *Substrate) Cluster() *cluster.Cluster { return s.cl }

// Name returns the substrate's identity.
func (s *Substrate) Name() string { return s.name }

// AddTenant registers a tenant. Re-registering an existing tenant updates
// its quota and priority in place (existing reservations are kept, even
// if they now exceed the tightened quota — only new admissions check).
func (s *Substrate) AddTenant(name string, q Quota, priority int) error {
	if name == "" {
		return errors.New("multitenant: empty tenant name")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if t, ok := s.tenants[name]; ok {
		t.quota, t.priority = q, priority
		return nil
	}
	s.tenants[name] = &tenant{name: name, priority: priority, quota: q}
	return nil
}

// planFootprint sums a plan's container asks plus the TMaster ask.
func planFootprint(p *core.PackingPlan, tmAsk core.Resource) (core.Resource, int) {
	total := tmAsk
	for i := range p.Containers {
		total = total.Add(p.Containers[i].Required)
	}
	return total, len(p.Containers) + 1 // +1: the TMaster container
}

// AdmitTopology checks a submission against its tenant's quota and, on
// success, reserves the plan's footprint and registers the topology.
// Duplicate names are rejected here atomically — the same check
// heron.Submit performs against the state tree, made race-free for the
// shared substrate (a name collision would also collide statemgr keys
// and checkpoint namespaces).
func (s *Substrate) AdmitTopology(tenantName, topology string, plan *core.PackingPlan, tmAsk core.Resource) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.tenants[tenantName]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownTenant, tenantName)
	}
	if _, dup := s.members[topology]; dup {
		return fmt.Errorf("%w: %q is already running on cluster %q (its statemgr keys and checkpoint namespace would collide)",
			ErrDuplicateTopology, topology, s.name)
	}
	res, containers := planFootprint(plan, tmAsk)
	newUsed := t.used.Add(res)
	newContainers := t.containers + containers
	if !t.quota.allows(newUsed, newContainers) {
		return fmt.Errorf("%w: tenant %q would use %v and %d containers (quota %v, %d containers)",
			ErrQuotaExceeded, tenantName, newUsed, newContainers, t.quota.Resources, t.quota.MaxContainers)
	}
	t.used, t.containers = newUsed, newContainers
	s.members[topology] = &member{
		topology: topology, tenant: t,
		reserved: res, containers: containers, tmAsk: tmAsk,
	}
	return nil
}

// AdmitUpdate checks a rescale (current → proposed plan) against the
// topology's tenant quota and, on success, moves the reservation to the
// proposed footprint. On rejection nothing changes — the caller aborts
// the rescale before touching any state, which is the rollback.
func (s *Substrate) AdmitUpdate(topology string, current, proposed *core.PackingPlan) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	m, ok := s.members[topology]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownTopology, topology)
	}
	curRes, curN := planFootprint(current, m.tmAsk)
	newRes, newN := planFootprint(proposed, m.tmAsk)
	t := m.tenant
	used := t.used.Sub(curRes).Add(newRes)
	containers := t.containers - curN + newN
	if !t.quota.allows(used, containers) {
		return fmt.Errorf("%w: rescaling %q to %v and %d containers exceeds tenant %q quota (%v, %d containers)",
			ErrQuotaExceeded, topology, used, containers, t.name, t.quota.Resources, t.quota.MaxContainers)
	}
	t.used, t.containers = used, containers
	m.reserved, m.containers = newRes, newN
	return nil
}

// ReleaseTopology frees a killed topology's reservation. Releasing an
// unknown topology is a no-op (kill paths are idempotent).
func (s *Substrate) ReleaseTopology(topology string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	m, ok := s.members[topology]
	if !ok {
		return
	}
	delete(s.members, topology)
	m.tenant.used = m.tenant.used.Sub(m.reserved)
	m.tenant.containers -= m.containers
}

// TenantOf reports which tenant an admitted topology belongs to.
func (s *Substrate) TenantOf(topology string) (string, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	m, ok := s.members[topology]
	if !ok {
		return "", false
	}
	return m.tenant.name, true
}

// Tenants snapshots every tenant's accounting, sorted by name.
func (s *Substrate) Tenants() []TenantStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	byTenant := map[string][]string{}
	for name, m := range s.members {
		byTenant[m.tenant.name] = append(byTenant[m.tenant.name], name)
	}
	out := make([]TenantStatus, 0, len(s.tenants))
	for _, t := range s.tenants {
		topos := byTenant[t.name]
		sort.Strings(topos)
		out = append(out, TenantStatus{
			Name: t.name, Priority: t.priority, Quota: t.quota,
			Used: t.used, Containers: t.containers,
			DominantShare: packing.DominantShare(t.used, t.quota.Resources),
			Topologies:    topos,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Topologies lists admitted topology names, sorted.
func (s *Substrate) Topologies() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.members))
	for name := range s.members {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// allocate places one container of an admitted topology onto a node via
// the fair placer and launches it there. Offers can go stale between the
// snapshot and the AllocateOn (another tenant lands first), so placement
// retries against fresh offers a few times before giving up.
func (s *Substrate) allocate(topology string, id int32, res core.Resource, launcher core.ContainerLauncher) error {
	s.mu.Lock()
	m, ok := s.members[topology]
	s.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownTopology, topology)
	}
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		offers := s.cl.Offers()
		s.mu.Lock()
		ctx := packing.PlaceContext{
			NodeCapacity:          s.nodeCap,
			OtherTenantContainers: s.othersPerNodeLocked(m.tenant.name),
		}
		s.mu.Unlock()
		placerOffers := make([]packing.NodeOffer, len(offers))
		for i, o := range offers {
			placerOffers[i] = packing.NodeOffer{Node: o.Node, Free: o.Free}
		}
		node, err := s.placer.Place(placerOffers, res, ctx)
		if err != nil {
			return fmt.Errorf("multitenant: placing %s/%d: %w", topology, id, err)
		}
		err = s.cl.AllocateOn(node, topology, id, res, launcher, cluster.AllocateOptions{})
		if err == nil {
			s.mu.Lock()
			byTenant := s.ownersByNode[node]
			if byTenant == nil {
				byTenant = map[string]int{}
				s.ownersByNode[node] = byTenant
			}
			byTenant[m.tenant.name]++
			s.nodeOfContainer[allocKey{topology, id}] = node
			s.mu.Unlock()
			return nil
		}
		lastErr = err
		if !errors.Is(err, cluster.ErrNoCapacity) {
			return err // dup container, unknown node, launch failure: not a race
		}
	}
	return fmt.Errorf("multitenant: allocating %s/%d: %w", topology, id, lastErr)
}

// release returns one container to the pool and forgets its placement.
// The scheduler also releases a container that crashed: the cluster
// already freed it, and only the placement record is left to drop.
func (s *Substrate) release(topology string, id int32) error {
	err := s.cl.Release(topology, id)
	s.mu.Lock()
	defer s.mu.Unlock()
	key := allocKey{topology, id}
	node, ok := s.nodeOfContainer[key]
	if !ok {
		return err
	}
	delete(s.nodeOfContainer, key)
	if m, ok := s.members[topology]; ok {
		if byTenant := s.ownersByNode[node]; byTenant != nil {
			if byTenant[m.tenant.name]--; byTenant[m.tenant.name] <= 0 {
				delete(byTenant, m.tenant.name)
			}
		}
	}
	return err
}

// othersPerNodeLocked counts containers per node owned by tenants other
// than name. Caller holds s.mu.
func (s *Substrate) othersPerNodeLocked(name string) map[string]int {
	out := map[string]int{}
	for node, byTenant := range s.ownersByNode {
		for t, n := range byTenant {
			if t != name {
				out[node] += n
			}
		}
	}
	return out
}

// Binding is one topology's handle on the substrate, injected as
// Config.Framework so the "multitenant" scheduler can reach it. Tenant
// and Topology name the member the binding was made for.
type Binding struct {
	Sub      *Substrate
	Tenant   string
	Topology string
}

// bindingOf extracts the substrate binding from a config.
func bindingOf(cfg *core.Config) (*Binding, error) {
	b, ok := cfg.Framework.(*Binding)
	if !ok || b == nil || b.Sub == nil {
		return nil, errors.New("multitenant: config has no *multitenant.Binding framework")
	}
	return b, nil
}
