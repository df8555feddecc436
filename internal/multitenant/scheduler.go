package multitenant

import (
	"heron/internal/cluster"
	"heron/internal/core"
	"heron/internal/scheduler"
)

func init() {
	core.RegisterScheduler("multitenant", func() core.Scheduler { return &Scheduler{} })
}

// Scheduler is the substrate-facing Scheduler module: the scheduler core
// over a placement that acquires containers through the substrate's fair
// placer (spread + cross-tenant isolation) instead of the cluster's
// first-fit path. heron.Cluster creates one per submission.
type Scheduler struct{ scheduler.Core }

// Initialize implements core.Scheduler.
func (s *Scheduler) Initialize(cfg *core.Config) error {
	s.Placement = &placement{}
	return s.Core.Initialize(cfg)
}

// placement places containers through the substrate bound in
// Config.Framework; failures arrive on the substrate cluster's events.
type placement struct {
	sub      *Substrate
	launcher core.ContainerLauncher
}

func (p *placement) Bind(cfg *core.Config) (<-chan cluster.Event, func(), error) {
	b, err := bindingOf(cfg)
	if err != nil {
		return nil, nil, err
	}
	p.sub, p.launcher = b.Sub, cfg.Launcher
	events, cancel := b.Sub.Cluster().Watch()
	return events, cancel, nil
}

func (p *placement) Place(topology string, id int32, res, _ core.Resource) error {
	return p.sub.allocate(topology, id, res, p.launcher)
}

func (p *placement) Release(topology string, id int32) error { return p.sub.release(topology, id) }

func (p *placement) Restart(topology string, id int32) error {
	return p.sub.Cluster().Restart(topology, id)
}
