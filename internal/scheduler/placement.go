package scheduler

import (
	"fmt"

	"heron/internal/cluster"
	"heron/internal/core"
)

// local runs containers as in-process groups on the local machine: no
// framework, no resource accounting, no failure events.
type local struct {
	launcher core.ContainerLauncher
	stops    map[container]func()
}

type container struct {
	topology string
	id       int32
}

func (l *local) Bind(cfg *core.Config) (<-chan cluster.Event, func(), error) {
	l.launcher, l.stops = cfg.Launcher, map[container]func(){}
	return nil, nil, nil
}

func (l *local) Place(topology string, id int32, _, _ core.Resource) error {
	stop, err := l.launcher.LaunchContainer(topology, id)
	if err != nil {
		return err
	}
	l.stops[container{topology, id}] = stop
	return nil
}

func (l *local) Release(topology string, id int32) error {
	key := container{topology, id}
	stop, ok := l.stops[key]
	if !ok {
		return fmt.Errorf("%w: %s container %d", ErrNotRunning, topology, id)
	}
	delete(l.stops, key)
	stop()
	return nil
}

func (l *local) Restart(topology string, id int32) error {
	if err := l.Release(topology, id); err != nil {
		return err
	}
	return l.Place(topology, id, core.Resource{}, core.Resource{})
}

// onCluster is what the placements on the simulated cluster share: the
// framework handle, its event stream, release, and in-place restart.
type onCluster struct {
	cl       *cluster.Cluster
	launcher core.ContainerLauncher
}

func (f *onCluster) Bind(cfg *core.Config) (<-chan cluster.Event, func(), error) {
	cl, ok := cfg.Framework.(*cluster.Cluster)
	if !ok || cl == nil {
		return nil, nil, ErrNoFramework
	}
	f.cl, f.launcher = cl, cfg.Launcher
	events, cancel := cl.Watch()
	return events, cancel, nil
}

func (f *onCluster) Release(topology string, id int32) error { return f.cl.Release(topology, id) }

func (f *onCluster) Restart(topology string, id int32) error { return f.cl.Restart(topology, id) }

// yarn asks the framework for each container at exactly its packing-plan
// requirement (heterogeneous containers) and lets it pick the node.
type yarn struct{ onCluster }

func (y *yarn) Place(topology string, id int32, res, _ core.Resource) error {
	return y.cl.Allocate(topology, id, res, y.launcher, cluster.AllocateOptions{})
}

// mesos is the offer-based model the paper lists as a community
// extension: the framework presents resource offers and the scheduler
// decides placement by accepting one, instead of submitting an ask.
type mesos struct{ onCluster }

func (m *mesos) Place(topology string, id int32, res, _ core.Resource) error {
	for _, offer := range m.cl.Offers() {
		// A racing allocation can invalidate an offer; try the next.
		if res.Fits(offer.Free) && m.cl.AllocateOn(offer.Node, topology, id, res, m.launcher, cluster.AllocateOptions{}) == nil {
			return nil
		}
	}
	return fmt.Errorf("scheduler: no offer fits %v for %s/%d", res, topology, id)
}

// slurm is a static-allocation model in the style of the Slurm workload
// manager: a job acquires a fixed node allocation up front (salloc) and
// every container, relaunches included, must run inside it. A plan that
// outgrows the allocation fails rather than growing the footprint. The
// allocation ends with the job's last container (scancel).
type slurm struct {
	onCluster
	jobs map[string]map[string]bool // topology → allocated nodes
}

func (s *slurm) Place(topology string, id int32, res, total core.Resource) error {
	nodes, ok := s.jobs[topology]
	if !ok {
		// salloc: claim nodes, largest free first, until they cover the
		// job's total ask.
		nodes = map[string]bool{}
		var covered core.Resource
		for _, offer := range s.cl.Offers() {
			if total.Fits(covered) {
				break
			}
			nodes[offer.Node] = true
			covered = covered.Add(offer.Free)
		}
		if !total.Fits(covered) {
			return fmt.Errorf("scheduler: slurm cannot allocate %v across the cluster", total)
		}
		if s.jobs == nil {
			s.jobs = map[string]map[string]bool{}
		}
		s.jobs[topology] = nodes
	}
	for _, offer := range s.cl.Offers() {
		if nodes[offer.Node] && res.Fits(offer.Free) &&
			s.cl.AllocateOn(offer.Node, topology, id, res, s.launcher, cluster.AllocateOptions{}) == nil {
			return nil
		}
	}
	return fmt.Errorf("scheduler: slurm allocation for %s exhausted (container %d needs %v)", topology, id, res)
}

func (s *slurm) Release(topology string, id int32) error {
	err := s.cl.Release(topology, id)
	if len(s.cl.Containers(topology)) == 0 {
		delete(s.jobs, topology)
	}
	return err
}
