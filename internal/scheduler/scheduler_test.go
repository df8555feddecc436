package scheduler

import (
	"sync"
	"testing"
	"time"

	"heron/internal/cluster"
	"heron/internal/core"
)

// trackingLauncher records per-container launch/stop counts.
type trackingLauncher struct {
	mu       sync.Mutex
	launches map[int32]int
	stops    map[int32]int
}

func newTrackingLauncher() *trackingLauncher {
	return &trackingLauncher{launches: map[int32]int{}, stops: map[int32]int{}}
}

func (f *trackingLauncher) LaunchContainer(topology string, id int32) (func(), error) {
	f.mu.Lock()
	f.launches[id]++
	f.mu.Unlock()
	return func() {
		f.mu.Lock()
		f.stops[id]++
		f.mu.Unlock()
	}, nil
}

func (f *trackingLauncher) snapshot() (map[int32]int, map[int32]int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	l := map[int32]int{}
	s := map[int32]int{}
	for k, v := range f.launches {
		l[k] = v
	}
	for k, v := range f.stops {
		s[k] = v
	}
	return l, s
}

func plan(topology string, containers ...int32) *core.PackingPlan {
	p := &core.PackingPlan{Topology: topology}
	for i, id := range containers {
		p.Containers = append(p.Containers, core.ContainerPlan{
			ID:       id,
			Required: core.Resource{CPU: 2, RAMMB: 2048, DiskMB: 2048},
			Instances: []core.InstancePlacement{{
				ID:        core.InstanceID{Component: "c", ComponentIndex: int32(i), TaskID: int32(i)},
				Resources: core.Resource{CPU: 1, RAMMB: 1024, DiskMB: 1024},
			}},
		})
	}
	return p
}

// newScheduler initializes the scheduler registered under name with a
// tracking launcher and, unless cl is nil, the simulated cluster.
func newScheduler(t *testing.T, name string, cl *cluster.Cluster) (core.Scheduler, *trackingLauncher) {
	t.Helper()
	cfg := core.NewConfig()
	l := newTrackingLauncher()
	cfg.Launcher = l
	if cl != nil {
		cfg.Framework = cl
	}
	s, err := core.NewScheduler(name)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Initialize(cfg); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s, l
}

func TestRegistryHasAllSchedulers(t *testing.T) {
	for _, name := range []string{"local", "yarn", "aurora", "mesos", "slurm"} {
		if _, err := core.NewScheduler(name); err != nil {
			t.Errorf("NewScheduler(%q): %v", name, err)
		}
	}
}

func TestLocalRestart(t *testing.T) {
	s, l := newScheduler(t, "local", nil)
	if err := s.OnSchedule(plan("t", 1, 2)); err != nil {
		t.Fatal(err)
	}
	if err := s.OnRestart(core.RestartRequest{Topology: "t", ContainerID: 1}); err != nil {
		t.Fatal(err)
	}
	launches, stops := l.snapshot()
	if launches[1] != 2 || stops[1] != 1 {
		t.Errorf("container 1: launches=%d stops=%d", launches[1], stops[1])
	}
	if launches[2] != 1 {
		t.Errorf("container 2 should be untouched, launches=%d", launches[2])
	}
	// Restart all.
	if err := s.OnRestart(core.RestartRequest{Topology: "t", ContainerID: -1}); err != nil {
		t.Fatal(err)
	}
	launches, _ = l.snapshot()
	if launches[0] != 2 || launches[1] != 3 || launches[2] != 2 {
		t.Errorf("launches after restart-all = %v", launches)
	}
	if err := s.OnRestart(core.RestartRequest{Topology: "nope", ContainerID: -1}); err == nil {
		t.Error("want error for unknown topology")
	}
	s.Close()
}

func TestLocalUpdateMinimalDisruption(t *testing.T) {
	s, l := newScheduler(t, "local", nil)
	cur := plan("t", 1, 2)
	if err := s.OnSchedule(cur); err != nil {
		t.Fatal(err)
	}
	// Proposed: container 1 unchanged, container 2 gains an instance,
	// container 3 is new.
	prop := plan("t", 1, 2, 3)
	prop.Containers[1].Instances = append(prop.Containers[1].Instances, core.InstancePlacement{
		ID: core.InstanceID{Component: "c", ComponentIndex: 9, TaskID: 9},
	})
	if err := s.OnUpdate(core.UpdateRequest{Topology: "t", Current: cur, Proposed: prop}); err != nil {
		t.Fatal(err)
	}
	launches, stops := l.snapshot()
	if launches[1] != 1 || stops[1] != 0 {
		t.Errorf("unchanged container 1 was disturbed: launches=%d stops=%d", launches[1], stops[1])
	}
	if launches[2] != 2 || stops[2] != 1 {
		t.Errorf("changed container 2: launches=%d stops=%d", launches[2], stops[2])
	}
	if launches[3] != 1 {
		t.Errorf("new container 3: launches=%d", launches[3])
	}
	// Scale down: drop container 3.
	if err := s.OnUpdate(core.UpdateRequest{Topology: "t", Current: prop, Proposed: plan("t", 1, 2)}); err != nil {
		t.Fatal(err)
	}
	_, stops = l.snapshot()
	if stops[3] != 1 {
		t.Errorf("removed container 3 not stopped: stops=%d", stops[3])
	}
	s.Close()
}

func newYARNFixture(t *testing.T) (core.Scheduler, *trackingLauncher, *cluster.Cluster) {
	t.Helper()
	cl := cluster.New("yarnsim", 4, core.Resource{CPU: 16, RAMMB: 16384, DiskMB: 32768})
	s, l := newScheduler(t, "yarn", cl)
	return s, l, cl
}

func TestYARNScheduleAllocatesHeterogeneous(t *testing.T) {
	s, l, cl := newYARNFixture(t)
	p := plan("t", 1, 2)
	p.Containers[1].Required = core.Resource{CPU: 4, RAMMB: 4096, DiskMB: 4096} // heterogeneous
	if err := s.OnSchedule(p); err != nil {
		t.Fatal(err)
	}
	for _, id := range []int32{0, 1, 2} {
		if !cl.Allocated("t", id) {
			t.Errorf("container %d not allocated", id)
		}
	}
	launches, _ := l.snapshot()
	if launches[0] != 1 || launches[1] != 1 || launches[2] != 1 {
		t.Errorf("launches = %v", launches)
	}
	// Heterogeneous asks: total used = tmaster(1) + 2 + 4 CPUs.
	var cpu float64
	for _, ns := range cl.Stats() {
		cpu += ns.Used.CPU
	}
	if cpu != 7 {
		t.Errorf("cluster cpu used = %v, want 7", cpu)
	}
}

func TestYARNStatefulFailureRecovery(t *testing.T) {
	s, l, cl := newYARNFixture(t)
	if err := s.OnSchedule(plan("t", 1, 2)); err != nil {
		t.Fatal(err)
	}
	if err := cl.InjectFailure("t", 1); err != nil {
		t.Fatal(err)
	}
	// The stateful scheduler's monitor must notice and re-allocate.
	deadline := time.Now().Add(2 * time.Second)
	for {
		launches, _ := l.snapshot()
		if cl.Allocated("t", 1) && launches[1] == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("stateful scheduler did not recover container (launches=%v)", launches)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestYARNKillReleasesEverything(t *testing.T) {
	s, _, cl := newYARNFixture(t)
	if err := s.OnSchedule(plan("t", 1, 2)); err != nil {
		t.Fatal(err)
	}
	if err := s.OnKill(core.KillRequest{Topology: "t"}); err != nil {
		t.Fatal(err)
	}
	for _, ns := range cl.Stats() {
		if !ns.Used.IsZero() {
			t.Errorf("node %s still used: %v", ns.Name, ns.Used)
		}
	}
	// Failure after kill must not resurrect anything.
	if err := cl.InjectFailure("t", 1); err == nil {
		t.Error("want error: container gone")
	}
}

func TestYARNUpdateAddsAndRemovesContainers(t *testing.T) {
	s, l, cl := newYARNFixture(t)
	cur := plan("t", 1, 2)
	if err := s.OnSchedule(cur); err != nil {
		t.Fatal(err)
	}
	prop := plan("t", 1, 3) // drop 2, add 3
	if err := s.OnUpdate(core.UpdateRequest{Topology: "t", Current: cur, Proposed: prop}); err != nil {
		t.Fatal(err)
	}
	if cl.Allocated("t", 2) {
		t.Error("container 2 should be released")
	}
	if !cl.Allocated("t", 3) {
		t.Error("container 3 should be allocated")
	}
	launches, _ := l.snapshot()
	if launches[3] != 1 {
		t.Errorf("container 3 launches = %d", launches[3])
	}
}

func newAuroraFixture(t *testing.T) (core.Scheduler, *trackingLauncher, *cluster.Cluster) {
	t.Helper()
	cl := cluster.New("aurorasim", 4, core.Resource{CPU: 16, RAMMB: 16384, DiskMB: 32768})
	s, l := newScheduler(t, "aurora", cl)
	return s, l, cl
}

func TestAuroraHomogeneousContainers(t *testing.T) {
	s, _, cl := newAuroraFixture(t)
	p := plan("t", 1, 2)
	p.Containers[1].Required = core.Resource{CPU: 4, RAMMB: 4096, DiskMB: 4096}
	if err := s.OnSchedule(p); err != nil {
		t.Fatal(err)
	}
	// Homogeneous: all three containers sized at the max ask (4 CPU).
	var cpu float64
	for _, ns := range cl.Stats() {
		cpu += ns.Used.CPU
	}
	if cpu != 12 {
		t.Errorf("cluster cpu used = %v, want 12 (3 × max 4)", cpu)
	}
}

func TestAuroraStatelessFrameworkRestart(t *testing.T) {
	s, l, cl := newAuroraFixture(t)
	if err := s.OnSchedule(plan("t", 1, 2)); err != nil {
		t.Fatal(err)
	}
	// Failure is handled by the framework itself, synchronously, with no
	// scheduler monitor involved.
	if err := cl.InjectFailure("t", 2); err != nil {
		t.Fatal(err)
	}
	if !cl.Allocated("t", 2) {
		t.Fatal("framework did not auto-restart")
	}
	launches, _ := l.snapshot()
	if launches[2] != 2 {
		t.Errorf("container 2 launches = %d, want 2", launches[2])
	}
	if err := s.OnKill(core.KillRequest{Topology: "t"}); err != nil {
		t.Fatal(err)
	}
}

func TestAuroraRestartAndUpdate(t *testing.T) {
	s, l, cl := newAuroraFixture(t)
	cur := plan("t", 1)
	if err := s.OnSchedule(cur); err != nil {
		t.Fatal(err)
	}
	if err := s.OnRestart(core.RestartRequest{Topology: "t", ContainerID: 1}); err != nil {
		t.Fatal(err)
	}
	launches, _ := l.snapshot()
	if launches[1] != 2 {
		t.Errorf("launches = %v", launches)
	}
	prop := plan("t", 1, 2)
	if err := s.OnUpdate(core.UpdateRequest{Topology: "t", Current: cur, Proposed: prop}); err != nil {
		t.Fatal(err)
	}
	if !cl.Allocated("t", 2) {
		t.Error("new container missing")
	}
}

func TestSchedulersRejectMissingDeps(t *testing.T) {
	for _, name := range []string{"local", "yarn", "mesos", "slurm", "aurora"} {
		s, err := core.NewScheduler(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Initialize(core.NewConfig()); err != ErrNoLauncher {
			t.Errorf("%s without launcher: %v", name, err)
		}
		if name == "local" {
			continue
		}
		cfg := core.NewConfig()
		cfg.Launcher = newTrackingLauncher()
		if err := s.Initialize(cfg); err != ErrNoFramework {
			t.Errorf("%s without framework: %v", name, err)
		}
	}
}
