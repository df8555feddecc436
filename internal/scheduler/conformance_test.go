package scheduler_test

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"heron/internal/cluster"
	"heron/internal/core"
	"heron/internal/multitenant"
	"heron/internal/scheduler"
)

// The conformance table runs every case over core.SchedulerNames(), so a
// newly registered scheduler is covered by registering it. A case a
// scheduler cannot express is skipped with the reason.

// launcher counts launches and stops per container.
type launcher struct {
	mu              sync.Mutex
	launches, stops map[int32]int
}

func (l *launcher) LaunchContainer(_ string, id int32) (func(), error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.launches[id]++
	return func() {
		l.mu.Lock()
		defer l.mu.Unlock()
		l.stops[id]++
	}, nil
}

func (l *launcher) counts() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return fmt.Sprintf("launches %v stops %v", l.launches, l.stops)
}

// fixture is one scheduler scheduled with a two-worker plan of topology
// "t" (containers 0, 1 and 2).
type fixture struct {
	name string
	s    core.Scheduler
	l    *launcher
	cl   *cluster.Cluster // nil for local
}

// fail injects a container failure. Local has no framework to fail in.
func (f *fixture) fail(t *testing.T, id int32) {
	t.Helper()
	if f.cl == nil {
		t.Skipf("%s: no framework, so no container failures", f.name)
	}
	if err := f.cl.InjectFailure("t", id); err != nil {
		t.Fatal(err)
	}
}

// waitCounts waits for the launch and stop counts to read want.
func (f *fixture) waitCounts(t *testing.T, want string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for f.l.counts() != want {
		if time.Now().After(deadline) {
			t.Fatalf("%s: got %s, want %s", f.name, f.l.counts(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

func testPlan() *core.PackingPlan {
	p := &core.PackingPlan{Topology: "t"}
	for i, id := range []int32{1, 2} {
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

// eachScheduler runs fn on a fresh, scheduled fixture of every registered
// scheduler. A scheduler that refuses checkpointing skips when ckpt is
// set.
func eachScheduler(t *testing.T, ckpt bool, fn func(t *testing.T, f *fixture)) {
	for _, name := range core.SchedulerNames() {
		t.Run(name, func(t *testing.T) {
			res := core.Resource{CPU: 16, RAMMB: 16384, DiskMB: 32768}
			cfg := core.NewConfig()
			if ckpt {
				cfg.CheckpointInterval = time.Second
			}
			f := &fixture{name: name, l: &launcher{launches: map[int32]int{}, stops: map[int32]int{}}}
			cfg.Launcher = f.l
			switch name {
			case "local":
			case "multitenant":
				sub := multitenant.NewSubstrate("conf-"+name, 4, res)
				if err := sub.AddTenant("acme", multitenant.Quota{}, 0); err != nil {
					t.Fatal(err)
				}
				if err := sub.AdmitTopology("acme", "t", testPlan(), cfg.TMasterResources); err != nil {
					t.Fatal(err)
				}
				f.cl = sub.Cluster()
				cfg.Framework = &multitenant.Binding{Sub: sub, Tenant: "acme", Topology: "t"}
			default:
				f.cl = cluster.New("conf-"+name, 4, res)
				cfg.Framework = f.cl
			}
			s, err := core.NewScheduler(name)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Initialize(cfg); err != nil {
				if ckpt && errors.Is(err, scheduler.ErrStateless) {
					t.Skipf("%s is stateless and refuses checkpointed topologies", name)
				}
				t.Fatal(err)
			}
			t.Cleanup(func() { s.Close() })
			f.s = s
			if err := s.OnSchedule(testPlan()); err != nil {
				t.Fatal(err)
			}
			fn(t, f)
		})
	}
}

func TestSchedulerConformance(t *testing.T) {
	const scheduled = "launches map[0:1 1:1 2:1] stops map[]"

	t.Run("schedule_launches_once", func(t *testing.T) {
		eachScheduler(t, false, func(t *testing.T, f *fixture) {
			f.waitCounts(t, scheduled)
			if err := f.s.OnSchedule(testPlan()); err == nil {
				t.Error("duplicate schedule accepted")
			}
			f.waitCounts(t, scheduled)
			if f.cl != nil {
				for _, id := range []int32{0, 1, 2} {
					if !f.cl.Allocated("t", id) {
						t.Errorf("container %d not allocated", id)
					}
				}
			}
		})
	})

	t.Run("not_running", func(t *testing.T) {
		eachScheduler(t, false, func(t *testing.T, f *fixture) {
			if err := f.s.OnKill(core.KillRequest{Topology: "t"}); err != nil {
				t.Fatal(err)
			}
			f.waitCounts(t, "launches map[0:1 1:1 2:1] stops map[0:1 1:1 2:1]")
			ops := map[string]error{
				"second kill":     f.s.OnKill(core.KillRequest{Topology: "t"}),
				"unknown kill":    f.s.OnKill(core.KillRequest{Topology: "ghost"}),
				"unknown restart": f.s.OnRestart(core.RestartRequest{Topology: "ghost", ContainerID: -1}),
				"unknown update":  f.s.OnUpdate(core.UpdateRequest{Topology: "ghost", Current: testPlan(), Proposed: testPlan()}),
			}
			if qs, ok := f.s.(core.QuiescingScheduler); ok {
				ops["unknown quiesced update"] = qs.OnQuiescedUpdate(core.UpdateRequest{Topology: "ghost", Current: testPlan(), Proposed: testPlan()})
			}
			for op, err := range ops {
				if !errors.Is(err, scheduler.ErrNotRunning) {
					t.Errorf("%s: err = %v, want ErrNotRunning", op, err)
				}
			}
		})
	})

	t.Run("restart_relaunches_only_that_worker", func(t *testing.T) {
		eachScheduler(t, false, func(t *testing.T, f *fixture) {
			if err := f.s.OnRestart(core.RestartRequest{Topology: "t", ContainerID: 1}); err != nil {
				t.Fatal(err)
			}
			f.waitCounts(t, "launches map[0:1 1:2 2:1] stops map[1:1]")
		})
	})
	t.Run("failure_relaunches_only_that_worker", func(t *testing.T) {
		eachScheduler(t, false, func(t *testing.T, f *fixture) {
			f.fail(t, 1)
			f.waitCounts(t, "launches map[0:1 1:2 2:1] stops map[1:1]")
			if !f.cl.Allocated("t", 1) {
				t.Error("container 1 not re-placed")
			}
		})
	})

	// With checkpointing, every worker relaunches from the same
	// checkpoint: each stops and launches exactly once more, and
	// container 0 never.
	const rolledBack = "launches map[0:1 1:2 2:2] stops map[1:1 2:1]"
	t.Run("checkpointed_restart_relaunches_every_worker", func(t *testing.T) {
		eachScheduler(t, true, func(t *testing.T, f *fixture) {
			if err := f.s.OnRestart(core.RestartRequest{Topology: "t", ContainerID: 1}); err != nil {
				t.Fatal(err)
			}
			f.waitCounts(t, rolledBack)
		})
	})
	t.Run("checkpointed_failure_relaunches_every_worker", func(t *testing.T) {
		eachScheduler(t, true, func(t *testing.T, f *fixture) {
			f.fail(t, 1)
			f.waitCounts(t, rolledBack)
			for _, id := range []int32{1, 2} {
				if !f.cl.Allocated("t", id) {
					t.Errorf("container %d not re-placed", id)
				}
			}
		})
	})

	for _, ckpt := range []bool{false, true} {
		t.Run(fmt.Sprintf("container0_failure_relaunches_only_container0/checkpoint=%v", ckpt), func(t *testing.T) {
			eachScheduler(t, ckpt, func(t *testing.T, f *fixture) {
				f.fail(t, core.TMasterContainerID)
				f.waitCounts(t, "launches map[0:2 1:1 2:1] stops map[0:1]")
				if !f.cl.Allocated("t", core.TMasterContainerID) {
					t.Error("container 0 not re-placed")
				}
			})
		})
	}
}
