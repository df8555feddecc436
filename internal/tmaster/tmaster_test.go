package tmaster

import (
	"testing"
	"time"

	"heron/internal/core"
	"heron/internal/ctrl"
	"heron/internal/metrics"
	"heron/internal/network"
	"heron/internal/replication"
	"heron/internal/statemgr"
)

func testState(t *testing.T, cfg *core.Config) *statemgr.Manager {
	t.Helper()
	sm, err := statemgr.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sm
}

func seedState(t *testing.T, sm *statemgr.Manager, containers ...int32) {
	t.Helper()
	topo := &core.Topology{Name: "t", Components: []core.ComponentSpec{
		{Name: "s", Kind: core.KindSpout, Parallelism: len(containers),
			Outputs: map[string][]string{"default": {"x"}}},
	}}
	plan := &core.PackingPlan{Topology: "t"}
	for i, c := range containers {
		plan.Containers = append(plan.Containers, core.ContainerPlan{
			ID: c, Required: core.Resource{CPU: 2, RAMMB: 256, DiskMB: 256},
			Instances: []core.InstancePlacement{{
				ID:        core.InstanceID{Component: "s", ComponentIndex: int32(i), TaskID: int32(i)},
				Resources: core.Resource{CPU: 1, RAMMB: 128, DiskMB: 128},
			}},
		})
	}
	if err := sm.SetTopology(topo); err != nil {
		t.Fatal(err)
	}
	if err := sm.SetPackingPlan("t", plan); err != nil {
		t.Fatal(err)
	}
}

// fakeStmgr registers with the TMaster and records plan broadcasts.
type fakeStmgr struct {
	conn  network.Conn
	plans chan *ctrl.PlanPayload
}

func connectStmgr(t *testing.T, tm *TMaster, container int32, addr string) *fakeStmgr {
	t.Helper()
	conn, err := (network.InprocTransport{}).Dial(tm.Addr())
	if err != nil {
		t.Fatal(err)
	}
	f := &fakeStmgr{conn: conn, plans: make(chan *ctrl.PlanPayload, 16)}
	conn.Start(func(kind network.MsgKind, payload []byte) {
		if kind != network.MsgControl {
			return
		}
		if m, err := ctrl.Decode(payload); err == nil && m.Op == ctrl.OpPlan {
			f.plans <- m.Plan
		}
	})
	reg, _ := ctrl.Encode(&ctrl.Message{
		Op: ctrl.OpRegisterStmgr, Topology: "t", Container: container, DataAddr: addr,
	})
	if err := conn.Send(network.MsgControl, reg); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return f
}

// waitPlan reads f's plan broadcasts until one satisfies ok and returns
// it, failing the test after a timeout. The plan read next is not always
// the one a test just caused: registrations are handled on separate conn
// goroutines, and two of them can each see the plan complete and
// broadcast it, so a harmless duplicate may come first.
func (f *fakeStmgr) waitPlan(t *testing.T, want string, ok func(*ctrl.PlanPayload) bool) *ctrl.PlanPayload {
	t.Helper()
	timeout := time.After(5 * time.Second)
	for {
		select {
		case p := <-f.plans:
			if ok(p) {
				return p
			}
		case <-timeout:
			t.Fatalf("no plan broadcast with %s", want)
		}
	}
}

func anyPlan(*ctrl.PlanPayload) bool { return true }

// testLead fences the topology's control log at term 1 on state, as a
// replica winning the first election does before it promotes a TMaster.
func testLead(t *testing.T, state *statemgr.Manager) *Leadership {
	t.Helper()
	lg := replication.NewLog(state, "t")
	if err := lg.Fence(1); err != nil {
		t.Fatal(err)
	}
	return &Leadership{Term: 1, Log: lg, Recovered: &replication.View{}}
}

func newTM(t *testing.T) (*TMaster, *statemgr.Manager, *core.Config) {
	t.Helper()
	cfg := core.NewConfig()
	seeder := testState(t, cfg)
	seedState(t, seeder, 1, 2)
	state := testState(t, cfg)
	tm, err := New(Options{Topology: "t", Cfg: cfg, State: state, Lead: testLead(t, state)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tm.Stop)
	t.Cleanup(func() { seeder.Close() })
	return tm, seeder, cfg
}

func TestAdvertisesEphemeralLocation(t *testing.T) {
	tm, seeder, _ := newTM(t)
	loc, err := seeder.GetTMasterLocation("t")
	if err != nil {
		t.Fatal(err)
	}
	if loc.Addr != tm.Addr() || loc.Transport != "inproc" {
		t.Errorf("location = %+v", loc)
	}
	tm.Stop()
	if _, err := seeder.GetTMasterLocation("t"); err == nil {
		t.Error("location survived TMaster stop (should be ephemeral)")
	}
}

func TestBroadcastWaitsForAllContainers(t *testing.T) {
	tm, _, _ := newTM(t)
	s1 := connectStmgr(t, tm, 1, "addr-1")
	select {
	case <-s1.plans:
		t.Fatal("plan broadcast before all containers registered")
	case <-time.After(100 * time.Millisecond):
	}
	s2 := connectStmgr(t, tm, 2, "addr-2")
	for _, s := range []*fakeStmgr{s1, s2} {
		select {
		case p := <-s.plans:
			if p.Stmgrs[1] != "addr-1" || p.Stmgrs[2] != "addr-2" {
				t.Errorf("directory = %v", p.Stmgrs)
			}
			if p.Epoch < 1 {
				t.Errorf("epoch = %d", p.Epoch)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("no broadcast after all containers registered")
		}
	}
	// Ready closes after the broadcast's sends, so a Stream Manager can
	// hold its plan a moment before Ready does.
	select {
	case <-tm.Ready():
	case <-time.After(5 * time.Second):
		t.Error("Ready not closed")
	}
	if got := tm.Stmgrs(); got[1] != "addr-1" || got[2] != "addr-2" {
		t.Errorf("Stmgrs = %v", got)
	}
}

func TestReregistrationRebroadcastsNewAddress(t *testing.T) {
	tm, _, _ := newTM(t)
	s1 := connectStmgr(t, tm, 1, "addr-1")
	connectStmgr(t, tm, 2, "addr-2")
	s1.waitPlan(t, "both containers", anyPlan)

	// Container 2 restarts with a new address.
	connectStmgr(t, tm, 2, "addr-2b")
	s1.waitPlan(t, "container 2 at addr-2b", func(p *ctrl.PlanPayload) bool {
		return p.Stmgrs[2] == "addr-2b"
	})
}

func TestRefreshAfterScaling(t *testing.T) {
	tm, seeder, _ := newTM(t)
	s1 := connectStmgr(t, tm, 1, "addr-1")
	connectStmgr(t, tm, 2, "addr-2")
	p := s1.waitPlan(t, "both containers", anyPlan)
	if len(p.Packing.Containers) != 2 {
		t.Fatalf("containers = %d", len(p.Packing.Containers))
	}
	// Scale: new packing plan with an extra instance in container 1.
	plan, err := seeder.GetPackingPlan("t")
	if err != nil {
		t.Fatal(err)
	}
	topo, _ := seeder.GetTopology("t")
	topo.Components[0].Parallelism = 3
	plan.Containers[0].Instances = append(plan.Containers[0].Instances, core.InstancePlacement{
		ID:        core.InstanceID{Component: "s", ComponentIndex: 2, TaskID: 2},
		Resources: core.Resource{CPU: 1, RAMMB: 128, DiskMB: 128},
	})
	plan.Containers[0].Required = core.Resource{CPU: 3, RAMMB: 384, DiskMB: 384}
	if err := seeder.SetTopology(topo); err != nil {
		t.Fatal(err)
	}
	if err := seeder.SetPackingPlan("t", plan); err != nil {
		t.Fatal(err)
	}
	tm.Refresh()
	s1.waitPlan(t, "3 instances after refresh", func(p *ctrl.PlanPayload) bool {
		return p.Packing.NumInstances() == 3
	})
}

func TestMetricsCollection(t *testing.T) {
	tm, _, _ := newTM(t)
	s1 := connectStmgr(t, tm, 1, "addr-1")
	snap := &metrics.Snapshot{
		Container: 1, TakenAtUnixNs: 42,
		Counters: []metrics.CounterPoint{{
			ID:    metrics.ID{Name: metrics.MExecuteCount, Tags: metrics.Tags{Component: "s", Task: 0}},
			Value: 7,
		}},
	}
	msg, _ := ctrl.Encode(&ctrl.Message{Op: ctrl.OpMetrics, Topology: "t", Container: 1, Metrics: snap})
	if err := s1.conn.Send(network.MsgControl, msg); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		got := tm.MetricsSnapshots()
		if len(got) == 1 && got[1] != nil && len(got[1].Counters) == 1 && got[1].Counters[0].Value == 7 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("metrics = %v", got)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if n := tm.MetricsView().Counter(metrics.MExecuteCount, "s"); n != 7 {
		t.Errorf("merged view execute-count = %d, want 7", n)
	}
}

func TestNewRejectsMissingDeps(t *testing.T) {
	if _, err := New(Options{Topology: "t"}); err == nil {
		t.Error("missing state accepted")
	}
	cfg := core.NewConfig()
	state := testState(t, cfg)
	defer state.Close()
	if _, err := New(Options{Topology: "t", Cfg: cfg, State: state}); err == nil {
		t.Error("missing leadership accepted")
	}
}
