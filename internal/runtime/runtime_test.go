package runtime

import (
	"sync/atomic"
	"testing"
	"time"

	"heron/api"
	"heron/internal/core"
	"heron/internal/statemgr"
)

type countingSpout struct {
	out api.SpoutCollector
	n   *atomic.Int64
}

func (s *countingSpout) Open(_ api.TopologyContext, out api.SpoutCollector) error {
	s.out = out
	return nil
}

func (s *countingSpout) NextTuple() bool {
	s.out.Emit("", nil, "x")
	s.n.Add(1)
	return true
}

func (s *countingSpout) Ack(any)      {}
func (s *countingSpout) Fail(any)     {}
func (s *countingSpout) Close() error { return nil }

type countingBolt struct {
	n   *atomic.Int64
	out api.BoltCollector
}

func (b *countingBolt) Prepare(_ api.TopologyContext, out api.BoltCollector) error {
	b.out = out
	return nil
}

func (b *countingBolt) Execute(t api.Tuple) error {
	b.n.Add(1)
	b.out.Ack(t)
	return nil
}

func (b *countingBolt) Cleanup() error { return nil }

func setup(t *testing.T) (*Engine, *core.Config, *atomic.Int64, *atomic.Int64) {
	t.Helper()
	cfg := core.NewConfig()

	var emitted, executed atomic.Int64
	b := api.NewTopologyBuilder("rt")
	b.SetSpout("s", func() api.Spout { return &countingSpout{n: &emitted} }, 1).OutputFields("v")
	b.SetBolt("b", func() api.Bolt { return &countingBolt{n: &executed} }, 1).ShuffleGrouping("s", "")
	spec, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}

	// Seed the state the launcher reads.
	sm, err := statemgr.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sm.Close() })
	if err := sm.SetTopology(spec.Topology); err != nil {
		t.Fatal(err)
	}
	plan := &core.PackingPlan{Topology: "rt", Containers: []core.ContainerPlan{
		{ID: 1, Required: core.Resource{CPU: 4, RAMMB: 4096, DiskMB: 4096},
			Instances: []core.InstancePlacement{
				{ID: core.InstanceID{Component: "s", ComponentIndex: 0, TaskID: 0},
					Resources: core.Resource{CPU: 1, RAMMB: 1024, DiskMB: 1024}},
				{ID: core.InstanceID{Component: "b", ComponentIndex: 0, TaskID: 1},
					Resources: core.Resource{CPU: 1, RAMMB: 1024, DiskMB: 1024}},
			}},
	}}
	if err := sm.SetPackingPlan("rt", plan); err != nil {
		t.Fatal(err)
	}
	return NewEngine(cfg, spec), cfg, &emitted, &executed
}

func TestLaunchTMasterAndWorker(t *testing.T) {
	engine, _, emitted, executed := setup(t)
	stopTM, err := engine.LaunchContainer("rt", core.TMasterContainerID)
	if err != nil {
		t.Fatal(err)
	}
	defer stopTM()
	if engine.TMaster() == nil {
		t.Fatal("TMaster not exposed")
	}
	stopW, err := engine.LaunchContainer("rt", 1)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for executed.Load() < 1000 {
		if time.Now().After(deadline) {
			t.Fatalf("emitted=%d executed=%d", emitted.Load(), executed.Load())
		}
		time.Sleep(10 * time.Millisecond)
	}
	if engine.Registry(1) == nil {
		t.Error("container registry missing")
	}
	if len(engine.Registries()) != 1 {
		t.Errorf("registries = %d", len(engine.Registries()))
	}
	stopW()
	// After the worker stops, counts must stop growing.
	time.Sleep(100 * time.Millisecond)
	base := executed.Load()
	time.Sleep(200 * time.Millisecond)
	if got := executed.Load(); got != base {
		t.Errorf("bolt still executing after stop: %d → %d", base, got)
	}
}

func TestLaunchUnknownContainerFails(t *testing.T) {
	engine, _, _, _ := setup(t)
	if _, err := engine.LaunchContainer("rt", 99); err == nil {
		t.Error("unknown container accepted")
	}
	if _, err := engine.LaunchContainer("ghost-topology", 1); err == nil {
		t.Error("unknown topology accepted")
	}
}
