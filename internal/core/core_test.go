package core

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"
)

// wordCountTopology mirrors the paper's Section VI-A workload shape.
func wordCountTopology(spouts, bolts int) *Topology {
	return &Topology{
		Name: "wordcount",
		Components: []ComponentSpec{
			{
				Name: "word", Kind: KindSpout, Parallelism: spouts,
				Resources: Resource{CPU: 1, RAMMB: 512, DiskMB: 512},
				Outputs:   map[string][]string{DefaultStream: {"word"}},
			},
			{
				Name: "count", Kind: KindBolt, Parallelism: bolts,
				Resources: Resource{CPU: 1, RAMMB: 512, DiskMB: 512},
				Inputs: []InputSpec{{
					Component: "word", Grouping: GroupFields, FieldIdx: []int{0},
				}},
			},
		},
	}
}

func TestTopologyValidateOK(t *testing.T) {
	if err := wordCountTopology(2, 3).Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestTopologyValidateErrors(t *testing.T) {
	base := wordCountTopology(1, 1)
	cases := []struct {
		name   string
		mutate func(*Topology)
		want   string
	}{
		{"empty name", func(tp *Topology) { tp.Name = "" }, "empty topology name"},
		{"no components", func(tp *Topology) { tp.Components = nil }, "no components"},
		{"dup component", func(tp *Topology) { tp.Components[1].Name = "word" }, "duplicate component"},
		{"zero parallelism", func(tp *Topology) { tp.Components[0].Parallelism = 0 }, "parallelism"},
		{"spout with inputs", func(tp *Topology) {
			tp.Components[0].Inputs = []InputSpec{{Component: "count", Grouping: GroupShuffle}}
		}, "declares inputs"},
		{"spout no outputs", func(tp *Topology) { tp.Components[0].Outputs = nil }, "no output streams"},
		{"bolt no inputs", func(tp *Topology) { tp.Components[1].Inputs = nil }, "no inputs"},
		{"unknown upstream", func(tp *Topology) { tp.Components[1].Inputs[0].Component = "ghost" }, "unknown component"},
		{"unknown stream", func(tp *Topology) { tp.Components[1].Inputs[0].Stream = "side" }, "unknown stream"},
		{"fields no keys", func(tp *Topology) { tp.Components[1].Inputs[0].FieldIdx = nil }, "without key fields"},
		{"fields bad index", func(tp *Topology) { tp.Components[1].Inputs[0].FieldIdx = []int{5} }, "out of range"},
		{"bad grouping", func(tp *Topology) { tp.Components[1].Inputs[0].Grouping = Grouping(99) }, "grouping"},
		{"partial-key no keys", func(tp *Topology) {
			tp.Components[1].Inputs[0].Grouping = GroupPartialKey
			tp.Components[1].Inputs[0].FieldIdx = nil
		}, "without key fields"},
		{"partial-key bad index", func(tp *Topology) {
			tp.Components[1].Inputs[0].Grouping = GroupPartialKey
			tp.Components[1].Inputs[0].FieldIdx = []int{7}
		}, "out of range"},
		{"direct no field", func(tp *Topology) {
			tp.Components[1].Inputs[0].Grouping = GroupDirect
			tp.Components[1].Inputs[0].FieldIdx = nil
		}, "exactly one index field"},
		{"direct two fields", func(tp *Topology) {
			tp.Components[1].Inputs[0].Grouping = GroupDirect
			tp.Components[1].Inputs[0].FieldIdx = []int{0, 0}
		}, "exactly one index field"},
		{"direct bad index", func(tp *Topology) {
			tp.Components[1].Inputs[0].Grouping = GroupDirect
			tp.Components[1].Inputs[0].FieldIdx = []int{5}
		}, "out of range"},
		{"custom unnamed", func(tp *Topology) {
			tp.Components[1].Inputs[0].Grouping = GroupCustom
			tp.Components[1].Inputs[0].Strategy = ""
		}, "without a strategy name"},
		{"custom unregistered", func(tp *Topology) {
			tp.Components[1].Inputs[0].Grouping = GroupCustom
			tp.Components[1].Inputs[0].Strategy = "no-such-strategy"
		}, "not registered"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tp := wordCountTopology(1, 1)
			_ = base
			tc.mutate(tp)
			err := tp.Validate()
			if err == nil {
				t.Fatal("want error")
			}
			if !errors.Is(err, ErrInvalidTopology) {
				t.Errorf("error not wrapped: %v", err)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestTopologyValidateCycle(t *testing.T) {
	tp := &Topology{
		Name: "cyclic",
		Components: []ComponentSpec{
			{Name: "s", Kind: KindSpout, Parallelism: 1, Outputs: map[string][]string{"default": {"x"}}},
			{Name: "a", Kind: KindBolt, Parallelism: 1,
				Inputs:  []InputSpec{{Component: "s", Grouping: GroupShuffle}, {Component: "b", Grouping: GroupShuffle}},
				Outputs: map[string][]string{"default": {"x"}}},
			{Name: "b", Kind: KindBolt, Parallelism: 1,
				Inputs:  []InputSpec{{Component: "a", Grouping: GroupShuffle}},
				Outputs: map[string][]string{"default": {"x"}}},
		},
	}
	if err := tp.Validate(); err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Errorf("want cycle error, got %v", err)
	}
}

func TestTopologyAccessors(t *testing.T) {
	tp := wordCountTopology(2, 3)
	if got := tp.Spouts(); len(got) != 1 || got[0] != "word" {
		t.Errorf("Spouts = %v", got)
	}
	if got := tp.Bolts(); len(got) != 1 || got[0] != "count" {
		t.Errorf("Bolts = %v", got)
	}
	if tp.TotalInstances() != 5 {
		t.Errorf("TotalInstances = %d", tp.TotalInstances())
	}
	if tp.Component("word") == nil || tp.Component("nope") != nil {
		t.Error("Component lookup wrong")
	}
}

func TestResourceArithmetic(t *testing.T) {
	a := Resource{CPU: 1.5, RAMMB: 100, DiskMB: 10}
	b := Resource{CPU: 0.5, RAMMB: 50, DiskMB: 20}
	if got := a.Add(b); got != (Resource{CPU: 2, RAMMB: 150, DiskMB: 30}) {
		t.Errorf("Add = %v", got)
	}
	if got := a.Sub(b); got != (Resource{CPU: 1, RAMMB: 50, DiskMB: -10}) {
		t.Errorf("Sub = %v", got)
	}
	if got := a.Max(b); got != (Resource{CPU: 1.5, RAMMB: 100, DiskMB: 20}) {
		t.Errorf("Max = %v", got)
	}
	c := Resource{CPU: 0.5, RAMMB: 50, DiskMB: 5}
	if !c.Fits(a) || a.Fits(c) || b.Fits(a) {
		t.Error("Fits wrong")
	}
	if !(Resource{}).IsZero() || a.IsZero() {
		t.Error("IsZero wrong")
	}
}

func TestResourceMaxProperty(t *testing.T) {
	f := func(c1, c2 float64, r1, r2, d1, d2 int16) bool {
		a := Resource{CPU: abs(c1), RAMMB: absi(int64(r1)), DiskMB: absi(int64(d1))}
		b := Resource{CPU: abs(c2), RAMMB: absi(int64(r2)), DiskMB: absi(int64(d2))}
		m := a.Max(b)
		return a.Fits(m) && b.Fits(m)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func abs(f float64) float64 {
	if f < 0 {
		return -f
	}
	return f
}

func absi(i int64) int64 {
	if i < 0 {
		return -i
	}
	return i
}

// manualPlan builds a valid two-container plan for wordCountTopology(2, 2).
func manualPlan() (*Topology, *PackingPlan) {
	tp := wordCountTopology(2, 2)
	req := Resource{CPU: 1, RAMMB: 512, DiskMB: 512}
	plan := &PackingPlan{
		Topology: "wordcount",
		Containers: []ContainerPlan{
			{ID: 1, Required: Resource{CPU: 4, RAMMB: 4096, DiskMB: 4096}, Instances: []InstancePlacement{
				{ID: InstanceID{Component: "word", ComponentIndex: 0, TaskID: 0}, Resources: req},
				{ID: InstanceID{Component: "count", ComponentIndex: 0, TaskID: 2}, Resources: req},
			}},
			{ID: 2, Required: Resource{CPU: 4, RAMMB: 4096, DiskMB: 4096}, Instances: []InstancePlacement{
				{ID: InstanceID{Component: "word", ComponentIndex: 1, TaskID: 1}, Resources: req},
				{ID: InstanceID{Component: "count", ComponentIndex: 1, TaskID: 3}, Resources: req},
			}},
		},
	}
	return tp, plan
}

func TestPackingPlanValidate(t *testing.T) {
	tp, plan := manualPlan()
	if err := plan.Validate(tp); err != nil {
		t.Fatal(err)
	}
	if plan.NumInstances() != 4 {
		t.Errorf("NumInstances = %d", plan.NumInstances())
	}
	counts := plan.ComponentCounts()
	if counts["word"] != 2 || counts["count"] != 2 {
		t.Errorf("ComponentCounts = %v", counts)
	}
}

func TestPackingPlanValidateErrors(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*PackingPlan)
		want   string
	}{
		{"container zero", func(p *PackingPlan) { p.Containers[0].ID = 0 }, "reserved"},
		{"dup container", func(p *PackingPlan) { p.Containers[1].ID = 1 }, "duplicate container"},
		{"dup task", func(p *PackingPlan) { p.Containers[1].Instances[0].ID.TaskID = 0 }, "duplicate task"},
		{"unknown component", func(p *PackingPlan) { p.Containers[0].Instances[0].ID.Component = "ghost" }, "unknown component"},
		{"index out of range", func(p *PackingPlan) { p.Containers[0].Instances[0].ID.ComponentIndex = 9 }, "out of range"},
		{"dup index", func(p *PackingPlan) {
			p.Containers[1].Instances[0].ID.ComponentIndex = 0
		}, "duplicate instance"},
		{"overflow ask", func(p *PackingPlan) { p.Containers[0].Required = Resource{CPU: 0.1} }, "exceed"},
		{"missing instance", func(p *PackingPlan) {
			p.Containers[0].Instances = p.Containers[0].Instances[:1]
		}, "placed instances"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tp, plan := manualPlan()
			tc.mutate(plan)
			err := plan.Validate(tp)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("want error containing %q, got %v", tc.want, err)
			}
		})
	}
}

func TestPackingPlanCloneAndNormalize(t *testing.T) {
	_, plan := manualPlan()
	cp := plan.Clone()
	cp.Containers[0].Instances[0].ID.TaskID = 99
	if plan.Containers[0].Instances[0].ID.TaskID == 99 {
		t.Error("Clone aliases original")
	}
	// Shuffle then normalize.
	plan.Containers[0], plan.Containers[1] = plan.Containers[1], plan.Containers[0]
	plan.Normalize()
	if plan.Containers[0].ID != 1 || plan.Containers[1].ID != 2 {
		t.Error("Normalize did not sort containers")
	}
}

func TestPackingPlanMaxRequired(t *testing.T) {
	_, plan := manualPlan()
	plan.Containers[1].Required = Resource{CPU: 8, RAMMB: 100, DiskMB: 9999}
	got := plan.MaxRequired()
	want := Resource{CPU: 8, RAMMB: 4096, DiskMB: 9999}
	if got != want {
		t.Errorf("MaxRequired = %v, want %v", got, want)
	}
}

func TestPhysicalPlan(t *testing.T) {
	tp, plan := manualPlan()
	pp, err := NewPhysicalPlan(tp, plan)
	if err != nil {
		t.Fatal(err)
	}
	if len(pp.Tasks) != 4 {
		t.Fatalf("Tasks = %d", len(pp.Tasks))
	}
	if pp.Tasks[0].Component != "word" || pp.Tasks[0].ContainerID != 1 {
		t.Errorf("task 0 = %+v", pp.Tasks[0])
	}
	if pp.Tasks[1].ContainerID != 2 {
		t.Errorf("task 1 container = %d", pp.Tasks[1].ContainerID)
	}
	id, ok := pp.StreamID("word", "")
	if !ok {
		t.Fatal("missing stream")
	}
	si := pp.Streams[id]
	if si.SrcComponent != "word" || si.Stream != DefaultStream {
		t.Errorf("stream = %+v", si)
	}
	if len(si.Consumers) != 1 {
		t.Fatalf("consumers = %d", len(si.Consumers))
	}
	cons := si.Consumers[0]
	if cons.Component != "count" || cons.Grouping != GroupFields {
		t.Errorf("consumer = %+v", cons)
	}
	// Consumer tasks must be in component-index order.
	if len(cons.Tasks) != 2 || cons.Tasks[0] != 2 || cons.Tasks[1] != 3 {
		t.Errorf("consumer tasks = %v", cons.Tasks)
	}
	if got := pp.ComponentTasks("word"); len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Errorf("ComponentTasks = %v", got)
	}
	if got := pp.ContainerTasks(1); len(got) != 2 {
		t.Errorf("ContainerTasks(1) = %v", got)
	}
	if pp.TaskContainer(3) != 2 || pp.TaskContainer(99) != -1 {
		t.Error("TaskContainer wrong")
	}
	if got := pp.SpoutTasks(); len(got) != 2 {
		t.Errorf("SpoutTasks = %v", got)
	}
}

func TestPhysicalPlanRejectsInvalidPacking(t *testing.T) {
	tp, plan := manualPlan()
	plan.Containers[0].Instances[0].ID.TaskID = 3 // duplicate
	if _, err := NewPhysicalPlan(tp, plan); err == nil {
		t.Fatal("want error")
	}
}

func TestConfigDefaultsAndValidate(t *testing.T) {
	c := NewConfig()
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if c.PackingAlgorithm != "roundrobin" || c.SchedulerName != "local" {
		t.Error("unexpected defaults")
	}
	c2 := c.Clone()
	c2.Extra["k"] = "v"
	if _, ok := c.Extra["k"]; ok {
		t.Error("Clone aliases Extra")
	}
	if c2.World != c.World || NewConfig().World == c.World {
		t.Error("Clone must share the World and NewConfig must make its own")
	}
	for _, bad := range []struct {
		name  string
		apply func(*Config)
	}{
		{"msp without acking", func(c *Config) { c.MaxSpoutPending = 10 }},
		{"zero containers", func(c *Config) { c.NumContainers = 0 }},
		{"nil World", func(c *Config) { c.World = nil }},
	} {
		c := NewConfig()
		bad.apply(c)
		if err := c.Validate(); err == nil {
			t.Errorf("want error: %s", bad.name)
		}
	}
}

func TestRegistry(t *testing.T) {
	RegisterResourceManager("test-rm", func() ResourceManager { return nil })
	if _, err := NewResourceManager("test-rm"); err != nil {
		t.Fatal(err)
	}
	if _, err := NewResourceManager("absent"); !errors.Is(err, ErrNotFound) {
		t.Errorf("want ErrNotFound, got %v", err)
	}
	found := false
	for _, n := range ResourceManagerNames() {
		if n == "test-rm" {
			found = true
		}
	}
	if !found {
		t.Error("registered name not listed")
	}
	defer func() {
		if recover() == nil {
			t.Error("duplicate registration should panic")
		}
	}()
	RegisterResourceManager("test-rm", func() ResourceManager { return nil })
}

func TestKindAndGroupingStrings(t *testing.T) {
	if KindSpout.String() != "spout" || KindBolt.String() != "bolt" {
		t.Error("kind strings")
	}
	if ComponentKind(9).String() == "" {
		t.Error("unknown kind string empty")
	}
	for g, want := range map[Grouping]string{
		GroupShuffle: "shuffle", GroupFields: "fields", GroupAll: "all", GroupGlobal: "global",
		GroupPartialKey: "partial-key", GroupDirect: "direct", GroupCustom: "custom",
	} {
		if g.String() != want {
			t.Errorf("%v != %s", g, want)
		}
	}
	if Grouping(42).String() == "" {
		t.Error("unknown grouping string empty")
	}
}

func TestInstanceIDString(t *testing.T) {
	id := InstanceID{Component: "word", ComponentIndex: 2, TaskID: 7}
	if id.String() != "word[2]#7" {
		t.Errorf("String = %q", id.String())
	}
}
