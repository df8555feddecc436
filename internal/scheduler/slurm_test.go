package scheduler

import (
	"testing"
	"time"

	"heron/internal/cluster"
	"heron/internal/core"
)

func newSlurmFixture(t *testing.T, nodes int, perNode core.Resource) (*Core, *trackingLauncher, *cluster.Cluster) {
	t.Helper()
	cl := cluster.New("slurmsim", nodes, perNode)
	s, l := newScheduler(t, "slurm", cl)
	return s.(*Core), l, cl
}

// allocatedNodes reports the node set a slurm scheduler holds for a topology.
func allocatedNodes(c *Core, topology string) []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []string
	for n := range c.Placement.(*slurm).jobs[topology] {
		out = append(out, n)
	}
	return out
}

func TestSlurmRegistered(t *testing.T) {
	if _, err := core.NewScheduler("slurm"); err != nil {
		t.Fatal(err)
	}
}

func TestSlurmStaticAllocationPlacesAll(t *testing.T) {
	s, l, cl := newSlurmFixture(t, 4, core.Resource{CPU: 8, RAMMB: 8192, DiskMB: 16384})
	if err := s.OnSchedule(plan("t", 1, 2)); err != nil {
		t.Fatal(err)
	}
	for _, id := range []int32{0, 1, 2} {
		if !cl.Allocated("t", id) {
			t.Errorf("container %d not placed", id)
		}
	}
	launches, _ := l.snapshot()
	if launches[0] != 1 || launches[1] != 1 || launches[2] != 1 {
		t.Errorf("launches = %v", launches)
	}
	if len(allocatedNodes(s, "t")) == 0 {
		t.Error("no node allocation recorded")
	}
}

func TestSlurmFailureRestartsInsideAllocation(t *testing.T) {
	s, l, cl := newSlurmFixture(t, 4, core.Resource{CPU: 8, RAMMB: 8192, DiskMB: 16384})
	if err := s.OnSchedule(plan("t", 1, 2)); err != nil {
		t.Fatal(err)
	}
	allocation := map[string]bool{}
	for _, n := range allocatedNodes(s, "t") {
		allocation[n] = true
	}
	if err := cl.InjectFailure("t", 1); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		launches, _ := l.snapshot()
		if cl.Allocated("t", 1) && launches[1] == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("not recovered (launches=%v)", launches)
		}
		time.Sleep(5 * time.Millisecond)
	}
	// The restarted container must sit on an allocation node.
	for _, ns := range cl.Stats() {
		if ns.Used.CPU > 0 && !allocation[ns.Name] {
			t.Errorf("container placed outside allocation on %s", ns.Name)
		}
	}
}

func TestSlurmRejectsWhenClusterTooSmall(t *testing.T) {
	s, _, _ := newSlurmFixture(t, 1, core.Resource{CPU: 2, RAMMB: 2048, DiskMB: 2048})
	if err := s.OnSchedule(plan("t", 1, 2)); err == nil {
		t.Fatal("oversubscribed allocation accepted")
	}
}

func TestSlurmUpdateWithinAllocation(t *testing.T) {
	s, _, cl := newSlurmFixture(t, 2, core.Resource{CPU: 16, RAMMB: 16384, DiskMB: 32768})
	cur := plan("t", 1)
	if err := s.OnSchedule(cur); err != nil {
		t.Fatal(err)
	}
	prop := plan("t", 1, 2)
	if err := s.OnUpdate(core.UpdateRequest{Topology: "t", Current: cur, Proposed: prop}); err != nil {
		t.Fatal(err)
	}
	if !cl.Allocated("t", 2) {
		t.Error("new container not placed")
	}
	// A container too large for the remaining allocation must fail.
	huge := plan("t", 1, 2, 3)
	huge.Containers[2].Required = core.Resource{CPU: 1000, RAMMB: 1, DiskMB: 1}
	if err := s.OnUpdate(core.UpdateRequest{Topology: "t", Current: prop, Proposed: huge}); err == nil {
		t.Error("allocation overflow accepted")
	}
}
