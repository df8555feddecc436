package scheduler

import (
	"testing"
	"time"

	"heron/internal/cluster"
	"heron/internal/core"
)

func newMesosFixture(t *testing.T) (core.Scheduler, *trackingLauncher, *cluster.Cluster) {
	t.Helper()
	cl := cluster.New("mesossim", 4, core.Resource{CPU: 8, RAMMB: 8192, DiskMB: 16384})
	s, l := newScheduler(t, "mesos", cl)
	return s, l, cl
}

func TestMesosRegistered(t *testing.T) {
	if _, err := core.NewScheduler("mesos"); err != nil {
		t.Fatal(err)
	}
}

func TestMesosOfferBasedPlacement(t *testing.T) {
	s, l, cl := newMesosFixture(t)
	// Each node holds 8 CPUs; asks of 6 CPUs each must land on distinct
	// nodes — the scheduler chooses placements from offers.
	p := plan("t", 1, 2, 3)
	for i := range p.Containers {
		p.Containers[i].Required = core.Resource{CPU: 6, RAMMB: 4096, DiskMB: 4096}
	}
	if err := s.OnSchedule(p); err != nil {
		t.Fatal(err)
	}
	launches, _ := l.snapshot()
	for _, id := range []int32{0, 1, 2, 3} {
		if launches[id] != 1 {
			t.Errorf("container %d launches = %d", id, launches[id])
		}
	}
	// No node may be over-committed.
	for _, ns := range cl.Stats() {
		if !ns.Used.Fits(ns.Capacity) {
			t.Errorf("node %s overcommitted: %v > %v", ns.Name, ns.Used, ns.Capacity)
		}
	}
	// 3×6 CPU containers cannot share nodes: exactly three nodes carry 6+.
	busy := 0
	for _, ns := range cl.Stats() {
		if ns.Used.CPU >= 6 {
			busy++
		}
	}
	if busy != 3 {
		t.Errorf("6-CPU containers on %d nodes, want 3", busy)
	}
}

func TestMesosTaskLostRecovery(t *testing.T) {
	s, l, cl := newMesosFixture(t)
	if err := s.OnSchedule(plan("t", 1, 2)); err != nil {
		t.Fatal(err)
	}
	if err := cl.InjectFailure("t", 2); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		launches, _ := l.snapshot()
		if cl.Allocated("t", 2) && launches[2] == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("task-lost not recovered (launches=%v)", launches)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestMesosOnScheduleFailsWhenNoOfferFits(t *testing.T) {
	s, _, _ := newMesosFixture(t)
	p := plan("t", 1)
	p.Containers[0].Required = core.Resource{CPU: 100, RAMMB: 1, DiskMB: 1}
	if err := s.OnSchedule(p); err == nil {
		t.Fatal("oversized ask accepted")
	}
}

func TestMesosUpdate(t *testing.T) {
	s, _, cl := newMesosFixture(t)
	cur := plan("t", 1, 2)
	if err := s.OnSchedule(cur); err != nil {
		t.Fatal(err)
	}
	prop := plan("t", 1, 3)
	if err := s.OnUpdate(core.UpdateRequest{Topology: "t", Current: cur, Proposed: prop}); err != nil {
		t.Fatal(err)
	}
	if cl.Allocated("t", 2) || !cl.Allocated("t", 3) {
		t.Error("update placement wrong")
	}
	if err := s.OnKill(core.KillRequest{Topology: "t"}); err != nil {
		t.Fatal(err)
	}
	for _, ns := range cl.Stats() {
		if !ns.Used.IsZero() {
			t.Errorf("node %s leaked: %v", ns.Name, ns.Used)
		}
	}
}

func TestClusterOffers(t *testing.T) {
	cl := cluster.New("o", 2, core.Resource{CPU: 4, RAMMB: 4096, DiskMB: 4096})
	offers := cl.Offers()
	if len(offers) != 2 || offers[0].Free.CPU != 4 {
		t.Fatalf("offers = %+v", offers)
	}
	l := newTrackingLauncher()
	if err := cl.AllocateOn(offers[0].Node, "t", 1, core.Resource{CPU: 3, RAMMB: 1024, DiskMB: 1024}, l, cluster.AllocateOptions{}); err != nil {
		t.Fatal(err)
	}
	// The accepted offer shrinks; a stale acceptance must fail.
	if err := cl.AllocateOn(offers[0].Node, "t", 2, core.Resource{CPU: 3, RAMMB: 1024, DiskMB: 1024}, l, cluster.AllocateOptions{}); err == nil {
		t.Error("stale offer accepted")
	}
	if err := cl.AllocateOn("no-such-node", "t", 3, core.Resource{CPU: 1}, l, cluster.AllocateOptions{}); err == nil {
		t.Error("unknown node accepted")
	}
}
