package statemgr

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"heron/internal/core"
)

// eachBackend is the State Manager conformance table: it runs a case as
// one subtest per registered backend, so a newly registered kernel is
// covered without edits. open starts a new session on the subtest's
// private tree; several calls model separate processes sharing it. Every
// session is closed when the subtest ends.
func eachBackend(t *testing.T, run func(t *testing.T, open func() *Manager)) {
	for _, name := range core.StateManagerNames() {
		t.Run(name, func(t *testing.T) { run(t, sessions(t, name)) })
	}
}

// sessions returns the opener of sessions of the backend registered as
// name, all on one tree private to t.
func sessions(t *testing.T, name string) func() *Manager {
	cfg := core.NewConfig()
	cfg.StateManagerName = name
	cfg.Extra["localfs.root"] = t.TempDir()
	return func() *Manager {
		m, err := Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { m.Close() })
		return m
	}
}

// nodeEvent is one watch callback.
type nodeEvent struct {
	data   string
	exists bool
}

// watchEvents watches path and returns the channel its callbacks land on.
func watchEvents(t *testing.T, m *Manager, path string) <-chan nodeEvent {
	t.Helper()
	events := make(chan nodeEvent, 64) // far more than any test writes
	cancel, err := m.WatchNode(path, func(data []byte, exists bool) {
		events <- nodeEvent{string(data), exists}
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cancel)
	return events
}

// awaitEvent reads events until one satisfies ok. Poll-based watches may
// coalesce the transitions between two polls, so a case waits for the
// state it needs rather than counting events.
func awaitEvent(t *testing.T, events <-chan nodeEvent, what string, ok func(nodeEvent) bool) nodeEvent {
	t.Helper()
	deadline := time.After(5 * time.Second)
	for {
		select {
		case ev := <-events:
			if ok(ev) {
				return ev
			}
		case <-deadline:
			t.Fatalf("watch never delivered %s", what)
		}
	}
}

func TestStoreBasicOps(t *testing.T) {
	eachBackend(t, func(t *testing.T, open func() *Manager) {
		s := open()
		parentEvents := watchEvents(t, s, "/a/b")
		if err := s.Set("/a/b/c", []byte("v1"), false); err != nil {
			t.Fatal(err)
		}
		awaitEvent(t, parentEvents, "the implicit creation of /a/b", func(ev nodeEvent) bool { return ev.exists })
		b, v, ok, err := s.GetVersioned("/a/b/c")
		if err != nil || !ok || string(b) != "v1" || v != 1 {
			t.Fatalf("Get = %q v%d %v %v", b, v, ok, err)
		}
		// Parents were created implicitly, as persistent nodes at version 1.
		for _, p := range []string{"/a", "/a/b"} {
			if _, v, ok, err := s.GetVersioned(p); err != nil || !ok || v != 1 {
				t.Errorf("parent %s: v%d ok=%v err=%v, want a node at version 1", p, v, ok, err)
			}
		}
		if _, err := s.SetIf("/a/b", []byte("x"), 0); !errors.Is(err, core.ErrVersionMismatch) {
			t.Errorf("SetIf(/a/b, expect 0) = %v, want ErrVersionMismatch: the parent exists", err)
		}
		if kids, err := s.NodeChildren("/a"); err != nil || len(kids) != 1 || kids[0] != "b" {
			t.Errorf("children of /a = %v, %v", kids, err)
		}
		if err := s.Set("/a/b/c", []byte("v2"), false); err != nil {
			t.Fatal(err)
		}
		if b, v, _, _ = s.GetVersioned("/a/b/c"); string(b) != "v2" || v != 2 {
			t.Errorf("after update: %q v%d", b, v)
		}
		if err := s.DeleteNode("/a/b/c"); err != nil {
			t.Fatal(err)
		}
		if _, _, ok, _ := s.GetVersioned("/a/b/c"); ok {
			t.Error("still exists after delete")
		}
		if err := s.DeleteNode("/a/b/c"); err != nil {
			t.Error("delete absent should be no-op:", err)
		}
	})
}

func TestStoreBadPaths(t *testing.T) {
	eachBackend(t, func(t *testing.T, open func() *Manager) {
		s := open()
		for _, p := range []string{"", "a", "/a//b", "/a/"} {
			if err := s.Set(p, nil, false); err == nil {
				t.Errorf("Set(%q) should fail", p)
			}
		}
	})
}

func TestStoreChildren(t *testing.T) {
	eachBackend(t, func(t *testing.T, open func() *Manager) {
		s := open()
		for _, p := range []string{"/t/a/x", "/t/b", "/t/c/deep/deeper", "/other"} {
			if err := s.Set(p, nil, false); err != nil {
				t.Fatal(err)
			}
		}
		kids, err := s.NodeChildren("/t")
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(kids) != "[a b c]" {
			t.Fatalf("children = %v, want [a b c]", kids)
		}
	})
}

// TestEphemeralDiesWithSession: an ephemeral node vanishes when its
// session closes, and other sessions' watches observe the deletion.
func TestEphemeralDiesWithSession(t *testing.T) {
	eachBackend(t, func(t *testing.T, open func() *Manager) {
		owner, observer := open(), open()
		if err := owner.Set("/eph", []byte("x"), true); err != nil {
			t.Fatal(err)
		}
		if _, _, ok, _ := observer.GetVersioned("/eph"); !ok {
			t.Fatal("ephemeral not visible")
		}
		events := watchEvents(t, observer, "/eph")
		owner.Close()
		if _, _, ok, _ := observer.GetVersioned("/eph"); ok {
			t.Error("ephemeral survived session close")
		}
		if ev := awaitEvent(t, events, "any event", func(nodeEvent) bool { return true }); ev.exists {
			t.Errorf("first watch event = %+v, want the deletion", ev)
		}
	})
}

func TestPersistentSurvivesSession(t *testing.T) {
	eachBackend(t, func(t *testing.T, open func() *Manager) {
		s1 := open()
		if err := s1.Set("/persist", []byte("x"), false); err != nil {
			t.Fatal(err)
		}
		s1.Close()
		if _, _, ok, _ := open().GetVersioned("/persist"); !ok {
			t.Error("persistent node died with session")
		}
	})
	// Another World is another ensemble: its memory tree of the same
	// StateRoot has no /persist.
	t.Run("memory-fresh-world", func(t *testing.T) {
		s1 := sessions(t, "memory")()
		if err := s1.Set("/persist", []byte("x"), false); err != nil {
			t.Fatal(err)
		}
		if _, _, ok, _ := sessions(t, "memory")().GetVersioned("/persist"); ok {
			t.Error("a session on a fresh World sees another World's node")
		}
	})
}

// TestWorldCloseNamesOpenTrees: World.Close names a memory tree while a
// session on it is open, and reports nothing once every session closed or
// was abandoned.
func TestWorldCloseNamesOpenTrees(t *testing.T) {
	cfg := core.NewConfig()
	closed, abandoned := &Session{}, &Session{}
	for _, s := range []*Session{closed, abandoned} {
		if err := s.Initialize(cfg); err != nil {
			t.Fatal(err)
		}
	}
	if err := cfg.World.Close(); err == nil || !strings.Contains(err.Error(), `"/heron" has 2 open sessions`) {
		t.Fatalf("World.Close with two open sessions = %v", err)
	}
	closed.Close()
	abandoned.Abandon()
	if err := cfg.World.Close(); err != nil {
		t.Fatalf("World.Close after every session ended = %v", err)
	}
}

// TestWatchFiresOnSetAndDelete pins the memory store's synchronous,
// uncoalesced delivery: one callback per write, in order, none after
// cancel.
func TestWatchFiresOnSetAndDelete(t *testing.T) {
	cfg := core.NewConfig()
	s := &Session{}
	if err := s.Initialize(cfg); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var mu sync.Mutex
	var got []nodeEvent
	cancel, err := s.WatchNode("/w", func(d []byte, exists bool) {
		mu.Lock()
		got = append(got, nodeEvent{string(d), exists})
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Set("/w", []byte("1"), false)
	s.Set("/w", []byte("2"), false)
	s.DeleteNode("/w")
	cancel()
	s.Set("/w", []byte("3"), false) // after cancel: no event
	mu.Lock()
	defer mu.Unlock()
	want := []nodeEvent{{"1", true}, {"2", true}, {"", false}}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("events = %v, want %v", got, want)
	}
}

func TestClosedSessionRejectsOps(t *testing.T) {
	eachBackend(t, func(t *testing.T, open func() *Manager) {
		s := open()
		s.Close()
		if err := s.Set("/x", nil, false); !errors.Is(err, ErrClosedSession) {
			t.Errorf("Set: %v", err)
		}
		if _, _, _, err := s.GetVersioned("/x"); !errors.Is(err, ErrClosedSession) {
			t.Errorf("Get: %v", err)
		}
		if _, err := s.WatchNode("/x", nil); !errors.Is(err, ErrClosedSession) {
			t.Errorf("Watch: %v", err)
		}
		if err := s.Close(); err != nil {
			t.Error("double close should be fine:", err)
		}
	})
}

func TestStorePropertySetGet(t *testing.T) {
	eachBackend(t, func(t *testing.T, open func() *Manager) {
		s := open()
		f := func(key uint16, val []byte) bool {
			p := fmt.Sprintf("/prop/%d", key)
			if err := s.Set(p, val, false); err != nil {
				return false
			}
			got, _, ok, err := s.GetVersioned(p)
			return err == nil && ok && bytes.Equal(got, val)
		}
		if err := quick.Check(f, nil); err != nil {
			t.Error(err)
		}
	})
}

func sampleTopology() *core.Topology {
	return &core.Topology{
		Name: "wc",
		Components: []core.ComponentSpec{
			{Name: "word", Kind: core.KindSpout, Parallelism: 2,
				Outputs: map[string][]string{"default": {"word"}}},
			{Name: "count", Kind: core.KindBolt, Parallelism: 2,
				Inputs: []core.InputSpec{{Component: "word", Grouping: core.GroupFields, FieldIdx: []int{0}}}},
		},
	}
}

func TestStateManagerTopologyRoundTrip(t *testing.T) {
	eachBackend(t, func(t *testing.T, open func() *Manager) {
		sm := open()
		if err := sm.SetTopology(sampleTopology()); err != nil {
			t.Fatal(err)
		}
		got, err := sm.GetTopology("wc")
		if err != nil {
			t.Fatal(err)
		}
		if got.Name != "wc" || len(got.Components) != 2 {
			t.Errorf("topology = %+v", got)
		}
		if got.Components[1].Inputs[0].Grouping != core.GroupFields {
			t.Error("grouping lost in round trip")
		}
		names, err := sm.ListTopologies()
		if err != nil || len(names) != 1 || names[0] != "wc" {
			t.Errorf("ListTopologies = %v, %v", names, err)
		}
		if err := sm.DeleteTopology("wc"); err != nil {
			t.Fatal(err)
		}
		if _, err := sm.GetTopology("wc"); !errors.Is(err, core.ErrNotFound) {
			t.Errorf("after delete: %v", err)
		}
		names, _ = sm.ListTopologies()
		if len(names) != 0 {
			t.Errorf("after delete list = %v", names)
		}
	})
}

func TestStateManagerPackingPlanRoundTrip(t *testing.T) {
	eachBackend(t, func(t *testing.T, open func() *Manager) {
		sm := open()
		if _, err := sm.GetPackingPlan("wc"); !errors.Is(err, core.ErrNotFound) {
			t.Errorf("absent plan: %v", err)
		}
		plan := &core.PackingPlan{Topology: "wc", Containers: []core.ContainerPlan{
			{ID: 1, Required: core.Resource{CPU: 2, RAMMB: 2048, DiskMB: 2048},
				Instances: []core.InstancePlacement{
					{ID: core.InstanceID{Component: "word", TaskID: 0}, Resources: core.Resource{CPU: 1, RAMMB: 1024, DiskMB: 1024}},
				}},
		}}
		if err := sm.SetPackingPlan("wc", plan); err != nil {
			t.Fatal(err)
		}
		got, err := sm.GetPackingPlan("wc")
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Containers) != 1 || got.Containers[0].Instances[0].ID.Component != "word" {
			t.Errorf("plan = %+v", got)
		}
	})
}

// TestStateManagerSchedulerLocation: the record has no reader in the
// engine, so the case reads it back through the kernel.
func TestStateManagerSchedulerLocation(t *testing.T) {
	eachBackend(t, func(t *testing.T, open func() *Manager) {
		sm := open()
		loc := core.SchedulerLocation{Topology: "wc", Kind: "yarn", FrameworkURL: "sim://cluster-1"}
		if err := sm.SetSchedulerLocation(loc); err != nil {
			t.Fatal(err)
		}
		b, _, ok, err := sm.GetVersioned(recordPath("wc", schedulerRecord))
		var got core.SchedulerLocation
		if err != nil || !ok || json.Unmarshal(b, &got) != nil || got != loc {
			t.Errorf("got %+v (%q, ok=%v), %v", got, b, ok, err)
		}
	})
}

func TestStateManagerTMasterLocationAndWatch(t *testing.T) {
	eachBackend(t, func(t *testing.T, open func() *Manager) {
		sm := open()
		events := make(chan core.TMasterLocation, 8)
		cancel, err := sm.WatchTMasterLocation("wc", func(loc core.TMasterLocation) {
			events <- loc
		})
		if err != nil {
			t.Fatal(err)
		}
		defer cancel()
		loc := core.TMasterLocation{Topology: "wc", Transport: "inproc", Addr: "tm-1", SessionID: 1}
		if err := sm.SetTMasterLocation(loc); err != nil {
			t.Fatal(err)
		}
		got, err := sm.GetTMasterLocation("wc")
		if err != nil || got != loc {
			t.Fatalf("Get = %+v, %v", got, err)
		}
		select {
		case ev := <-events:
			if ev != loc {
				t.Errorf("watch event = %+v", ev)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("watch did not fire on set")
		}
	})
}

// TestTMasterEphemeralOnCloseNotAbandon: a TMaster's location record dies
// with its session's Close — every Stream Manager's watch observes the
// zero location (the paper's Section IV-C failure-detection mechanism) —
// but survives an Abandon, which models a hard crash.
func TestTMasterEphemeralOnCloseNotAbandon(t *testing.T) {
	eachBackend(t, func(t *testing.T, open func() *Manager) {
		observer := open()
		locs := make(chan core.TMasterLocation, 8)
		if _, err := observer.WatchTMasterLocation("wc", func(loc core.TMasterLocation) {
			locs <- loc
		}); err != nil {
			t.Fatal(err)
		}
		// await reads locations until want arrives: a poll-based watch
		// coalesces the changes between two polls, so the test lets it see
		// the advertisement before the death.
		await := func(want string) {
			t.Helper()
			deadline := time.After(5 * time.Second)
			for {
				select {
				case loc := <-locs:
					if loc.Addr == want {
						return
					}
				case <-deadline:
					t.Fatalf("watch never delivered location %q", want)
				}
			}
		}

		crashed := open()
		if err := crashed.SetTMasterLocation(core.TMasterLocation{Topology: "wc", Addr: "tm-0"}); err != nil {
			t.Fatal(err)
		}
		crashed.Abandon()
		if _, err := observer.GetTMasterLocation("wc"); err != nil {
			t.Fatalf("location of an abandoned session vanished: %v", err)
		}

		tmaster := open()
		if err := tmaster.SetTMasterLocation(core.TMasterLocation{Topology: "wc", Addr: "tm-1"}); err != nil {
			t.Fatal(err)
		}
		await("tm-1")
		tmaster.Close()
		await("")
		if _, err := observer.GetTMasterLocation("wc"); !errors.Is(err, core.ErrNotFound) {
			t.Errorf("location survived Close: %v", err)
		}
	})
}

// TestMemoryTMasterEphemeralOnClose: on the memory kernel a TMaster's
// death is delivered to the observer's watch before Close returns.
func TestMemoryTMasterEphemeralOnClose(t *testing.T) {
	open := sessions(t, "memory")
	tmaster, observer := open(), open()
	deaths := make(chan core.TMasterLocation, 1)
	if _, err := observer.WatchTMasterLocation("wc", func(loc core.TMasterLocation) {
		if loc.Addr == "" {
			deaths <- loc
		}
	}); err != nil {
		t.Fatal(err)
	}
	if err := tmaster.SetTMasterLocation(core.TMasterLocation{Topology: "wc", Addr: "tm", SessionID: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := observer.GetTMasterLocation("wc"); err != nil {
		t.Fatal(err)
	}
	tmaster.Close()
	select {
	case <-deaths:
	default:
		t.Fatal("TMaster death not observed by the time Close returned")
	}
	if _, err := observer.GetTMasterLocation("wc"); !errors.Is(err, core.ErrNotFound) {
		t.Errorf("location survived: %v", err)
	}
}

// TestLocalFSEphemeralRemovedOnClose: on the localfs kernel a closed
// session's TMaster record is gone from the files a later process opens.
func TestLocalFSEphemeralRemovedOnClose(t *testing.T) {
	open := sessions(t, "localfs")
	sm := open()
	if err := sm.SetTMasterLocation(core.TMasterLocation{Topology: "wc", Addr: "x"}); err != nil {
		t.Fatal(err)
	}
	sm.Close()
	if _, err := open().GetTMasterLocation("wc"); !errors.Is(err, core.ErrNotFound) {
		t.Errorf("ephemeral tmaster record survived close: %v", err)
	}
}

// TestEphemeralOwnershipTransfer: a session that overwrites another's
// ephemeral node takes it over, so the first session's Close leaves the
// successor's record alone — a new leader re-advertising over a dead
// leader's location keeps it.
func TestEphemeralOwnershipTransfer(t *testing.T) {
	eachBackend(t, func(t *testing.T, open func() *Manager) {
		a, b := open(), open()
		if err := a.SetTMasterLocation(core.TMasterLocation{Topology: "wc", Addr: "a"}); err != nil {
			t.Fatal(err)
		}
		if err := b.SetTMasterLocation(core.TMasterLocation{Topology: "wc", Addr: "b"}); err != nil {
			t.Fatal(err)
		}
		a.Close()
		if loc, err := b.GetTMasterLocation("wc"); err != nil || loc.Addr != "b" {
			t.Fatalf("successor's record after the predecessor closed: %+v, %v", loc, err)
		}
		b.Close()
		if _, err := open().GetTMasterLocation("wc"); !errors.Is(err, core.ErrNotFound) {
			t.Errorf("record outlived its owner: %v", err)
		}
	})
}

// TestDeleteTopologyRemovesControlPlane: DeleteTopology removes the whole
// subtree, including the replicated control plane's term counter, leader
// lease and control log, so a topology resubmitted under the same name
// does not inherit its predecessor's term, lease and log.
func TestDeleteTopologyRemovesControlPlane(t *testing.T) {
	eachBackend(t, func(t *testing.T, open func() *Manager) {
		sm := open()
		if err := sm.SetTopology(sampleTopology()); err != nil {
			t.Fatal(err)
		}
		if err := sm.SetPackingPlan("wc", &core.PackingPlan{Topology: "wc"}); err != nil {
			t.Fatal(err)
		}
		for _, p := range []string{"/topologies/wc/term", "/topologies/wc/ctrllog/head", "/topologies/wc/ctrllog/snap", "/topologies/wc/ctrllog/e1"} {
			if _, err := sm.SetIf(p, []byte("1"), 0); err != nil {
				t.Fatal(err)
			}
		}
		if ok, err := sm.AcquireLease("/topologies/wc/leader", []byte("x"), time.Minute); err != nil || !ok {
			t.Fatalf("lease: %v, %v", ok, err)
		}
		if err := sm.DeleteTopology("wc"); err != nil {
			t.Fatal(err)
		}
		for _, p := range []string{"/topologies/wc/term", "/topologies/wc/ctrllog/head", "/topologies/wc/leader", "/topologies/wc/ctrllog/snap", "/topologies/wc/ctrllog/e1"} {
			if _, _, ok, err := sm.GetVersioned(p); err != nil || ok {
				t.Errorf("%s survived DeleteTopology (ok=%v, err=%v)", p, ok, err)
			}
		}
		if kids, err := sm.NodeChildren("/topologies/wc"); err != nil || len(kids) != 0 {
			t.Errorf("children left under the topology: %v, %v", kids, err)
		}
	})
}

func TestRegistryHasBothManagers(t *testing.T) {
	for _, name := range []string{"memory", "localfs"} {
		if _, err := core.NewStateManager(name); err != nil {
			t.Errorf("NewStateManager(%q): %v", name, err)
		}
	}
}

func TestUninitializedManagersFail(t *testing.T) {
	for _, name := range core.StateManagerNames() {
		k, err := core.NewStateManager(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := k.Set("/x", nil, false); err == nil {
			t.Errorf("%s: want error", name)
		}
		if err := k.Close(); err != nil {
			t.Errorf("%s: Close: %v", name, err)
		}
		k.Abandon()
	}
}
