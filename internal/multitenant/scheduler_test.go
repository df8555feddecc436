package multitenant

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"heron/internal/core"
)

// countingLauncher counts launches and stops per container.
type countingLauncher struct {
	mu              sync.Mutex
	launches, stops map[int32]int
}

func (l *countingLauncher) LaunchContainer(_ string, id int32) (func(), error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.launches[id]++
	return func() {
		l.mu.Lock()
		defer l.mu.Unlock()
		l.stops[id]++
	}, nil
}

func (l *countingLauncher) counts() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return fmt.Sprintf("launches %v stops %v", l.launches, l.stops)
}

// TestFailureMonitorContainerZeroIsControlOnly pins the checkpointed
// failure rule: a worker death quiesces every worker and relaunches them
// all, but a container-0 death re-places container 0 alone — the
// control plane recovers through its replica set, and the workers keep
// running.
func TestFailureMonitorContainerZeroIsControlOnly(t *testing.T) {
	sub := NewSubstrate("mt-c0", 4, mtRes(16, 16384))
	if err := sub.AddTenant("acme", Quota{}, 0); err != nil {
		t.Fatal(err)
	}
	p := planOf("wc", 2, mtRes(2, 2048))
	if err := sub.AdmitTopology("acme", "wc", p, tmAsk); err != nil {
		t.Fatal(err)
	}
	l := &countingLauncher{launches: map[int32]int{}, stops: map[int32]int{}}
	cfg := core.NewConfig()
	cfg.CheckpointInterval = time.Second
	cfg.Launcher = l
	cfg.Framework = &Binding{Sub: sub, Tenant: "acme", Topology: "wc"}
	s := &Scheduler{}
	if err := s.Initialize(cfg); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.OnSchedule(p); err != nil {
		t.Fatal(err)
	}
	waitCounts := func(want string) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for l.counts() != want {
			if time.Now().After(deadline) {
				t.Fatalf("got %s, want %s", l.counts(), want)
			}
			time.Sleep(time.Millisecond)
		}
	}

	if err := sub.Cluster().InjectFailure("wc", core.TMasterContainerID); err != nil {
		t.Fatal(err)
	}
	waitCounts("launches map[0:2 1:1 2:1] stops map[0:1]")

	if err := sub.Cluster().InjectFailure("wc", 1); err != nil {
		t.Fatal(err)
	}
	waitCounts("launches map[0:2 1:2 2:2] stops map[0:1 1:1 2:1]")
}
