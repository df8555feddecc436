package heron

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"heron/api"
	"heron/internal/cluster"
	"heron/internal/core"
	"heron/internal/metrics"
	"heron/internal/replication"
)

// chaosBolt randomly fails a fraction of its inputs; the acking framework
// must replay them until every distinct message is eventually processed.
type chaosBolt struct {
	failPct   int // percent of tuples to fail on first sight
	processed *processedSet
	out       api.BoltCollector
	rng       *rand.Rand
}

type processedSet struct {
	mu sync.Mutex
	m  map[string]int
}

func (p *processedSet) add(k string) {
	p.mu.Lock()
	p.m[k]++
	p.mu.Unlock()
}

func (p *processedSet) distinct() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.m)
}

func (p *processedSet) retried() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for _, c := range p.m {
		if c > 1 {
			n++
		}
	}
	return n
}

func (b *chaosBolt) Prepare(ctx api.TopologyContext, out api.BoltCollector) error {
	b.out = out
	b.rng = rand.New(rand.NewSource(int64(ctx.TaskID()) * 31))
	return nil
}

func (b *chaosBolt) Execute(t api.Tuple) error {
	if b.rng.Intn(100) < b.failPct {
		b.out.Fail(t) // explicit failure: the whole tree replays
		return nil
	}
	b.processed.add(t.String(0))
	b.out.Ack(t)
	return nil
}

func (b *chaosBolt) Cleanup() error { return nil }

// uniqueSpout emits distinct ids reliably and replays failures.
type uniqueSpout struct {
	out     api.SpoutCollector
	next    int64
	max     int64
	replay  []string
	acked   *atomic.Int64
	replays *atomic.Int64
}

func (s *uniqueSpout) Open(_ api.TopologyContext, out api.SpoutCollector) error {
	s.out = out
	return nil
}

func (s *uniqueSpout) NextTuple() bool {
	var id string
	switch {
	case len(s.replay) > 0:
		id = s.replay[len(s.replay)-1]
		s.replay = s.replay[:len(s.replay)-1]
	case s.next < s.max:
		id = "msg-" + itoa(s.next)
		s.next++
	default:
		return false
	}
	s.out.Emit("", id, id)
	return true
}

func itoa(v int64) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

func (s *uniqueSpout) Ack(any) { s.acked.Add(1) }

func (s *uniqueSpout) Fail(msgID any) {
	s.replays.Add(1)
	s.replay = append(s.replay, msgID.(string))
}

func (s *uniqueSpout) Close() error { return nil }

// TestAtLeastOnceUnderChaos injects a 20% explicit-failure rate at the
// bolts and verifies every distinct message is eventually processed: the
// XOR tuple-tree machinery, failure notification, and spout replay, end
// to end.
func TestAtLeastOnceUnderChaos(t *testing.T) {
	t.Parallel()
	const n = 1500
	processed := &processedSet{m: map[string]int{}}
	var acked, replays atomic.Int64

	b := api.NewTopologyBuilder("chaos-" + t.Name())
	b.SetSpout("src", func() api.Spout {
		return &uniqueSpout{max: n, acked: &acked, replays: &replays}
	}, 2).OutputFields("id")
	b.SetBolt("flaky", func() api.Bolt {
		return &chaosBolt{failPct: 20, processed: processed}
	}, 3).FieldsGrouping("src", "", "id")
	spec, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}

	cfg := testConfig(t)
	cfg.AckingEnabled = true
	cfg.MaxSpoutPending = 100
	cfg.MessageTimeout = 5 * time.Second

	h, err := Submit(spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Kill()
	if err := h.WaitRunning(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	// Two spouts each emit ids msg-0..msg-(n-1): n distinct ids, each
	// processed at least twice overall. Wait for full coverage.
	waitFor(t, 120*time.Second, "all distinct messages processed", func() bool {
		return processed.distinct() >= n && acked.Load() >= 2*n
	})
	if got := replays.Load(); got == 0 {
		t.Error("chaos injected no failures — test is vacuous")
	}
	t.Logf("distinct=%d acked=%d replays=%d retried-ids=%d",
		processed.distinct(), acked.Load(), replays.Load(), processed.retried())
}

// TestScaleDownEndToEnd shrinks the bolt parallelism mid-run and verifies
// the survivors keep all the traffic and the removed tasks go quiet.
func TestScaleDownEndToEnd(t *testing.T) {
	t.Parallel()
	var f fixture
	spec := f.buildWordCount(t, 2, 6, -1, false)
	cfg := testConfig(t)

	h, err := Submit(spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Kill()
	if err := h.WaitRunning(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 15*time.Second, "initial flow", func() bool { return f.table.total.Load() > 5000 })

	if err := h.Scale(map[string]int{"count": 2}); err != nil {
		t.Fatal(err)
	}
	plan, err := h.PackingPlan()
	if err != nil {
		t.Fatal(err)
	}
	if got := plan.ComponentCounts()["count"]; got != 2 {
		t.Fatalf("count parallelism = %d after scale-down", got)
	}
	// Give in-flight traffic a moment, then find the active task set.
	time.Sleep(500 * time.Millisecond)
	snapshot := func() map[int32]int64 {
		f.table.mu.Lock()
		defer f.table.mu.Unlock()
		out := map[int32]int64{}
		for _, tasks := range f.table.counts {
			for task, c := range tasks {
				out[task] += c
			}
		}
		return out
	}
	before := snapshot()
	waitFor(t, 20*time.Second, "flow after scale-down", func() bool {
		after := snapshot()
		var grew int64
		for task, c := range after {
			grew += c - before[task]
		}
		return grew > 5000
	})
	after := snapshot()
	grewTasks := map[int32]bool{}
	for task, c := range after {
		if c > before[task] {
			grewTasks[task] = true
		}
	}
	if len(grewTasks) > 2 {
		t.Errorf("%d tasks still receiving traffic after scale-down to 2", len(grewTasks))
	}
}

// ---------------------------------------------------------------------------
// Control-plane failover chaos: the TMaster is one generation of a
// control-plane replica set of Config.ControlReplicas. These tests kill
// the active leader (hard crash: the lease lapses, a standby fences
// the dead generation, replays the control log, and takes over) at the
// nastiest moments and verify the data plane never notices.

// controlLeader returns the current leader's status, if any replica
// leads right now.
func controlLeader(h *Handle) (replication.Status, bool) {
	for _, st := range h.ControlStatus() {
		if st.Role == replication.RoleLeader {
			return st, true
		}
	}
	return replication.Status{}, false
}

// waitControlLeader waits for a leader whose (node, term) differs from
// prev — i.e. a completed failover — and returns its status.
func waitControlLeader(t *testing.T, h *Handle, prev replication.Status) replication.Status {
	t.Helper()
	var succ replication.Status
	waitFor(t, 20*time.Second, "standby takeover", func() bool {
		st, ok := controlLeader(h)
		if !ok || st.NodeID == prev.NodeID || st.Term <= prev.Term {
			return false
		}
		succ = st
		return true
	})
	return succ
}

// TestControlPlaneFailoverMidEpoch hard-kills the leading TMaster with
// checkpoint epochs in flight. A standby must win the election with a
// higher fencing term, resume global commits past the kill point, serve
// control operations again, and the stateful pipeline must keep exact
// counts throughout — workers never restart for a control-plane death.
func TestControlPlaneFailoverMidEpoch(t *testing.T) {
	t.Parallel()
	dict := healthDict()
	h := &ckptHarness{spouts: map[int32]*seqSpout{}, bolts: map[int32]*ckptCountBolt{}}
	var slow atomic.Bool
	spec := buildHealthTopology(t, "ctrl-midepoch", h, &slow, dict, 2)

	cfg := healthTestConfig(t)
	cfg.CheckpointInterval = 150 * time.Millisecond
	cfg.ControlReplicas = 3
	cl := cluster.New("ctrl-midepoch-sim", 4, core.Resource{CPU: 32, RAMMB: 32768, DiskMB: 65536})
	cfg.Framework = cl

	handle, err := Submit(spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer handle.Kill()
	if err := handle.WaitRunning(10 * time.Second); err != nil {
		t.Fatal(err)
	}

	// The full pool reports in: one leader, two warm standbys.
	waitFor(t, 10*time.Second, "replica pool up", func() bool {
		sts := handle.ControlStatus()
		leaders := 0
		for _, st := range sts {
			if st.Role == replication.RoleLeader {
				leaders++
			}
		}
		return len(sts) == 3 && leaders == 1
	})
	waitFor(t, 20*time.Second, "first committed epoch", func() bool {
		return handle.CommittedEpoch() > 0
	})

	old, ok := controlLeader(handle)
	if !ok {
		t.Fatal("no leader after first commit")
	}
	epochAtKill := handle.CommittedEpoch()

	killed, err := handle.KillLeader()
	if err != nil {
		t.Fatal(err)
	}
	if !killed {
		t.Fatal("KillLeader found no leader")
	}

	succ := waitControlLeader(t, handle, old)
	if succ.Failovers < 1 || succ.LastFailoverNs <= 0 {
		t.Errorf("successor did not account the failover: %+v", succ)
	}

	// Checkpointing resumes under the new generation's term.
	waitFor(t, 30*time.Second, "post-failover commit", func() bool {
		return handle.CommittedEpoch() > epochAtKill
	})

	// Control operations work again; a request landing in the residual
	// window retries through ErrNotLeader.
	if err := RetryNotLeader(20*time.Second, func() error {
		return handle.ScaleComponent("count", 3)
	}); err != nil {
		t.Fatalf("post-failover rescale: %v", err)
	}
	if got := countParallelism(t, handle); got != 3 {
		t.Fatalf("count parallelism = %d after post-failover rescale, want 3", got)
	}

	base := h.executed.Load()
	waitFor(t, 30*time.Second, "post-failover progress", func() bool {
		return h.executed.Load() > base+5_000
	})

	// The merged metrics view carries the replication series: exactly one
	// role=1 gauge (the successor), its term, and the failover latency.
	mv := handle.Metrics()
	if got := mv.Gauge(metrics.MReplicationRole, succ.NodeID); got != 1 {
		t.Errorf("replication.role{%s} = %d, want 1", succ.NodeID, got)
	}
	if got := mv.Gauge(metrics.MReplicationTerm, succ.NodeID); got < succ.Term {
		t.Errorf("replication.term{%s} = %d, want >= %d", succ.NodeID, got, succ.Term)
	}
	if got := mv.Gauge(metrics.MReplicationFailoverLatency, succ.NodeID); got <= 0 {
		t.Errorf("replication.failover-latency-ns{%s} = %d, want > 0", succ.NodeID, got)
	}

	drainAndAudit(t, handle, h, dict)
}

// TestControlPlaneFailoverMidRescale kills the leader inside the
// stateful-rescale protocol — after the checkpoint barrier and the
// rescale-begin control record, before any state moves. The surviving
// Handle must resume the rescale through the successor (the reserve step
// fails with ErrNotLeader and re-resolves the leader) and the exact-count
// audit must still hold across the repartitioned relaunch.
func TestControlPlaneFailoverMidRescale(t *testing.T) {
	t.Parallel()
	dict := healthDict()
	h := &ckptHarness{spouts: map[int32]*seqSpout{}, bolts: map[int32]*ckptCountBolt{}}
	var slow atomic.Bool
	spec := buildHealthTopology(t, "ctrl-midrescale", h, &slow, dict, 2)

	cfg := healthTestConfig(t)
	cfg.ControlReplicas = 3
	cl := cluster.New("ctrl-midrescale-sim", 4, core.Resource{CPU: 32, RAMMB: 32768, DiskMB: 65536})
	cfg.Framework = cl

	handle, err := Submit(spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer handle.Kill()
	if err := handle.WaitRunning(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 20*time.Second, "first committed epoch", func() bool {
		return handle.CommittedEpoch() > 0
	})
	old, ok := controlLeader(handle)
	if !ok {
		t.Fatal("no leader after first commit")
	}

	// One-shot: the retry wrapper must not decapitate every successor.
	var once sync.Once
	handle.hookAfterRescaleBarrier = func() {
		once.Do(func() {
			if killed, err := handle.KillLeader(); err != nil || !killed {
				t.Errorf("mid-rescale KillLeader: killed=%v err=%v", killed, err)
			}
		})
	}
	err = RetryNotLeader(30*time.Second, func() error {
		return handle.ScaleComponent("count", 4)
	})
	handle.hookAfterRescaleBarrier = nil
	if err != nil {
		t.Fatalf("rescale across leader death: %v", err)
	}
	if got := countParallelism(t, handle); got != 4 {
		t.Fatalf("count parallelism = %d, want 4", got)
	}

	succ := waitControlLeader(t, handle, old)
	t.Logf("rescale survived failover %s/term=%d -> %s/term=%d",
		old.NodeID, old.Term, succ.NodeID, succ.Term)

	waitFor(t, 15*time.Second, "state restored on relaunch", func() bool {
		return handle.SumCounter(metrics.MRestoreCount) > 0
	})
	base := h.executed.Load()
	waitFor(t, 30*time.Second, "post-rescale progress", func() bool {
		return h.executed.Load() > base+5_000
	})

	drainAndAudit(t, handle, h, dict)
}

// TestControlPlaneSurvivesTMasterContainerKill kills container 0 — the
// TMaster's own container — through the scheduler's failure path, for
// both failure-monitoring schedulers and with and without a standby. The
// scheduler re-places only container 0; a standby, or else the
// relaunched candidate, takes over at a higher term. Crucially the
// WORKERS never quiesce: zero restores, commits continue, exact counts.
func TestControlPlaneSurvivesTMasterContainerKill(t *testing.T) {
	t.Parallel()
	for _, sched := range []string{"yarn", "mesos"} {
		for _, replicas := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/replicas=%d", sched, replicas), func(t *testing.T) {
				t.Parallel()
				name := fmt.Sprintf("ctrl-c0kill-%s-%d", sched, replicas)
				dict := healthDict()
				h := &ckptHarness{spouts: map[int32]*seqSpout{}, bolts: map[int32]*ckptCountBolt{}}
				var slow atomic.Bool
				spec := buildHealthTopology(t, name, h, &slow, dict, 2)

				cfg := healthTestConfig(t)
				cfg.SchedulerName = sched
				cfg.ControlReplicas = replicas
				cl := cluster.New(name+"-sim", 4, core.Resource{CPU: 32, RAMMB: 32768, DiskMB: 65536})
				cfg.Framework = cl

				handle, err := Submit(spec, cfg)
				if err != nil {
					t.Fatal(err)
				}
				defer handle.Kill()
				if err := handle.WaitRunning(10 * time.Second); err != nil {
					t.Fatal(err)
				}
				waitFor(t, 20*time.Second, "first committed epoch", func() bool {
					return handle.CommittedEpoch() > 0
				})
				old, ok := controlLeader(handle)
				if !ok {
					t.Fatal("no leader after first commit")
				}
				epochAtKill := handle.CommittedEpoch()

				if err := cl.InjectFailure(handle.Name(), core.TMasterContainerID); err != nil {
					t.Fatal(err)
				}

				succ := waitControlLeader(t, handle, old)
				t.Logf("container-0 kill: %s/term=%d -> %s/term=%d",
					old.NodeID, old.Term, succ.NodeID, succ.Term)
				waitFor(t, 30*time.Second, "post-kill commit", func() bool {
					return handle.CommittedEpoch() > epochAtKill
				})
				// The scheduler re-places the control container.
				waitFor(t, 15*time.Second, "container 0 re-placed", func() bool {
					return cl.Allocated(handle.Name(), core.TMasterContainerID)
				})

				base := h.executed.Load()
				waitFor(t, 30*time.Second, "post-kill progress", func() bool {
					return h.executed.Load() > base+5_000
				})
				// A TMaster death is NOT a data-plane event: no worker
				// restarted, no state restore ran.
				if n := handle.SumCounter(metrics.MRestoreCount); n != 0 {
					t.Errorf("restore-count = %d after a control-only kill, want 0", n)
				}

				drainAndAudit(t, handle, h, dict)
			})
		}
	}
}
