package heron

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"heron/api"
	"heron/internal/checkpoint"
	"heron/internal/cluster"
	"heron/internal/core"
	"heron/internal/extsvc/kafkasim"
	"heron/internal/harness/audit"
	"heron/internal/metrics"
	"heron/internal/statemgr"
	"heron/internal/workloads"
)

// End-to-end exactly-once certification: a KafkaSpout reads a preloaded
// source broker through a consumer group, a KafkaSink copies every record
// into a second broker under barrier-driven two-phase commit, and the
// test kills a worker container inside a chosen failure window. After
// recovery drains, the sink broker's *committed* record set must equal
// the preloaded multiset exactly — zero duplicates, zero loss — no
// matter which window the kill landed in or which checkpoint backend
// held the epoch.

// txnWindow selects where in the two-phase timeline the kill lands.
type txnWindow int

const (
	// windowMidEpoch kills with data in flight, between barriers.
	windowMidEpoch txnWindow = iota
	// windowPrepare kills after the sink's transaction is prepared at the
	// broker but before the epoch ever globally commits (the sink's
	// saved-ack is dropped, so the epoch cannot complete).
	windowPrepare
	// windowCommit kills after the epoch globally commits in the backend
	// but before the sink applies the commit notification.
	windowCommit
	// windowRestore kills a second time while the first recovery is still
	// resolving pending transactions.
	windowRestore
)

// trap codes for the shared hook state (0 = production path).
const (
	trapOff int32 = iota
	trapPrepare
	trapCommit
	trapRecover
)

func runTxnExactlyOnce(t *testing.T, backendName, label string, window txnWindow) {
	nPer := 256
	if audit.RaceEnabled() {
		nPer = 96 // small-N variant: same windows, less data under -race
	}
	src := kafkasim.NewBroker(4)
	expected := audit.PreloadUnique(src, nPer)
	total := 4 * nPer
	sink := kafkasim.NewBroker(4)
	stats := &workloads.KafkaStats{}
	group := "grp-" + label

	// The chaos lever: when armed, the matching hook reports a failure,
	// which the protocol treats exactly like a crash at that point. The
	// trapped channel tells the test the pipeline has entered the window.
	var trap atomic.Int32
	trapped := make(chan int64, 16)
	signal := func(e int64) {
		select {
		case trapped <- e:
		default:
		}
	}
	hooks := &workloads.TxnHooks{
		OnPrepared: func(epoch int64) error {
			if trap.Load() == trapPrepare {
				signal(epoch)
				return fmt.Errorf("chaos: dropping saved-ack for prepared epoch %d", epoch)
			}
			return nil
		},
		OnCommit: func(epoch int64) error {
			if trap.Load() == trapCommit {
				signal(epoch)
				return fmt.Errorf("chaos: dropping commit notification for epoch %d", epoch)
			}
			return nil
		},
		OnRecover: func(committed int64) error {
			if trap.Load() == trapRecover {
				signal(committed)
			}
			return nil
		},
	}

	b := api.NewTopologyBuilder("txn-" + label)
	b.SetSpout("ksrc", func() api.Spout {
		return &workloads.KafkaTxnSpout{Broker: src, Group: group, Stats: stats}
	}, 2).OutputFields("key", "value")
	b.SetBolt("ksink", func() api.Bolt {
		return &workloads.KafkaTxnSink{Broker: sink, Hooks: hooks, Stats: stats}
	}, 2).FieldsGrouping("ksrc", "", "key")
	spec, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}

	cfg := NewConfig()
	cfg.StateRoot = "/txn-" + label
	statemgr.ResetSharedStore(cfg.StateRoot)
	checkpoint.ResetSharedMemory(cfg.StateRoot)
	checkpoint.ResetSharedRedis(cfg.StateRoot)
	cfg.NumContainers = 3
	cfg.SchedulerName = "yarn"
	cfg.CheckpointInterval = 200 * time.Millisecond
	cfg.StateBackend = backendName
	if backendName == "localfs" {
		cfg.Extra = map[string]string{"checkpoint.root": t.TempDir()}
	}
	cl := cluster.New("txn-"+label+"-sim", 4, core.Resource{CPU: 32, RAMMB: 32768, DiskMB: 65536})
	cfg.Framework = cl

	handle, err := Submit(spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer handle.Kill()
	if err := handle.WaitRunning(10 * time.Second); err != nil {
		t.Fatal(err)
	}

	poll, err := checkpoint.New(backendName)
	if err != nil {
		t.Fatal(err)
	}
	if err := poll.Initialize(cfg); err != nil {
		t.Fatal(err)
	}
	defer poll.Close()
	latest := func() int64 {
		id, _ := poll.LatestCommitted(handle.Name())
		return id
	}

	// Let the pipeline commit at least one epoch end-to-end first: records
	// visible in the sink broker prove the full prepare → global-commit →
	// notification chain worked before the kill.
	waitFor(t, 15*time.Second, "records staged at the sink", func() bool {
		return stats.Staged.Load() > 0
	})
	waitFor(t, 15*time.Second, "first committed epoch", func() bool {
		return latest() > 0
	})
	waitFor(t, 15*time.Second, "first records committed at the sink", func() bool {
		return audit.CommittedTotal(sink) > 0
	})

	// Arm the window, wait until the pipeline is inside it, disarm, kill.
	switch window {
	case windowMidEpoch:
		// Nothing to arm: with a 200ms interval any instant is mid-epoch.
	case windowPrepare:
		trap.Store(trapPrepare)
		select {
		case e := <-trapped:
			t.Logf("killing with epoch %d prepared at the sink, never committed", e)
		case <-time.After(15 * time.Second):
			t.Fatal("no prepare landed in the trap window")
		}
		trap.Store(trapOff)
	case windowCommit:
		trap.Store(trapCommit)
		select {
		case e := <-trapped:
			t.Logf("killing with epoch %d globally committed, sink unaware", e)
		case <-time.After(15 * time.Second):
			t.Fatal("no commit notification landed in the trap window")
		}
		trap.Store(trapOff)
	case windowRestore:
		trap.Store(trapRecover)
	}
	committedBefore := latest()
	if err := cl.InjectFailure(handle.Name(), 1); err != nil {
		t.Fatal(err)
	}

	if window == windowRestore {
		// The relaunched sink signals from inside its recovery pass; a
		// second kill then lands while the cluster is still restoring.
		select {
		case e := <-trapped:
			t.Logf("second kill during recovery at committed epoch %d", e)
		case <-time.After(15 * time.Second):
			t.Fatal("recovery never reached the sink's recover hook")
		}
		trap.Store(trapOff)
		for _, id := range []int32{1, 2, 3} {
			id := id
			waitFor(t, 15*time.Second, fmt.Sprintf("container %d up before second kill", id), func() bool {
				return cl.Allocated(handle.Name(), id)
			})
		}
		if err := cl.InjectFailure(handle.Name(), 2); err != nil {
			t.Fatal(err)
		}
	}

	for _, id := range []int32{1, 2, 3} {
		id := id
		waitFor(t, 15*time.Second, fmt.Sprintf("container %d relaunched", id), func() bool {
			return cl.Allocated(handle.Name(), id)
		})
	}
	waitFor(t, 15*time.Second, "state restored", func() bool {
		return handle.SumCounter(metrics.MRestoreCount) > 0
	})
	// Checkpointing must survive the kill: the epochs that carry the
	// replayed tail to the sink commit after recovery.
	waitFor(t, 30*time.Second, "post-recovery commit", func() bool {
		return latest() > committedBefore
	})

	// Drain: the source is finite, so once every record's epoch commits
	// the sink's committed set stops growing at exactly the input size.
	waitFor(t, 60*time.Second, "sink committed the whole input", func() bool {
		return audit.CommittedTotal(sink) >= total
	})
	// A couple more intervals so any straggler commit lands before the
	// final audit (a late duplicate must not escape the comparison).
	time.Sleep(500 * time.Millisecond)

	got := audit.CommittedMultiset(sink)
	if missing, dups, sample := audit.DiffMultisets(expected, got); missing != 0 || dups != 0 {
		t.Fatalf("exactly-once violated: %d missing, %d duplicated (%s)", missing, dups, sample)
	}

	// The tentpole's other edge: the consumer group's durable offsets must
	// converge to the end of the source log once the final epoch commits.
	waitFor(t, 30*time.Second, "consumer-group offsets at end of log", func() bool {
		var sum int64
		for _, off := range src.FetchOffsets(group) {
			sum += off
		}
		return sum == int64(total)
	})
}

// forEachBackend runs f under every checkpoint backend as subtests.
func forEachBackend(t *testing.T, f func(t *testing.T, backend string)) {
	for _, backend := range []string{"memory", "localfs", "redis"} {
		backend := backend
		t.Run(backend, func(t *testing.T) { f(t, backend) })
	}
}

// TestTxnExactlyOnceMidEpoch kills a worker with data in flight between
// barriers, on every checkpoint backend.
func TestTxnExactlyOnceMidEpoch(t *testing.T) {
	forEachBackend(t, func(t *testing.T, backend string) {
		runTxnExactlyOnce(t, backend, "mid-"+backend, windowMidEpoch)
	})
}

// TestTxnExactlyOncePrepareWindow kills a worker after the sink's
// transaction is prepared at the broker but before the epoch globally
// commits: recovery must abort the undecided transaction and replay its
// records under a later epoch, on every checkpoint backend.
func TestTxnExactlyOncePrepareWindow(t *testing.T) {
	forEachBackend(t, func(t *testing.T, backend string) {
		runTxnExactlyOnce(t, backend, "prep-"+backend, windowPrepare)
	})
}

// TestTxnExactlyOnceCommitWindow kills a worker after the epoch globally
// commits in the backend but before the sink hears about it: recovery
// must COMMIT the pending transaction (the epoch won), not abort it.
func TestTxnExactlyOnceCommitWindow(t *testing.T) {
	runTxnExactlyOnce(t, "memory", "commit-memory", windowCommit)
}

// TestTxnExactlyOnceKillDuringRestore kills the cluster a second time
// while the first recovery is still resolving pending transactions —
// recovery itself must be idempotent.
func TestTxnExactlyOnceKillDuringRestore(t *testing.T) {
	runTxnExactlyOnce(t, "memory", "restore-memory", windowRestore)
}

// ---------------------------------------------------------------------------
// Exactly-once across control-plane failover: the same transactional
// pipeline and exact multiset audit as above, but the kill targets the
// LEADING TMASTER instead of a worker. A standby replays the control log
// (including the checkpoint ledger), re-registers with the Stream
// Managers, re-broadcasts the last global commit, and the pipeline must
// finish with zero loss and zero duplicates — the sink never hears a
// commit decision twice and never misses one.

func runTxnLeaderKill(t *testing.T, backendName, label string, midRescale bool) {
	nPer := 256
	if audit.RaceEnabled() {
		nPer = 96
	}
	src := kafkasim.NewBroker(4)
	expected := audit.PreloadUnique(src, nPer)
	total := 4 * nPer
	sink := kafkasim.NewBroker(4)
	stats := &workloads.KafkaStats{}
	group := "grp-" + label

	b := api.NewTopologyBuilder("txnha-" + label)
	b.SetSpout("ksrc", func() api.Spout {
		return &workloads.KafkaTxnSpout{Broker: src, Group: group, Stats: stats}
	}, 2).OutputFields("key", "value")
	b.SetBolt("ksink", func() api.Bolt {
		return &workloads.KafkaTxnSink{Broker: sink, Stats: stats}
	}, 2).FieldsGrouping("ksrc", "", "key")
	spec, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}

	cfg := NewConfig()
	cfg.StateRoot = "/txnha-" + label
	statemgr.ResetSharedStore(cfg.StateRoot)
	checkpoint.ResetSharedMemory(cfg.StateRoot)
	checkpoint.ResetSharedRedis(cfg.StateRoot)
	cfg.NumContainers = 3
	cfg.SchedulerName = "yarn"
	cfg.CheckpointInterval = 200 * time.Millisecond
	cfg.StateBackend = backendName
	cfg.ControlReplicas = 2
	if backendName == "localfs" {
		cfg.Extra = map[string]string{"checkpoint.root": t.TempDir()}
	}
	cl := cluster.New("txnha-"+label+"-sim", 4, core.Resource{CPU: 32, RAMMB: 32768, DiskMB: 65536})
	cfg.Framework = cl

	handle, err := Submit(spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer handle.Kill()
	if err := handle.WaitRunning(10 * time.Second); err != nil {
		t.Fatal(err)
	}

	poll, err := checkpoint.New(backendName)
	if err != nil {
		t.Fatal(err)
	}
	if err := poll.Initialize(cfg); err != nil {
		t.Fatal(err)
	}
	defer poll.Close()
	latest := func() int64 {
		id, _ := poll.LatestCommitted(handle.Name())
		return id
	}

	// At least one epoch commits end-to-end before the kill: the chain
	// prepare → global-commit → notification demonstrably works.
	waitFor(t, 15*time.Second, "first committed epoch", func() bool {
		return latest() > 0
	})
	waitFor(t, 15*time.Second, "first records committed at the sink", func() bool {
		return audit.CommittedTotal(sink) > 0
	})

	old, hadLeader := controlLeader(handle)
	if !hadLeader {
		t.Fatal("no control leader after first commit")
	}
	epochAtKill := latest()

	if midRescale {
		// Kill the leader inside the rescale protocol: after the barrier
		// and the begin record, before any state moves. The sink is
		// stateless, so this drives the no-repartition arm of the resumed
		// rescale. One-shot: the retry wrapper must not kill successors.
		var once sync.Once
		handle.hookAfterRescaleBarrier = func() {
			once.Do(func() {
				if killed, err := handle.KillLeader(); err != nil || !killed {
					t.Errorf("mid-rescale KillLeader: killed=%v err=%v", killed, err)
				}
			})
		}
		err := RetryNotLeader(30*time.Second, func() error {
			return handle.ScaleComponent("ksink", 3)
		})
		handle.hookAfterRescaleBarrier = nil
		if err != nil {
			t.Fatalf("rescale across leader death: %v", err)
		}
		plan, err := handle.PackingPlan()
		if err != nil {
			t.Fatal(err)
		}
		if got := plan.ComponentCounts()["ksink"]; got != 3 {
			t.Fatalf("ksink parallelism = %d, want 3", got)
		}
	} else {
		killed, err := handle.KillLeader()
		if err != nil {
			t.Fatal(err)
		}
		if !killed {
			t.Fatal("KillLeader found no leader")
		}
	}

	succ := waitControlLeader(t, handle, old)
	t.Logf("leader kill (%s): %s/term=%d -> %s/term=%d",
		label, old.NodeID, old.Term, succ.NodeID, succ.Term)

	// Epochs commit again under the successor's fencing term.
	waitFor(t, 30*time.Second, "post-failover commit", func() bool {
		return latest() > epochAtKill
	})

	// Drain: the source is finite; once every record's epoch commits the
	// sink's committed set stops growing at exactly the input size.
	waitFor(t, 60*time.Second, "sink committed the whole input", func() bool {
		return audit.CommittedTotal(sink) >= total
	})
	time.Sleep(500 * time.Millisecond)

	got := audit.CommittedMultiset(sink)
	if missing, dups, sample := audit.DiffMultisets(expected, got); missing != 0 || dups != 0 {
		t.Fatalf("exactly-once violated across failover: %d missing, %d duplicated (%s)", missing, dups, sample)
	}

	// The consumer group's durable offsets converge to the end of the
	// source log through the successor's commits.
	waitFor(t, 30*time.Second, "consumer-group offsets at end of log", func() bool {
		var sum int64
		for _, off := range src.FetchOffsets(group) {
			sum += off
		}
		return sum == int64(total)
	})
}

// TestTxnFailoverMidEpoch kills the leading TMaster with data in flight
// between barriers, on every checkpoint backend.
func TestTxnFailoverMidEpoch(t *testing.T) {
	forEachBackend(t, func(t *testing.T, backend string) {
		runTxnLeaderKill(t, backend, "ha-mid-"+backend, false)
	})
}

// TestTxnFailoverMidRescale kills the leader inside a rescale of the
// transactional sink, on every checkpoint backend: the surviving Handle
// resumes the rescale through the successor and the exactly-once audit
// still holds.
func TestTxnFailoverMidRescale(t *testing.T) {
	forEachBackend(t, func(t *testing.T, backend string) {
		runTxnLeaderKill(t, backend, "ha-resc-"+backend, true)
	})
}
