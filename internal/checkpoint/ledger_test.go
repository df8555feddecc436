package checkpoint

import (
	"testing"

	"heron/internal/core"
	"heron/internal/replication"
	"heron/internal/statemgr"
)

// eachStateManager runs fn once per registered State Manager backend,
// with an opener of sessions on one tree private to the subtest.
func eachStateManager(t *testing.T, fn func(t *testing.T, open func() *statemgr.Manager)) {
	for _, name := range core.StateManagerNames() {
		t.Run(name, func(t *testing.T) {
			cfg := core.NewConfig()
			cfg.StateManagerName = name
			cfg.StateRoot = "/ledger-" + t.Name()
			cfg.Extra["localfs.root"] = t.TempDir()
			statemgr.ResetSharedStore(cfg.StateRoot)
			t.Cleanup(func() { statemgr.ResetSharedStore(cfg.StateRoot) })
			fn(t, func() *statemgr.Manager {
				sm, err := statemgr.Open(cfg)
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { sm.Close() })
				return sm
			})
		})
	}
}

// logCoordinator starts a coordinator the way a TMaster generation at
// term does: on its own session it fences the control log, replays it
// into a View, routes the coordinator's sinks through the log, and takes
// the id floor from the backend and the replayed ledger.
func logCoordinator(t *testing.T, open func() *statemgr.Manager, b Backend, term int64) (*Coordinator, *replication.Log) {
	t.Helper()
	lg := replication.NewLog(open(), "topo")
	if err := lg.Fence(term); err != nil {
		t.Fatal(err)
	}
	var v replication.View
	if err := lg.Replay(&v); err != nil {
		t.Fatal(err)
	}
	c := NewCoordinator("topo", b)
	c.PrepareSink = func(next, pending int64) error {
		return lg.Append(&replication.Record{
			Kind: replication.KindLedger, Ledger: &core.CheckpointLedger{Next: next, Pending: pending},
		})
	}
	c.CommitSink = func(id int64) error {
		return lg.Append(&replication.Record{Kind: replication.KindCommit, Value: id})
	}
	if err := c.InitFromBackend(); err != nil {
		t.Fatal(err)
	}
	c.InitFloor(v.Ledger.Next)
	return c, lg
}

// TestCoordinatorLedgerSurvivesRestart replays the gap the ledger closes:
// the TMaster dies between an epoch's prepare (barrier started, sinks may
// hold prepared transactions for it) and its global commit. The backend
// only records *committed* checkpoints, so without the ledger a restarted
// coordinator would reuse the in-flight id and conflate two different
// cuts of the stream under one epoch. Restarted from the replayed control
// log, the id sequence stays strictly monotone.
func TestCoordinatorLedgerSurvivesRestart(t *testing.T) {
	eachStateManager(t, func(t *testing.T, open func() *statemgr.Manager) {
		b := newTestBackend(t, "memory")

		a, _ := logCoordinator(t, open, b, 1)
		first, ok := a.Begin([]int32{1, 2})
		if !ok {
			t.Fatal("Begin failed")
		}
		// One task saves, then the coordinator "dies" mid-barrier:
		// epoch `first` is prepared at task 1 but never commits.
		if done, err := a.Saved(1, first); err != nil || done {
			t.Fatalf("partial save: done=%v err=%v", done, err)
		}

		// Restart: a new generation replays the log on its own session.
		rb, _ := logCoordinator(t, open, b, 2)
		second, ok := rb.Begin([]int32{1, 2})
		if !ok {
			t.Fatal("Begin after restart failed")
		}
		if second <= first {
			t.Fatalf("restarted coordinator reused epoch: first=%d second=%d", first, second)
		}

		// A stale ack for the orphaned epoch must not complete anything.
		if done, err := rb.Saved(2, first); err != nil || done {
			t.Fatalf("stale ack: done=%v err=%v", done, err)
		}
		// The replayed barrier completes under the new epoch.
		if done, err := rb.Saved(1, second); err != nil || done {
			t.Fatalf("save 1: done=%v err=%v", done, err)
		}
		done, err := rb.Saved(2, second)
		if err != nil || !done {
			t.Fatalf("save 2: done=%v err=%v", done, err)
		}
		if latest, err := b.LatestCommitted("topo"); err != nil || latest != second {
			t.Fatalf("LatestCommitted = %d, %v, want %d", latest, err, second)
		}
		// The deposed generation can neither start nor decide an epoch.
		if _, ok := a.Begin([]int32{1}); ok {
			t.Fatal("deposed coordinator began an epoch")
		}
	})
}

// TestCoordinatorWithoutLedgerReusesEpoch pins the gap itself: the same
// restart with no ledger hands out the in-flight id again. If this test
// ever fails, the backend started tracking in-flight epochs and the
// ledger can be retired.
func TestCoordinatorWithoutLedgerReusesEpoch(t *testing.T) {
	b := newTestBackend(t, "memory")
	a := NewCoordinator("topo", b)
	first, _ := a.Begin([]int32{1})

	rb := NewCoordinator("topo", b)
	if err := rb.InitFromBackend(); err != nil {
		t.Fatal(err)
	}
	second, _ := rb.Begin([]int32{1})
	if second != first {
		t.Fatalf("expected the ledger-less coordinator to reuse %d, got %d", first, second)
	}
}

// TestCoordinatorLedgerCoversReserve: ids handed to runtime rescaling are
// part of the same sequence and must not be reused after a restart
// either, and a deposed coordinator must not hand one out.
func TestCoordinatorLedgerCoversReserve(t *testing.T) {
	eachStateManager(t, func(t *testing.T, open func() *statemgr.Manager) {
		b := newTestBackend(t, "memory")
		a, _ := logCoordinator(t, open, b, 1)
		reserved, err := a.Reserve()
		if err != nil {
			t.Fatal(err)
		}

		rb, _ := logCoordinator(t, open, b, 2)
		next, _ := rb.Begin([]int32{1})
		if next <= reserved {
			t.Fatalf("reserved id reused: reserved=%d next=%d", reserved, next)
		}
		if id, err := a.Reserve(); err == nil {
			t.Fatalf("deposed coordinator reserved id %d", id)
		}
	})
}

// TestCheckpointLedgerRoundTrip: the ledger lives only in the control
// log. A Begin shows as the pending epoch and the next id floor of the
// replayed View, and the commit record clears Pending.
func TestCheckpointLedgerRoundTrip(t *testing.T) {
	eachStateManager(t, func(t *testing.T, open func() *statemgr.Manager) {
		b := newTestBackend(t, "memory")
		replay := func() replication.View {
			var v replication.View
			if err := replication.NewLog(open(), "topo").Replay(&v); err != nil {
				t.Fatal(err)
			}
			return v
		}
		if v := replay(); v.Ledger != (core.CheckpointLedger{}) {
			t.Fatalf("empty log ledger = %+v", v.Ledger)
		}
		c, _ := logCoordinator(t, open, b, 1)
		id, _ := c.Begin([]int32{1})
		if v := replay(); v.Ledger.Next != id+1 || v.Ledger.Pending != id {
			t.Fatalf("after Begin(%d): ledger = %+v", id, v.Ledger)
		}
		if done, err := c.Saved(1, id); err != nil || !done {
			t.Fatalf("save: done=%v err=%v", done, err)
		}
		if v := replay(); v.Ledger.Next != id+1 || v.Ledger.Pending != 0 || v.LastCommit != id {
			t.Fatalf("after commit: ledger = %+v, last commit %d", v.Ledger, v.LastCommit)
		}
	})
}

// TestControlLogBoundedOverEpochs: every epoch appends a ledger and a
// commit record, so a long-lived checkpointed topology depends on
// compaction. After 400 epochs the log holds at most SnapshotEvery
// records beside its head and snapshot, and a fresh replay still lands
// on the last epoch.
func TestControlLogBoundedOverEpochs(t *testing.T) {
	eachStateManager(t, func(t *testing.T, open func() *statemgr.Manager) {
		b := newTestBackend(t, "memory")
		c, _ := logCoordinator(t, open, b, 1)
		var last int64
		for i := 0; i < 400; i++ {
			id, ok := c.Begin([]int32{1})
			if !ok {
				t.Fatalf("epoch %d: Begin failed", i)
			}
			if done, err := c.Saved(1, id); err != nil || !done {
				t.Fatalf("epoch %d: done=%v err=%v", id, done, err)
			}
			last = id
		}
		sm := open()
		children, err := sm.NodeChildren("/topologies/topo/ctrllog")
		if err != nil {
			t.Fatal(err)
		}
		if len(children) > replication.SnapshotEvery+2 {
			t.Fatalf("ctrllog has %d children after 400 epochs, want <= %d", len(children), replication.SnapshotEvery+2)
		}
		var v replication.View
		if err := replication.NewLog(sm, "topo").Replay(&v); err != nil {
			t.Fatal(err)
		}
		if v.LastCommit != last || v.Ledger.Next != last+1 || v.AppliedSeq != 800 {
			t.Fatalf("replayed view = %+v, want last commit %d at seq 800", v, last)
		}
	})
}
