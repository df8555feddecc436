package replication

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"heron/internal/core"
	"heron/internal/statemgr"
)

// testStore opens one statemgr session on a private shared tree. Multiple
// calls with the same root model separate processes on one ZooKeeper
// ensemble — exactly how control replicas share coordination state.
func testStore(t *testing.T, root string) *statemgr.Manager {
	t.Helper()
	cfg := core.NewConfig()
	cfg.StateRoot = root
	m, err := statemgr.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func testRoot(t *testing.T) string {
	t.Helper()
	root := "/rep-" + t.Name()
	statemgr.ResetSharedStore(root)
	t.Cleanup(func() { statemgr.ResetSharedStore(root) })
	return root
}

func waitUntil(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timeout waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestLogAppendAssignsOrderedSequence(t *testing.T) {
	root := testRoot(t)
	vs := testStore(t, root)
	defer vs.Close()

	l := NewLog(vs, "topo")
	if err := l.Fence(1); err != nil {
		t.Fatal(err)
	}
	kinds := []string{KindPlan, KindLedger, KindCommit}
	for i, k := range kinds {
		rec := &Record{Kind: k}
		if err := l.Append(rec); err != nil {
			t.Fatal(err)
		}
		if rec.Seq != int64(i+1) || rec.Term != 1 {
			t.Fatalf("record %d got seq=%d term=%d", i, rec.Seq, rec.Term)
		}
	}
	head, ok, err := l.Head()
	if err != nil || !ok {
		t.Fatalf("head: ok=%v err=%v", ok, err)
	}
	if head.Next != 4 || head.Term != 1 {
		t.Fatalf("head = %+v, want Next=4 Term=1", head)
	}
	var read []string
	for seq := int64(1); seq < head.Next; seq++ {
		rec, ok, err := l.Read(seq)
		if err != nil || !ok {
			t.Fatalf("read e%d: ok=%v err=%v", seq, ok, err)
		}
		read = append(read, rec.Kind)
	}
	if fmt.Sprint(read) != fmt.Sprint(kinds) {
		t.Fatalf("read %v, want %v", read, kinds)
	}
	var v View
	if err := l.Replay(&v); err != nil {
		t.Fatal(err)
	}
	if v.AppliedSeq != 3 || v.Plans != 1 {
		t.Fatalf("replayed view = %+v, want AppliedSeq 3 and one plan", v)
	}
}

// TestFencingRejectsDeposedLeader is the issue's fencing unit test: a new
// term fences the log, and the old leader's late writes are rejected with
// core.ErrNotLeader — before and after the new leader has appended.
func TestFencingRejectsDeposedLeader(t *testing.T) {
	root := testRoot(t)
	vsOld, vsNew := testStore(t, root), testStore(t, root)
	defer vsOld.Close()
	defer vsNew.Close()

	old := NewLog(vsOld, "topo")
	if err := old.Fence(1); err != nil {
		t.Fatal(err)
	}
	if err := old.Append(&Record{Kind: KindPlan}); err != nil {
		t.Fatal(err)
	}

	succ := NewLog(vsNew, "topo")
	if err := succ.Fence(2); err != nil {
		t.Fatal(err)
	}
	// Late write before the successor appends anything.
	if err := old.Append(&Record{Kind: KindCommit, Value: 9}); !errors.Is(err, core.ErrNotLeader) {
		t.Fatalf("old leader append after fence = %v, want ErrNotLeader", err)
	}
	// Successor appends; a second late write must still be rejected.
	if err := succ.Append(&Record{Kind: KindCommit, Value: 1}); err != nil {
		t.Fatal(err)
	}
	if err := old.Append(&Record{Kind: KindCommit, Value: 10}); !errors.Is(err, core.ErrNotLeader) {
		t.Fatalf("old leader late append = %v, want ErrNotLeader", err)
	}
	// Re-fencing at the stale term must fail too.
	if err := old.Fence(1); !errors.Is(err, core.ErrNotLeader) {
		t.Fatalf("stale re-fence = %v, want ErrNotLeader", err)
	}
	// The survivor's record is the one at seq 2.
	rec, ok, err := succ.Read(2)
	if err != nil || !ok {
		t.Fatalf("read seq 2: ok=%v err=%v", ok, err)
	}
	if rec.Term != 2 || rec.Value != 1 {
		t.Fatalf("seq 2 = %+v, want term 2 value 1", rec)
	}
}

// TestDanglingRecordOverwritten: a leader that placed a record but died
// before advancing the head never made it take effect — the next leader's
// first append overwrites it.
func TestDanglingRecordOverwritten(t *testing.T) {
	root := testRoot(t)
	vs := testStore(t, root)
	defer vs.Close()

	dead := NewLog(vs, "topo")
	if err := dead.Fence(1); err != nil {
		t.Fatal(err)
	}
	// Simulate the half-append: record placed at seq 1, head untouched.
	if _, err := vs.SetIf(recPath("topo", 1), []byte(`{"seq":1,"term":1,"kind":"plan"}`), 0); err != nil {
		t.Fatal(err)
	}

	succ := NewLog(vs, "topo")
	if err := succ.Fence(2); err != nil {
		t.Fatal(err)
	}
	if err := succ.Append(&Record{Kind: KindCommit, Value: 7}); err != nil {
		t.Fatalf("append over dangling record: %v", err)
	}
	rec, ok, err := succ.Read(1)
	if err != nil || !ok {
		t.Fatalf("read: ok=%v err=%v", ok, err)
	}
	if rec.Term != 2 || rec.Kind != KindCommit {
		t.Fatalf("seq 1 = %+v, want the term-2 commit", rec)
	}
}

// TestViewReplayPrefixes is the checkpoint-ledger replay table: a standby
// started from an arbitrary log prefix must reconstruct the ledger floor,
// the pending epoch, the last global commit, and any open rescale.
func TestViewReplayPrefixes(t *testing.T) {
	records := []*Record{
		{Kind: KindLedger, Ledger: &core.CheckpointLedger{Next: 2, Pending: 1}},
		{Kind: KindCommit, Value: 1},
		{Kind: KindPlan, Plan: &PlanRecord{Containers: 2, Tasks: 4}},
		{Kind: KindLedger, Ledger: &core.CheckpointLedger{Next: 3, Pending: 2}},
		{Kind: KindRescaleBegin, Rescale: &RescaleRecord{Component: "count", Parallelism: 6, PreCheckpoint: 2}},
		{Kind: KindCommit, Value: 2},
		{Kind: KindRescaleCommit, Rescale: &RescaleRecord{Component: "count", Parallelism: 6}},
		{Kind: KindLedger, Ledger: &core.CheckpointLedger{Next: 4, Pending: 3}},
		{Kind: KindTune, Value: 500},
	}
	cases := []struct {
		prefix     int
		next       int64 // epoch-id floor a successor may hand out from
		pending    int64 // prepared-but-uncommitted epoch (0 = none)
		lastCommit int64
		rescale    bool // open rescale a successor must roll back
	}{
		{prefix: 0, next: 0, pending: 0, lastCommit: 0, rescale: false},
		{prefix: 1, next: 2, pending: 1, lastCommit: 0, rescale: false},
		{prefix: 2, next: 2, pending: 0, lastCommit: 1, rescale: false},
		{prefix: 3, next: 2, pending: 0, lastCommit: 1, rescale: false},
		{prefix: 4, next: 3, pending: 2, lastCommit: 1, rescale: false},
		{prefix: 5, next: 3, pending: 2, lastCommit: 1, rescale: true},
		{prefix: 6, next: 3, pending: 0, lastCommit: 2, rescale: true},
		{prefix: 7, next: 3, pending: 0, lastCommit: 2, rescale: false},
		{prefix: 8, next: 4, pending: 3, lastCommit: 2, rescale: false},
		{prefix: 9, next: 4, pending: 3, lastCommit: 2, rescale: false},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("prefix=%d", tc.prefix), func(t *testing.T) {
			var v View
			for i := 0; i < tc.prefix; i++ {
				r := *records[i]
				r.Seq, r.Term = int64(i+1), 1
				v.Apply(&r)
			}
			if v.Ledger.Next != tc.next {
				t.Errorf("Ledger.Next = %d, want %d", v.Ledger.Next, tc.next)
			}
			if v.Ledger.Pending != tc.pending {
				t.Errorf("Ledger.Pending = %d, want %d", v.Ledger.Pending, tc.pending)
			}
			if v.LastCommit != tc.lastCommit {
				t.Errorf("LastCommit = %d, want %d", v.LastCommit, tc.lastCommit)
			}
			if got := v.Rescale != nil; got != tc.rescale {
				t.Errorf("open rescale = %v, want %v", got, tc.rescale)
			}
			if v.AppliedSeq != int64(tc.prefix) {
				t.Errorf("AppliedSeq = %d, want %d", v.AppliedSeq, tc.prefix)
			}
			// The epoch floor never allows a successor to reuse a
			// prepared-but-uncommitted id: Next is always above Pending.
			if v.Ledger.Pending != 0 && v.Ledger.Next <= v.Ledger.Pending {
				t.Errorf("floor %d does not clear pending %d", v.Ledger.Next, v.Ledger.Pending)
			}
		})
	}
}

// TestViewReplayFromLog drives the same fold through a real log: a
// standby tailing records 1..n sees the same state as one replaying the
// whole prefix at promotion.
func TestViewReplayFromLog(t *testing.T) {
	root := testRoot(t)
	vs := testStore(t, root)
	defer vs.Close()

	l := NewLog(vs, "topo")
	if err := l.Fence(3); err != nil {
		t.Fatal(err)
	}
	for _, r := range []*Record{
		{Kind: KindLedger, Ledger: &core.CheckpointLedger{Next: 2, Pending: 1}},
		{Kind: KindCommit, Value: 1},
		{Kind: KindRescaleBegin, Rescale: &RescaleRecord{Component: "count", Parallelism: 8}},
	} {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	var v View
	if err := l.Replay(&v); err != nil {
		t.Fatal(err)
	}
	if v.Term != 3 || v.LastCommit != 1 || v.Ledger.Next != 2 || v.Rescale == nil {
		t.Fatalf("replayed view = %+v, want term 3, commit 1, next 2, open rescale", v)
	}
	if v.Rescale.Component != "count" || v.Rescale.Parallelism != 8 {
		t.Fatalf("rescale record = %+v", v.Rescale)
	}
}

func TestElectorTermsMonotonic(t *testing.T) {
	root := testRoot(t)
	vsA, vsB := testStore(t, root), testStore(t, root)
	defer vsA.Close()
	defer vsB.Close()

	elA := NewElector(vsA, "topo", "a", 200*time.Millisecond)
	termA, won, err := elA.TryAcquire(0)
	if err != nil || !won {
		t.Fatalf("first acquire: won=%v err=%v", won, err)
	}
	// A second candidate cannot acquire while the lease is live.
	elB := NewElector(vsB, "topo", "b", 200*time.Millisecond)
	if _, won, _ := elB.TryAcquire(0); won {
		t.Fatal("second session acquired a held lease")
	}
	// Renewal keeps the term; resignation frees the lease immediately.
	if ok, err := elA.Renew(termA); err != nil || !ok {
		t.Fatalf("renew: ok=%v err=%v", ok, err)
	}
	if err := elA.Resign(); err != nil {
		t.Fatal(err)
	}
	termB, won, err := elB.TryAcquire(0)
	if err != nil || !won {
		t.Fatalf("acquire after resign: won=%v err=%v", won, err)
	}
	if termB <= termA {
		t.Fatalf("term did not advance: %d -> %d", termA, termB)
	}
	li, live, err := elB.Leader()
	if err != nil || !live {
		t.Fatalf("leader: live=%v err=%v", live, err)
	}
	if li.NodeID != "b" || li.Term != termB {
		t.Fatalf("leader record = %+v", li)
	}
}

type fakeActive struct{ stopped chan struct{} }

func (f *fakeActive) Stop() { close(f.stopped) }

// startTestReplica wires a Replica whose Promote installs a fakeActive,
// recording the promotion term and recovered view.
func startTestReplica(t *testing.T, root, node string, ttl, deferFirst time.Duration, promoted chan *View) (*Replica, *statemgr.Manager) {
	t.Helper()
	vs := testStore(t, root)
	r, err := NewReplica(Options{
		Topology: "topo",
		NodeID:   node,
		Store:    vs,
		TTL:      ttl,
		Defer:    deferFirst,
		Promote: func(term int64, view *View, depose func()) (Active, error) {
			if promoted != nil {
				select {
				case promoted <- view:
				default:
				}
			}
			return &fakeActive{stopped: make(chan struct{})}, nil
		},
		Abandon: vs.Abandon,
	})
	if err != nil {
		t.Fatal(err)
	}
	return r, vs
}

// TestReplicaFailoverOnCrash is the election path the chaos harness
// exercises: the leader hard-crashes (session abandoned, lease lapses by
// TTL), a standby wins, fences a higher term, and the old generation's
// log handle is rejected.
func TestReplicaFailoverOnCrash(t *testing.T) {
	root := testRoot(t)
	const ttl = 80 * time.Millisecond

	a, _ := startTestReplica(t, root, "a", ttl, 0, nil)
	waitUntil(t, 5*time.Second, "first leader", a.IsLeader)
	termA := a.Status().Term

	// The old generation's fenced log handle, standing in for a TMaster
	// that survives in memory past its lease. It gets its own session:
	// the crash only abandons the replica's, and fencing — not session
	// death — must be what rejects the late writes.
	vsOld := testStore(t, root)
	defer vsOld.Close()
	oldLog := NewLog(vsOld, "topo")
	if err := oldLog.Fence(termA); err != nil {
		t.Fatal(err)
	}
	if err := oldLog.Append(&Record{Kind: KindCommit, Value: 1}); err != nil {
		t.Fatal(err)
	}

	promoted := make(chan *View, 1)
	b, vsB := startTestReplica(t, root, "b", ttl, 0, promoted)
	defer func() { b.Stop(); vsB.Close() }()

	// Hard-crash the leader: no resign, the lease must lapse by TTL.
	a.Crash()
	waitUntil(t, 5*time.Second, "standby takeover", b.IsLeader)

	st := b.Status()
	if st.Term <= termA {
		t.Fatalf("takeover term %d did not pass crashed leader's %d", st.Term, termA)
	}
	if st.Failovers != 1 || st.LastFailoverNs <= 0 {
		t.Fatalf("failover accounting = %+v", st)
	}
	// The successor's view replayed the old leader's effective writes.
	view := <-promoted
	if view.LastCommit != 1 {
		t.Fatalf("recovered view LastCommit = %d, want 1", view.LastCommit)
	}
	// The dead generation cannot write through its fenced handle.
	if err := oldLog.Append(&Record{Kind: KindCommit, Value: 2}); !errors.Is(err, core.ErrNotLeader) {
		t.Fatalf("crashed leader append = %v, want ErrNotLeader", err)
	}
}

// TestDeferredStandbyCountsFailover: a standby that starts while the
// leader holds its lease, and whose deferred first campaign outlasts that
// leader, still accounts the takeover as a failover. Lease renewals
// rewrite nothing, so no watch event tells it a leader was live.
func TestDeferredStandbyCountsFailover(t *testing.T) {
	root := testRoot(t)
	const ttl = 80 * time.Millisecond

	a, _ := startTestReplica(t, root, "a", ttl, 0, nil)
	waitUntil(t, 5*time.Second, "first leader", a.IsLeader)
	b, vsB := startTestReplica(t, root, "b", ttl, 4*ttl, nil)
	defer func() { b.Stop(); vsB.Close() }()

	a.Crash() // inside b's deferral: b never polls a live leader
	waitUntil(t, 5*time.Second, "standby takeover", b.IsLeader)
	if st := b.Status(); st.Failovers != 1 || st.LastFailoverNs <= 0 {
		t.Fatalf("failover accounting = %+v", st)
	}
}

// TestReplicaCleanStopHandsOverImmediately: a resigning leader frees the
// lease, so the standby takes over without waiting out the TTL.
func TestReplicaCleanStopHandsOver(t *testing.T) {
	root := testRoot(t)
	const ttl = 250 * time.Millisecond

	a, vsA := startTestReplica(t, root, "a", ttl, 0, nil)
	waitUntil(t, 5*time.Second, "first leader", a.IsLeader)

	b, vsB := startTestReplica(t, root, "b", ttl, 0, nil)
	defer func() { b.Stop(); vsB.Close() }()

	a.Stop()
	vsA.Close()
	waitUntil(t, 5*time.Second, "handover", b.IsLeader)
	if got := b.Status().Term; got < 2 {
		t.Fatalf("successor term = %d, want >= 2", got)
	}
}

// TestStandbyTailsWarmView: a standby's view follows the leader's log
// without ever being promoted.
func TestStandbyTailsWarmView(t *testing.T) {
	root := testRoot(t)
	vs := testStore(t, root)
	defer vs.Close()

	// An external leader holds the lease (long TTL, no contest), so the
	// replica below stays a pure standby and only tails.
	el := NewElector(vs, "topo", "ext", 30*time.Second)
	term, won, err := el.TryAcquire(0)
	if err != nil || !won {
		t.Fatalf("external acquire: won=%v err=%v", won, err)
	}
	l := NewLog(vs, "topo")
	if err := l.Fence(term); err != nil {
		t.Fatal(err)
	}
	b, vsB := startTestReplica(t, root, "standby", 100*time.Millisecond, 0, nil)
	defer func() { b.Stop(); vsB.Close() }()

	for epoch := int64(1); epoch <= 3; epoch++ {
		if err := l.Append(&Record{Kind: KindLedger, Ledger: &core.CheckpointLedger{Next: epoch + 1, Pending: epoch}}); err != nil {
			t.Fatal(err)
		}
		if err := l.Append(&Record{Kind: KindCommit, Value: epoch}); err != nil {
			t.Fatal(err)
		}
	}
	waitUntil(t, 5*time.Second, "standby tailing", func() bool {
		v := b.View()
		return v.LastCommit == 3 && v.Ledger.Next == 4 && v.Ledger.Pending == 0
	})
	if b.IsLeader() {
		t.Fatal("deferred standby must not campaign")
	}
}

// eachBackend runs fn once per registered State Manager backend, with an
// opener of sessions on one tree private to the subtest.
func eachBackend(t *testing.T, fn func(t *testing.T, open func() *statemgr.Manager)) {
	for _, name := range core.StateManagerNames() {
		t.Run(name, func(t *testing.T) {
			cfg := core.NewConfig()
			cfg.StateManagerName = name
			cfg.StateRoot = "/rep-" + t.Name()
			cfg.Extra["localfs.root"] = t.TempDir()
			statemgr.ResetSharedStore(cfg.StateRoot)
			t.Cleanup(func() { statemgr.ResetSharedStore(cfg.StateRoot) })
			fn(t, func() *statemgr.Manager {
				m, err := statemgr.Open(cfg)
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { m.Close() })
				return m
			})
		})
	}
}

// epochRecords returns the records one checkpoint epoch appends, with a
// rescale opened on every tenth epoch and closed on the next, so views
// carry a non-nil Rescale across some snapshots.
func epochRecords(epoch int64) []*Record {
	recs := []*Record{
		{Kind: KindLedger, Ledger: &core.CheckpointLedger{Next: epoch + 1, Pending: epoch}},
		{Kind: KindCommit, Value: epoch},
	}
	switch epoch % 10 {
	case 0:
		recs = append(recs, &Record{Kind: KindRescaleBegin, Rescale: &RescaleRecord{Component: "count", Parallelism: int(epoch)}})
	case 1:
		recs = append(recs, &Record{Kind: KindRescaleCommit, Rescale: &RescaleRecord{Component: "count"}})
	}
	return recs
}

// TestStandbyCatchesUpPastSnapshot: compaction deletes the records a
// lagging reader has not folded yet. A view stopped below the snapshot,
// and a replica started after several compactions, must both reach the
// same View as the fold of every record ever appended.
func TestStandbyCatchesUpPastSnapshot(t *testing.T) {
	eachBackend(t, func(t *testing.T, open func() *statemgr.Manager) {
		vs := open()
		el := NewElector(vs, "topo", "ext", 30*time.Second)
		term, won, err := el.TryAcquire(0)
		if err != nil || !won {
			t.Fatalf("external acquire: won=%v err=%v", won, err)
		}
		l := NewLog(vs, "topo")
		if err := l.Fence(term); err != nil {
			t.Fatal(err)
		}
		var whole View // every appended record, folded as it is appended
		appendEpochs := func(from, to int64) {
			for e := from; e <= to; e++ {
				for _, r := range epochRecords(e) {
					if err := l.Append(r); err != nil {
						t.Fatal(err)
					}
					whole.Apply(r)
				}
			}
		}
		appendEpochs(1, 5)
		var lagging View
		if err := NewLog(open(), "topo").Replay(&lagging); err != nil {
			t.Fatal(err)
		}
		appendEpochs(6, 3*SnapshotEvery)
		snap, ok, err := l.Snapshot()
		if err != nil || !ok || snap.AppliedSeq <= lagging.AppliedSeq {
			t.Fatalf("no snapshot past the lagging view at %d: %+v, %v, %v", lagging.AppliedSeq, snap, ok, err)
		}
		if _, ok, _ := l.Read(lagging.AppliedSeq + 1); ok {
			t.Fatalf("record e%d survived compaction", lagging.AppliedSeq+1)
		}
		if err := NewLog(open(), "topo").Replay(&lagging); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(lagging, whole) {
			t.Fatalf("lagging view caught up to\n%+v\nwant\n%+v", lagging, whole)
		}

		b, err := NewReplica(Options{
			Topology: "topo", NodeID: "standby", Store: open(), TTL: 100 * time.Millisecond,
			Promote: func(int64, *View, func()) (Active, error) {
				return nil, errors.New("a standby must not be promoted here")
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		defer b.Stop()
		waitUntil(t, 10*time.Second, "late standby catching up", func() bool {
			return b.View().AppliedSeq == whole.AppliedSeq
		})
		if got := b.View(); !reflect.DeepEqual(*got, whole) {
			t.Fatalf("late standby view\n%+v\nwant\n%+v", *got, whole)
		}
	})
}
