package checkpoint

import (
	"errors"
	"testing"

	"heron/internal/core"
	"heron/internal/statemgr"
)

// newLedgerStateManagers opens one session on every registered State
// Manager backend against an isolated store, as the name → session pairs
// the ledger tests iterate.
func newLedgerStateManagers(t *testing.T) map[string]*statemgr.Manager {
	t.Helper()
	root := "/ledger-" + t.Name()
	t.Cleanup(func() { statemgr.ResetSharedStore(root) })
	out := map[string]*statemgr.Manager{}
	for _, name := range core.StateManagerNames() {
		cfg := core.NewConfig()
		cfg.StateManagerName = name
		cfg.StateRoot = root
		cfg.Extra["localfs.root"] = t.TempDir()
		sm, err := statemgr.Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { sm.Close() })
		out[name] = sm
	}
	return out
}

// TestCoordinatorLedgerSurvivesRestart replays the latent gap this PR
// closes: the TMaster dies between an epoch's prepare (barrier started,
// sinks may hold prepared transactions for it) and its global commit. The
// backend only records *committed* checkpoints, so without the ledger a
// restarted coordinator would reuse the in-flight id and conflate two
// different cuts of the stream under one epoch. With the ledger the id
// sequence stays strictly monotone.
func TestCoordinatorLedgerSurvivesRestart(t *testing.T) {
	for name, sm := range newLedgerStateManagers(t) {
		t.Run(name, func(t *testing.T) {
			b := newTestBackend(t, "memory")

			a := NewCoordinator("topo", b)
			a.UseLedger(sm)
			if err := a.InitFromBackend(); err != nil {
				t.Fatal(err)
			}
			first, ok := a.Begin([]int32{1, 2})
			if !ok {
				t.Fatal("Begin failed")
			}
			// One task saves, then the coordinator "dies" mid-barrier:
			// epoch `first` is prepared at task 1 but never commits.
			if done, err := a.Saved(1, first); err != nil || done {
				t.Fatalf("partial save: done=%v err=%v", done, err)
			}

			// Restart: a new coordinator on the same backend and ledger.
			rb := NewCoordinator("topo", b)
			rb.UseLedger(sm)
			if err := rb.InitFromBackend(); err != nil {
				t.Fatal(err)
			}
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
		})
	}
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
// either.
func TestCoordinatorLedgerCoversReserve(t *testing.T) {
	sm := newLedgerStateManagers(t)["memory"]
	b := newTestBackend(t, "memory")
	a := NewCoordinator("topo", b)
	a.UseLedger(sm)
	reserved := a.Reserve()

	rb := NewCoordinator("topo", b)
	rb.UseLedger(sm)
	if err := rb.InitFromBackend(); err != nil {
		t.Fatal(err)
	}
	next, _ := rb.Begin([]int32{1})
	if next <= reserved {
		t.Fatalf("reserved id reused: reserved=%d next=%d", reserved, next)
	}
}

// TestCheckpointLedgerRoundTrip covers the State Manager extension
// directly: set/get across sessions, ErrNotFound when absent.
func TestCheckpointLedgerRoundTrip(t *testing.T) {
	for name, sm := range newLedgerStateManagers(t) {
		t.Run(name, func(t *testing.T) {
			if _, err := sm.GetCheckpointLedger("nope"); !errors.Is(err, core.ErrNotFound) {
				t.Fatalf("absent ledger: err = %v, want ErrNotFound", err)
			}
			want := &core.CheckpointLedger{Next: 7, Pending: 6}
			if err := sm.SetCheckpointLedger("topo", want); err != nil {
				t.Fatal(err)
			}
			got, err := sm.GetCheckpointLedger("topo")
			if err != nil || got.Next != 7 || got.Pending != 6 {
				t.Fatalf("GetCheckpointLedger = %+v, %v", got, err)
			}
			// Overwrites follow the epoch sequence forward.
			if err := sm.SetCheckpointLedger("topo", &core.CheckpointLedger{Next: 9}); err != nil {
				t.Fatal(err)
			}
			got, err = sm.GetCheckpointLedger("topo")
			if err != nil || got.Next != 9 || got.Pending != 0 {
				t.Fatalf("after overwrite = %+v, %v", got, err)
			}
		})
	}
}
