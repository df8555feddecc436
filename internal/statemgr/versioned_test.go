package statemgr

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"heron/internal/core"
)

// TestSetIfCAS drives the compare-and-set contract every implementation
// must share: versions start at 1 on creation, advance by 1 per write,
// and a stale expectation fails with core.ErrVersionMismatch.
func TestSetIfCAS(t *testing.T) {
	eachBackend(t, func(t *testing.T, open func() *Manager) {
		a, b := open(), open()
		const p = "/topologies/wc/ctrllog/head"

		// Create-only write: expectVersion 0 means "must not exist".
		v, err := a.SetIf(p, []byte("one"), 0)
		if err != nil || v != 1 {
			t.Fatalf("create: v=%d err=%v", v, err)
		}
		// A second create from another session loses the race.
		if _, err := b.SetIf(p, []byte("dup"), 0); !errors.Is(err, core.ErrVersionMismatch) {
			t.Fatalf("duplicate create = %v, want ErrVersionMismatch", err)
		}
		// CAS with the right version advances it.
		v, err = b.SetIf(p, []byte("two"), 1)
		if err != nil || v != 2 {
			t.Fatalf("cas: v=%d err=%v", v, err)
		}
		// The loser's stale expectation is rejected.
		if _, err := a.SetIf(p, []byte("stale"), 1); !errors.Is(err, core.ErrVersionMismatch) {
			t.Fatalf("stale cas = %v, want ErrVersionMismatch", err)
		}
		data, v, ok, err := a.GetVersioned(p)
		if err != nil || !ok || v != 2 || string(data) != "two" {
			t.Fatalf("get = %q v=%d ok=%v err=%v", data, v, ok, err)
		}
		// Deletion resets the node instance: create-only works again
		// and versions restart at 1 (ZooKeeper semantics).
		if err := a.DeleteNode(p); err != nil {
			t.Fatal(err)
		}
		v, err = b.SetIf(p, []byte("reborn"), 0)
		if err != nil || v != 1 {
			t.Fatalf("recreate: v=%d err=%v", v, err)
		}
	})
}

// TestLeaseLifecycle: acquisition excludes other sessions, renewal
// extends, release frees immediately, and an unrenewed lease lapses at
// its TTL — observed by watches as a deletion.
func TestLeaseLifecycle(t *testing.T) {
	eachBackend(t, func(t *testing.T, open func() *Manager) {
		a, b := open(), open()
		const p = "/topologies/wc/leader"
		ttl := 150 * time.Millisecond

		ok, err := a.AcquireLease(p, []byte("a"), ttl)
		if err != nil || !ok {
			t.Fatalf("acquire: ok=%v err=%v", ok, err)
		}
		// Held: the other session is refused without error.
		if ok, err := b.AcquireLease(p, []byte("b"), ttl); err != nil || ok {
			t.Fatalf("contending acquire: ok=%v err=%v", ok, err)
		}
		// The holder renews freely.
		if ok, err := a.AcquireLease(p, []byte("a2"), ttl); err != nil || !ok {
			t.Fatalf("renew: ok=%v err=%v", ok, err)
		}
		// Release frees the node for immediate takeover.
		if err := a.ReleaseLease(p); err != nil {
			t.Fatal(err)
		}
		if ok, err := b.AcquireLease(p, []byte("b"), ttl); err != nil || !ok {
			t.Fatalf("acquire after release: ok=%v err=%v", ok, err)
		}

		// Expiry: b stops renewing; a's watch sees the node vanish and
		// a can then take the lease without any release.
		events := watchEvents(t, a, p)
		awaitEvent(t, events, "the lease expiry", func(ev nodeEvent) bool { return !ev.exists })
		if ok, err := a.AcquireLease(p, []byte("a3"), ttl); err != nil || !ok {
			t.Fatalf("acquire after expiry: ok=%v err=%v", ok, err)
		}
	})
}

// TestWatchNodeChurn: a watch sees every (exists, version) transition —
// create, update, delete, re-create — without missing the final state.
func TestWatchNodeChurn(t *testing.T) {
	eachBackend(t, func(t *testing.T, open func() *Manager) {
		a, b := open(), open()
		const p = "/topologies/wc/ctrllog/e1"
		events := watchEvents(t, a, p)

		if _, err := b.SetIf(p, []byte("v1"), 0); err != nil {
			t.Fatal(err)
		}
		if _, err := b.SetIf(p, []byte("v2"), 1); err != nil {
			t.Fatal(err)
		}
		if err := b.DeleteNode(p); err != nil {
			t.Fatal(err)
		}
		if _, err := b.SetIf(p, []byte("v3"), 0); err != nil {
			t.Fatal(err)
		}
		// The poll-based localfs watch may coalesce intermediate
		// transitions; what no implementation may do is miss the final
		// state or deliver it with stale data.
		if ev := awaitEvent(t, events, "v3", func(ev nodeEvent) bool { return ev.data == "v3" }); !ev.exists {
			t.Fatalf("final event = %+v, want exists", ev)
		}
	})
}

// TestWatchSeesRecreateAtSameVersion: a node deleted and re-created with
// other data lands at the version it had before; a watch must still
// report the new data — the same shape as a successor's lease landing at
// the version of a dead leader's lease.
func TestWatchSeesRecreateAtSameVersion(t *testing.T) {
	eachBackend(t, func(t *testing.T, open func() *Manager) {
		a, b := open(), open()
		const p = "/topologies/wc/x"
		if err := b.Set(p, []byte("one"), false); err != nil {
			t.Fatal(err)
		}
		events := watchEvents(t, a, p)
		if err := b.DeleteNode(p); err != nil {
			t.Fatal(err)
		}
		if err := b.Set(p, []byte("two"), false); err != nil {
			t.Fatal(err)
		}
		if _, v, _, _ := b.GetVersioned(p); v != 1 {
			t.Fatalf("re-created node at version %d, want 1", v)
		}
		if ev := awaitEvent(t, events, "the re-created data", func(ev nodeEvent) bool { return ev.data == "two" }); !ev.exists {
			t.Fatalf("event = %+v, want exists", ev)
		}
	})
}

// TestWatchCancelDuringCallback: cancelling a watch from inside its own
// callback must not deadlock (the failure mode of firing callbacks under
// the store lock).
func TestWatchCancelDuringCallback(t *testing.T) {
	eachBackend(t, func(t *testing.T, open func() *Manager) {
		a, b := open(), open()
		const p = "/topologies/wc/leader"

		var cancel func()
		fired := make(chan struct{}, 1)
		cancel, err := a.WatchNode(p, func(_ []byte, _ bool) {
			cancel() // re-entrant cancel
			select {
			case fired <- struct{}{}:
			default:
			}
		})
		if err != nil {
			t.Fatal(err)
		}

		done := make(chan error, 1)
		go func() {
			_, err := b.SetIf(p, []byte("x"), 0)
			done <- err
		}()
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("SetIf deadlocked against in-callback cancel")
		}
		select {
		case <-fired:
		case <-time.After(5 * time.Second):
			t.Fatal("watch never fired")
		}
	})
}

// TestAbandonedSessionLeaseLapses: Abandon models a hard crash — the
// lease is NOT released, it lapses at the TTL, which is the window the
// replicated control plane's failover is designed around.
func TestAbandonedSessionLeaseLapses(t *testing.T) {
	eachBackend(t, func(t *testing.T, open func() *Manager) {
		crasher, observer := open(), open()
		const p = "/topologies/wc/leader"
		ttl := 100 * time.Millisecond
		if ok, err := crasher.AcquireLease(p, []byte("x"), ttl); err != nil || !ok {
			t.Fatalf("acquire: ok=%v err=%v", ok, err)
		}
		start := time.Now()
		crasher.Abandon()

		// Immediately after the crash the lease is still held.
		if ok, _ := observer.AcquireLease(p, []byte("y"), ttl); ok {
			t.Fatal("lease stolen before TTL lapsed")
		}
		deadline := time.Now().Add(10 * ttl)
		for {
			if ok, _ := observer.AcquireLease(p, []byte("y"), ttl); ok {
				break
			}
			if time.Now().After(deadline) {
				t.Fatal("abandoned lease never lapsed")
			}
			time.Sleep(5 * time.Millisecond)
		}
		if waited := time.Since(start); waited < ttl/2 {
			t.Fatalf("lease lapsed after %v, well before its %v TTL", waited, ttl)
		}
	})
}

// TestSetIfConcurrentCounter: N sessions CAS-increment one counter; every
// increment lands exactly once (the property term allocation relies on).
func TestSetIfConcurrentCounter(t *testing.T) {
	eachBackend(t, func(t *testing.T, open func() *Manager) {
		const sessions, bumps = 4, 25
		done := make(chan error, sessions)
		for i := 0; i < sessions; i++ {
			go func(vs core.VersionedStore) {
				for n := 0; n < bumps; n++ {
					for {
						data, ver, _, err := vs.GetVersioned("/ctr")
						if err != nil {
							done <- err
							return
						}
						cur := 0
						fmt.Sscanf(string(data), "%d", &cur)
						_, err = vs.SetIf("/ctr", []byte(fmt.Sprintf("%d", cur+1)), ver)
						if err == nil {
							break
						}
						if !errors.Is(err, core.ErrVersionMismatch) {
							done <- err
							return
						}
					}
				}
				done <- nil
			}(open())
		}
		for i := 0; i < sessions; i++ {
			if err := <-done; err != nil {
				t.Fatal(err)
			}
		}
		data, _, ok, err := open().GetVersioned("/ctr")
		if err != nil || !ok {
			t.Fatalf("counter read: ok=%v err=%v", ok, err)
		}
		if string(data) != fmt.Sprintf("%d", sessions*bumps) {
			t.Fatalf("counter = %s, want %d", data, sessions*bumps)
		}
	})
}
