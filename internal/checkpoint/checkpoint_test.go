package checkpoint

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"

	"heron/internal/core"
	"heron/internal/encoding/wire"
)

func TestStateCodecRoundTrip(t *testing.T) {
	s := NewMapState()
	s.Set("alpha", []byte("1"))
	s.Set("beta", []byte{0, 1, 2, 255})
	s.Set("empty", nil)
	enc := EncodeState(s)
	got, err := DecodeState(enc)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 3 {
		t.Fatalf("Len = %d, want 3", got.Len())
	}
	if string(got.Get("alpha")) != "1" || !bytes.Equal(got.Get("beta"), []byte{0, 1, 2, 255}) {
		t.Fatalf("round-trip mismatch: %v", got.m)
	}
	if len(got.Get("empty")) != 0 {
		t.Fatalf("empty value = %q", got.Get("empty"))
	}
}

func TestStateCodecDeterministic(t *testing.T) {
	a, b := NewMapState(), NewMapState()
	for i := 0; i < 64; i++ {
		k, v := fmt.Sprintf("key-%d", i), []byte(fmt.Sprintf("val-%d", i))
		a.Set(k, v)
	}
	for i := 63; i >= 0; i-- {
		k, v := fmt.Sprintf("key-%d", i), []byte(fmt.Sprintf("val-%d", i))
		b.Set(k, v)
	}
	if !bytes.Equal(EncodeState(a), EncodeState(b)) {
		t.Fatal("equal states encoded differently")
	}
}

// appendStateFromNil is EncodeState as it was before it presized its
// buffer: the reference the exact-size encoder must match byte for byte.
func appendStateFromNil(s *MapState) []byte {
	keys := make([]string, 0, len(s.m))
	for k := range s.m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	b := wire.AppendUvarint(nil, uint64(len(keys)))
	for _, k := range keys {
		b = wire.AppendUvarint(b, uint64(len(k)))
		b = append(b, k...)
		b = wire.AppendUvarint(b, uint64(len(s.m[k])))
		b = append(b, s.m[k]...)
	}
	return b
}

// TestEncodeStateByteIdentical: sizing the snapshot buffer up front
// changes its allocation, never its bytes, and the size is exact.
func TestEncodeStateByteIdentical(t *testing.T) {
	states := map[string]*MapState{"empty": NewMapState()}
	small := NewMapStateSize(2)
	small.Set("a", []byte{1})
	small.Set("", nil)
	states["small"] = small
	if got, want := EncodeState(small), []byte{2, 0, 0, 1, 'a', 1, 1}; !bytes.Equal(got, want) {
		t.Errorf("small state = %x, want %x", got, want)
	}
	// Multi-byte lengths and counts: 200 keys, some 130 B long, values
	// up to 300 B.
	big := NewMapState()
	for i := 0; i < 200; i++ {
		k := fmt.Sprintf("key-%d-%s", i, strings.Repeat("k", i%3*65))
		big.Set(k, bytes.Repeat([]byte{byte(i)}, i*3/2))
	}
	states["big"] = big
	for name, st := range states {
		got, want := EncodeState(st), appendStateFromNil(st)
		if !bytes.Equal(got, want) {
			t.Errorf("%s: EncodeState differs from the reference encoding", name)
		}
		if cap(got) != len(got) {
			t.Errorf("%s: buffer cap %d for %d bytes, want exact", name, cap(got), len(got))
		}
	}
}

func TestStateCodecRejectsTrailing(t *testing.T) {
	enc := append(EncodeState(NewMapState()), 0xff)
	if _, err := DecodeState(enc); err == nil {
		t.Fatal("trailing bytes accepted")
	}
}

func TestDecodeStateEmpty(t *testing.T) {
	s, err := DecodeState(EncodeState(NewMapState()))
	if err != nil || s.Len() != 0 {
		t.Fatalf("empty state round-trip: %v, len %d", err, s.Len())
	}
}

// TestDecodeStateBoundsHeaderHint: a header claiming far more pairs than
// the snapshot can hold must not size the map by the claim.
func TestDecodeStateBoundsHeaderHint(t *testing.T) {
	b := wire.AppendUvarint(nil, 1<<20)
	if len(b) != 3 {
		t.Fatalf("header is %d bytes, want 3", len(b))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := DecodeState(b)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("a header with no pairs behind it decoded")
	}
	if n := after.TotalAlloc - before.TotalAlloc; n >= 64<<10 {
		t.Fatalf("decoding a %d-byte snapshot allocated %d B, want < 64 KiB", len(b), n)
	}
}

// FuzzDecodeState: any input either errors or decodes to a state whose
// encoding decodes equal to it.
func FuzzDecodeState(f *testing.F) {
	small := NewMapState()
	small.Set("a", []byte{1})
	small.Set("", nil)
	f.Add(EncodeState(small))
	f.Add(EncodeState(NewMapState()))
	f.Add(wire.AppendUvarint(nil, 1<<20))
	f.Add([]byte{1, 0})
	f.Fuzz(func(t *testing.T, b []byte) {
		s, err := DecodeState(b)
		if err != nil {
			return
		}
		back, err := DecodeState(EncodeState(s))
		if err != nil {
			t.Fatalf("re-encoded state does not decode: %v", err)
		}
		if back.Len() != s.Len() {
			t.Fatalf("re-decoded %d keys, want %d", back.Len(), s.Len())
		}
		s.Range(func(k string, v []byte) bool {
			if got, ok := back.m[k]; !ok || !bytes.Equal(got, v) {
				t.Fatalf("key %q: re-decoded %q (present %v), want %q", k, got, ok, v)
			}
			return true
		})
	})
}

// newTestBackend builds an initialized session of each backend
// against an isolated store.
func newTestBackend(t *testing.T, name string) Backend {
	t.Helper()
	cfg := core.NewConfig()
	if name == "localfs" {
		cfg.Extra = map[string]string{"checkpoint.root": t.TempDir()}
	}
	b, err := New(name)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Initialize(cfg); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = b.Close() })
	return b
}

var backendNames = []string{"memory", "localfs", "redis"}

func TestBackendRoundTrip(t *testing.T) {
	for _, name := range backendNames {
		t.Run(name, func(t *testing.T) {
			b := newTestBackend(t, name)
			if _, err := b.Load("topo", 1, 0); !errors.Is(err, core.ErrNotFound) {
				t.Fatalf("missing snapshot: err = %v, want ErrNotFound", err)
			}
			if err := b.Save("topo", 1, 0, []byte("snap-a")); err != nil {
				t.Fatal(err)
			}
			if err := b.Save("topo", 1, 7, []byte("snap-b")); err != nil {
				t.Fatal(err)
			}
			got, err := b.Load("topo", 1, 7)
			if err != nil || string(got) != "snap-b" {
				t.Fatalf("Load = %q, %v", got, err)
			}
			// The store keeps its own copy: the caller may reuse its buffer.
			buf := []byte("snap-c")
			if err := b.Save("topo", 1, 8, buf); err != nil {
				t.Fatal(err)
			}
			copy(buf, "XXXXXX")
			if got, err := b.Load("topo", 1, 8); err != nil || string(got) != "snap-c" {
				t.Fatalf("Load after the caller reused its buffer = %q, %v", got, err)
			}
			// Snapshots are uncommitted until Commit.
			if latest, err := b.LatestCommitted("topo"); err != nil || latest != 0 {
				t.Fatalf("LatestCommitted = %d, %v, want 0", latest, err)
			}
			if err := b.Commit("topo", 1); err != nil {
				t.Fatal(err)
			}
			if latest, err := b.LatestCommitted("topo"); err != nil || latest != 1 {
				t.Fatalf("LatestCommitted = %d, %v, want 1", latest, err)
			}
			// A closed session fails every call.
			if err := b.Close(); err != nil {
				t.Fatal(err)
			}
			if _, err := b.Load("topo", 1, 7); err == nil || errors.Is(err, core.ErrNotFound) {
				t.Fatalf("Load after Close: err = %v, want not initialized", err)
			}
			if err := b.Commit("topo", 2); err == nil {
				t.Fatal("Commit after Close succeeded")
			}
		})
	}
}

func TestBackendCommitMonotonic(t *testing.T) {
	for _, name := range backendNames {
		t.Run(name, func(t *testing.T) {
			b := newTestBackend(t, name)
			if err := b.Commit("topo", 5); err != nil {
				t.Fatal(err)
			}
			// A straggler saves under an id the record has passed.
			if err := b.Save("topo", 4, 0, []byte("late")); err != nil {
				t.Fatal(err)
			}
			// A late commit of an older checkpoint must not roll back, and
			// still retires everything below the record.
			if err := b.Commit("topo", 3); err != nil {
				t.Fatal(err)
			}
			if latest, _ := b.LatestCommitted("topo"); latest != 5 {
				t.Fatalf("LatestCommitted = %d, want 5", latest)
			}
			if _, err := b.Load("topo", 4, 0); !errors.Is(err, core.ErrNotFound) {
				t.Fatalf("late snapshot below the record survived a commit: %v", err)
			}
			// A commit record that does not parse is an error, not id 0.
			if err := b.(*backend).s.put(latestKey("topo"), []byte("garbage")); err != nil {
				t.Fatal(err)
			}
			if _, err := b.LatestCommitted("topo"); err == nil {
				t.Fatal("LatestCommitted read a corrupt record")
			}
			if err := b.Commit("topo", 6); err == nil {
				t.Fatal("Commit over a corrupt record succeeded")
			}
		})
	}
}

func TestBackendRetiresSuperseded(t *testing.T) {
	for _, name := range backendNames {
		t.Run(name, func(t *testing.T) {
			b := newTestBackend(t, name)
			for id := int64(1); id <= 3; id++ {
				if err := b.Save("topo", id, 0, []byte{byte(id)}); err != nil {
					t.Fatal(err)
				}
				if err := b.Commit("topo", id); err != nil {
					t.Fatal(err)
				}
			}
			// Only the newest committed checkpoint must survive.
			if _, err := b.Load("topo", 1, 0); !errors.Is(err, core.ErrNotFound) {
				t.Fatalf("superseded snapshot still loadable: %v", err)
			}
			if got, err := b.Load("topo", 3, 0); err != nil || got[0] != 3 {
				t.Fatalf("latest snapshot: %v, %v", got, err)
			}
		})
	}
}

func TestBackendDispose(t *testing.T) {
	for _, name := range backendNames {
		t.Run(name, func(t *testing.T) {
			b := newTestBackend(t, name)
			if err := b.Save("topo", 1, 0, []byte("x")); err != nil {
				t.Fatal(err)
			}
			if err := b.Commit("topo", 1); err != nil {
				t.Fatal(err)
			}
			if err := b.Dispose("topo"); err != nil {
				t.Fatal(err)
			}
			if latest, err := b.LatestCommitted("topo"); err != nil || latest != 0 {
				t.Fatalf("after Dispose: LatestCommitted = %d, %v", latest, err)
			}
			if _, err := b.Load("topo", 1, 0); !errors.Is(err, core.ErrNotFound) {
				t.Fatalf("after Dispose: Load err = %v", err)
			}
		})
	}
}

func TestBackendSessionsShareStore(t *testing.T) {
	for _, name := range backendNames {
		t.Run(name, func(t *testing.T) {
			cfg := core.NewConfig()
			if name == "localfs" {
				cfg.Extra = map[string]string{"checkpoint.root": t.TempDir()}
			}
			a, _ := New(name)
			b, _ := New(name)
			if err := a.Initialize(cfg); err != nil {
				t.Fatal(err)
			}
			if err := b.Initialize(cfg); err != nil {
				t.Fatal(err)
			}
			defer a.Close()
			defer b.Close()
			if err := a.Save("topo", 1, 0, []byte("via-a")); err != nil {
				t.Fatal(err)
			}
			if err := a.Commit("topo", 1); err != nil {
				t.Fatal(err)
			}
			if got, err := b.Load("topo", 1, 0); err != nil || string(got) != "via-a" {
				t.Fatalf("second session Load = %q, %v", got, err)
			}
			if latest, _ := b.LatestCommitted("topo"); latest != 1 {
				t.Fatalf("second session LatestCommitted = %d", latest)
			}
			// Sessions committing at once never lower the record.
			var wg sync.WaitGroup
			for i, s := range []Backend{a, b, a, b} {
				wg.Add(1)
				go func(s Backend, first int64) {
					defer wg.Done()
					for id := first; id <= 40; id += 4 {
						if err := s.Commit("topo", id); err != nil {
							t.Error(err)
						}
					}
				}(s, int64(i)+2)
			}
			wg.Wait()
			if latest, _ := a.LatestCommitted("topo"); latest != 40 {
				t.Fatalf("after concurrent commits LatestCommitted = %d, want 40", latest)
			}
			if name == "localfs" {
				return // a directory, not a World, is what localfs sessions share
			}
			// Another NewConfig is another deployment: the same StateRoot
			// in a fresh World holds no snapshot.
			other, _ := New(name)
			if err := other.Initialize(core.NewConfig()); err != nil {
				t.Fatal(err)
			}
			defer other.Close()
			if _, err := other.Load("topo", 1, 0); !errors.Is(err, core.ErrNotFound) {
				t.Fatalf("fresh World Load err = %v, want ErrNotFound", err)
			}
			if latest, _ := other.LatestCommitted("topo"); latest != 0 {
				t.Fatalf("fresh World LatestCommitted = %d", latest)
			}
		})
	}
}

func TestNewUnknownBackend(t *testing.T) {
	if _, err := New("no-such-backend"); !errors.Is(err, core.ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
	if b, err := New(""); err != nil {
		t.Fatalf("default backend: %v", err)
	} else if name := b.(*backend).name; name != "memory" {
		t.Fatalf("default backend = %q, want memory", name)
	}
}

// failingRemove is a store whose remove fails while fail is set.
type failingRemove struct {
	store
	fail bool
}

func (f *failingRemove) remove(dir string) error {
	if f.fail {
		return errors.New("remove failed")
	}
	return f.store.remove(dir)
}

// TestCommitSurvivesFailedRetirement: once the record is written, a
// retirement that fails leaves the Commit successful, and the next Commit
// retires what it left.
func TestCommitSurvivesFailedRetirement(t *testing.T) {
	s := &failingRemove{store: &memStore{blobs: map[string][]byte{}}, fail: true}
	b := &backend{name: "memory", s: s}
	for id := int64(1); id <= 2; id++ {
		if err := b.Save("topo", id, 0, []byte{byte(id)}); err != nil {
			t.Fatal(err)
		}
		if err := b.Commit("topo", id); err != nil {
			t.Fatalf("Commit(%d) with a failing retirement: %v", id, err)
		}
	}
	if latest, _ := b.LatestCommitted("topo"); latest != 2 {
		t.Fatalf("LatestCommitted = %d, want 2", latest)
	}
	if _, err := b.Load("topo", 1, 0); err != nil {
		t.Fatalf("checkpoint 1 went although its retirement failed: %v", err)
	}
	s.fail = false
	if err := b.Commit("topo", 2); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Load("topo", 1, 0); !errors.Is(err, core.ErrNotFound) {
		t.Fatalf("the next Commit left checkpoint 1: %v", err)
	}
}

func TestCoordinatorBarrier(t *testing.T) {
	b := newTestBackend(t, "memory")
	c := NewCoordinator("topo", b)
	id, ok := c.Begin([]int32{0, 1, 2})
	if !ok || id != 1 {
		t.Fatalf("Begin = %d, %v", id, ok)
	}
	for _, task := range []int32{0, 1} {
		if complete, err := c.Saved(task, id); err != nil || complete {
			t.Fatalf("task %d: complete = %v, err = %v", task, complete, err)
		}
	}
	// Duplicate and stale acks are ignored.
	if complete, _ := c.Saved(0, id); complete {
		t.Fatal("duplicate ack completed the barrier")
	}
	if complete, _ := c.Saved(2, id-1); complete {
		t.Fatal("stale ack completed the barrier")
	}
	complete, err := c.Saved(2, id)
	if err != nil || !complete {
		t.Fatalf("final ack: complete = %v, err = %v", complete, err)
	}
	if latest, _ := b.LatestCommitted("topo"); latest != id {
		t.Fatalf("commit not persisted: latest = %d", latest)
	}
	if c.Pending() != 0 {
		t.Fatalf("Pending = %d after commit", c.Pending())
	}
}

func TestCoordinatorAbandonsStalePending(t *testing.T) {
	b := newTestBackend(t, "memory")
	c := NewCoordinator("topo", b)
	id1, _ := c.Begin([]int32{0, 1})
	if _, err := c.Saved(0, id1); err != nil {
		t.Fatal(err)
	}
	// Task 1 died; the next interval abandons checkpoint 1.
	id2, ok := c.Begin([]int32{0, 1})
	if !ok || id2 != id1+1 {
		t.Fatalf("Begin = %d, %v", id2, ok)
	}
	// A straggler ack for the abandoned id must not commit anything.
	if complete, _ := c.Saved(1, id1); complete {
		t.Fatal("abandoned checkpoint completed")
	}
	for _, task := range []int32{0, 1} {
		if _, err := c.Saved(task, id2); err != nil {
			t.Fatal(err)
		}
	}
	if latest, _ := b.LatestCommitted("topo"); latest != id2 {
		t.Fatalf("latest = %d, want %d", latest, id2)
	}
}

func TestCoordinatorInitFromBackend(t *testing.T) {
	b := newTestBackend(t, "memory")
	if err := b.Commit("topo", 9); err != nil {
		t.Fatal(err)
	}
	c := NewCoordinator("topo", b)
	if err := c.InitFromBackend(); err != nil {
		t.Fatal(err)
	}
	if id, _ := c.Begin([]int32{0}); id != 10 {
		t.Fatalf("restarted coordinator reused id %d", id)
	}
}

func TestCoordinatorBeginEmpty(t *testing.T) {
	c := NewCoordinator("topo", nil)
	if _, ok := c.Begin(nil); ok {
		t.Fatal("Begin accepted an empty task set")
	}
}
