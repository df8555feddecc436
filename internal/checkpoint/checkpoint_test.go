package checkpoint

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"strings"
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

// newTestBackend builds an initialized session of each registered backend
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
			// A late commit of an older checkpoint must not roll back.
			if err := b.Commit("topo", 3); err != nil {
				t.Fatal(err)
			}
			if latest, _ := b.LatestCommitted("topo"); latest != 5 {
				t.Fatalf("LatestCommitted = %d, want 5", latest)
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
	} else if _, ok := b.(*memoryBackend); !ok {
		t.Fatalf("default backend = %T, want memory", b)
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
