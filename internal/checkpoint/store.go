package checkpoint

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"heron/internal/core"
	"heron/internal/extsvc/redissim"
)

// store is what a backend lays its snapshots out over: blobs under
// slash-separated keys. Every method must be safe for concurrent use.
type store interface {
	// put stores data under key; the store keeps its own copy.
	put(key string, data []byte) error
	// get returns the data under key; ok is false if there is none.
	get(key string) (data []byte, ok bool, err error)
	// list returns the names one level below dir, each once.
	list(dir string) ([]string, error)
	// remove deletes dir and every key under it.
	remove(dir string) error
}

// stores opens each named store against a deployment's Config.
var stores = map[string]func(cfg *core.Config) (store, error){
	"memory":  openMemStore,
	"localfs": openDirStore,
	"redis":   openRedisStore,
}

// New builds an uninitialized backend session over the named store
// ("" selects "memory").
func New(name string) (Backend, error) {
	if name == "" {
		name = "memory"
	}
	if _, ok := stores[name]; !ok {
		names := make([]string, 0, len(stores))
		for n := range stores {
			names = append(names, n)
		}
		sort.Strings(names)
		return nil, fmt.Errorf("checkpoint: unknown backend %q (known: %v): %w",
			name, names, core.ErrNotFound)
	}
	return &backend{name: name, s: uninitialized(name)}, nil
}

// backend is the one Backend: the layout, the commit record and
// retirement, over whichever store its name selects.
//
// Layout:
//
//	ckpt/<topology>/<id>/<task>   one task's snapshot
//	ckpt/<topology>/latest        decimal id of the newest commit
type backend struct {
	name string
	s    store
}

func (b *backend) Initialize(cfg *core.Config) error {
	s, err := stores[b.name](cfg)
	if err != nil {
		return err
	}
	b.s = s
	return nil
}

func topologyDir(topology string) string { return "ckpt/" + topology }

func snapshotKey(topology string, id int64, task int32) string {
	return topologyDir(topology) + "/" + strconv.FormatInt(id, 10) + "/" + strconv.FormatInt(int64(task), 10)
}

func latestKey(topology string) string { return topologyDir(topology) + "/latest" }

func (b *backend) Save(topology string, checkpointID int64, task int32, data []byte) error {
	return b.s.put(snapshotKey(topology, checkpointID, task), data)
}

func (b *backend) Load(topology string, checkpointID int64, task int32) ([]byte, error) {
	data, ok, err := b.s.get(snapshotKey(topology, checkpointID, task))
	if err == nil && !ok {
		err = core.ErrNotFound
	}
	return data, err
}

// commitMu makes Commit's read-then-raise of the commit record atomic
// across every session in the process: no store offers a compare-and-set,
// and a straggling interval commit must not lower the record a rescale
// just raised.
var commitMu sync.Mutex

func (b *backend) Commit(topology string, checkpointID int64) error {
	commitMu.Lock()
	defer commitMu.Unlock()
	latest, err := b.LatestCommitted(topology)
	if err != nil {
		return err
	}
	if checkpointID > latest {
		if err := b.s.put(latestKey(topology), strconv.AppendInt(nil, checkpointID, 10)); err != nil {
			return err
		}
		latest = checkpointID
	}
	// Retire every checkpoint below the record; only the latest committed
	// one is ever restored. A failure here leaves stale snapshots that
	// the next Commit retires, so it does not fail this one.
	names, _ := b.s.list(topologyDir(topology))
	for _, name := range names {
		if id, err := strconv.ParseInt(name, 10, 64); err == nil && id < latest {
			_ = b.s.remove(topologyDir(topology) + "/" + name)
		}
	}
	return nil
}

func (b *backend) LatestCommitted(topology string) (int64, error) {
	raw, ok, err := b.s.get(latestKey(topology))
	if err != nil || !ok {
		return 0, err
	}
	id, err := strconv.ParseInt(string(raw), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("checkpoint: corrupt latest record: %w", err)
	}
	return id, nil
}

func (b *backend) Dispose(topology string) error { return b.s.remove(topologyDir(topology)) }

func (b *backend) Close() error {
	b.s = uninitialized(b.name)
	return nil
}

// uninitialized is the store of a session before Initialize and after
// Close: every call fails.
type uninitialized string

func (u uninitialized) err() error {
	return fmt.Errorf("checkpoint: %s backend not initialized", string(u))
}
func (u uninitialized) put(string, []byte) error         { return u.err() }
func (u uninitialized) get(string) ([]byte, bool, error) { return nil, false, u.err() }
func (u uninitialized) list(string) ([]string, error)    { return nil, u.err() }
func (u uninitialized) remove(string) error              { return u.err() }

// children returns the distinct names one level below dir among keys.
func children(dir string, keys []string) []string {
	prefix := dir + "/"
	seen := map[string]bool{}
	var names []string
	for _, k := range keys {
		if rest, ok := strings.CutPrefix(k, prefix); ok {
			name, _, _ := strings.Cut(rest, "/")
			if !seen[name] {
				seen[name] = true
				names = append(names, name)
			}
		}
	}
	return names
}

// memStore is the snapshot store of a core.World and StateRoot: every
// session on the same World and StateRoot sees the same snapshots, the
// way separate processes would share one checkpoint service.
type memStore struct {
	mu    sync.Mutex
	blobs map[string][]byte
}

func openMemStore(cfg *core.Config) (store, error) {
	return core.Shared(cfg.World, "memory snapshots", cfg.StateRoot, func() *memStore {
		return &memStore{blobs: map[string][]byte{}}
	})
}

// ResetSharedMemory does nothing: a snapshot store belongs to its
// core.World and goes with it.
//
// Deprecated: give each deployment its own core.NewConfig instead.
func ResetSharedMemory(root string) {}

func (m *memStore) put(key string, data []byte) error {
	cp := append([]byte(nil), data...)
	m.mu.Lock()
	m.blobs[key] = cp
	m.mu.Unlock()
	return nil
}

func (m *memStore) get(key string) ([]byte, bool, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	data, ok := m.blobs[key]
	return append([]byte(nil), data...), ok, nil
}

func (m *memStore) list(dir string) ([]string, error) {
	m.mu.Lock()
	keys := make([]string, 0, len(m.blobs))
	for k := range m.blobs {
		keys = append(keys, k)
	}
	m.mu.Unlock()
	return children(dir, keys), nil
}

func (m *memStore) remove(dir string) error {
	prefix := dir + "/"
	m.mu.Lock()
	defer m.mu.Unlock()
	for k := range m.blobs {
		if strings.HasPrefix(k, prefix) {
			delete(m.blobs, k)
		}
	}
	return nil
}

// dirStore keeps each key as a file under a root directory, following the
// statemgr localfs conventions: the root is Extra["checkpoint.root"] or a
// StateRoot-scoped directory under the system temp dir, and every write
// goes to a temp file renamed into place, so readers never see a torn
// snapshot. Sessions share what shares the directory.
type dirStore struct{ root string }

func openDirStore(cfg *core.Config) (store, error) {
	root := cfg.Extra["checkpoint.root"]
	if root == "" {
		scope := filepath.Base(cfg.StateRoot)
		if scope == "" || scope == "." || scope == string(filepath.Separator) {
			scope = "heron"
		}
		root = filepath.Join(os.TempDir(), "heron-checkpoints", scope)
	}
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, fmt.Errorf("checkpoint: localfs root: %w", err)
	}
	return dirStore{root: root}, nil
}

func (d dirStore) path(key string) string { return filepath.Join(d.root, filepath.FromSlash(key)) }

func (d dirStore) put(key string, data []byte) error {
	path := d.path(key)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

func (d dirStore) get(key string) ([]byte, bool, error) {
	data, err := os.ReadFile(d.path(key))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, false, nil
	}
	return data, err == nil, err
}

func (d dirStore) list(dir string) ([]string, error) {
	entries, err := os.ReadDir(d.path(dir))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	names := make([]string, len(entries))
	for i, e := range entries {
		names[i] = e.Name()
	}
	return names, err
}

func (d dirStore) remove(dir string) error { return os.RemoveAll(d.path(dir)) }

// redisStore keeps each key as a blob in the simulated Redis server of its
// core.World and StateRoot, paying the RESP encode/parse cost per
// operation like the ETL workload does.
type redisStore struct {
	mu sync.Mutex // serializes the client (shared scratch buffer)
	cl *redissim.Client
}

func openRedisStore(cfg *core.Config) (store, error) {
	srv, err := core.Shared(cfg.World, "redis", cfg.StateRoot, func() *redissim.Server { return redissim.NewServer(8) })
	if err != nil {
		return nil, err
	}
	return &redisStore{cl: redissim.NewClient(srv)}, nil
}

func (r *redisStore) put(key string, data []byte) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.cl.SetBlob(key, data)
}

func (r *redisStore) get(key string) ([]byte, bool, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.cl.GetBlob(key)
}

func (r *redisStore) list(dir string) ([]string, error) {
	r.mu.Lock()
	keys, err := r.cl.BlobKeys(dir + "/")
	r.mu.Unlock()
	return children(dir, keys), err
}

func (r *redisStore) remove(dir string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.cl.DeleteBlobs(dir + "/")
}
