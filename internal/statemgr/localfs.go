package statemgr

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"heron/internal/core"
)

func init() {
	core.RegisterStateManager("localfs", func() core.StateManager { return &LocalFS{} })
}

// LocalFS is the single-server kernel: the same tree persisted under a
// root directory, the implementation the paper describes for "running
// locally in a single server". Every node is one versioned envelope file,
// root/<path>.json; its children live in the directory root/<path>/.
// Watches are poll-based.
type LocalFS struct {
	root string
	// owner is a process-unique session id, recorded in the envelopes of
	// the ephemeral and lease nodes this session owns.
	owner int64
	// lock serializes every read-modify-write among the in-process
	// sessions sharing root.
	lock *sync.Mutex

	mu sync.Mutex
	// owned lists the files this session wrote as ephemeral or lease
	// nodes; Close deletes those it still owns.
	owned    map[string]bool
	stop     chan struct{}
	stopOnce sync.Once
	watchWG  sync.WaitGroup
}

// watchPollInterval is how often LocalFS watches re-read their node.
const watchPollInterval = 25 * time.Millisecond

// lfsNextOwner hands out session ids; lfsLocks holds one mutex per root.
// Cross-process deployments would need file locking here; every
// deployment this repo models runs its containers in one process.
var (
	lfsNextOwner atomic.Int64
	lfsLocksMu   sync.Mutex
	lfsLocks     = map[string]*sync.Mutex{}
)

func lfsLock(root string) *sync.Mutex {
	lfsLocksMu.Lock()
	defer lfsLocksMu.Unlock()
	m, ok := lfsLocks[root]
	if !ok {
		m = &sync.Mutex{}
		lfsLocks[root] = m
	}
	return m
}

// envelope is one node on disk.
type envelope struct {
	Version int64  `json:"version"`
	Data    []byte `json:"data"`
	// Owner is the owning session's id for ephemeral and lease nodes (0 =
	// persistent); Deadline, set for leases only, is the expiry in unix
	// nanos.
	Owner    int64 `json:"owner,omitempty"`
	Deadline int64 `json:"deadline,omitempty"`
}

// Initialize implements core.StateManager. The directory comes from
// Extra["localfs.root"], defaulting to a directory under os.TempDir
// derived from StateRoot.
func (l *LocalFS) Initialize(cfg *core.Config) error {
	root := cfg.Extra["localfs.root"]
	if root == "" {
		root = filepath.Join(os.TempDir(), "heron-state", filepath.Base(cfg.StateRoot))
	}
	if err := os.MkdirAll(root, 0o755); err != nil {
		return fmt.Errorf("statemgr: localfs root: %w", err)
	}
	l.root = root
	l.owner = lfsNextOwner.Add(1)
	l.lock = lfsLock(root)
	l.owned = map[string]bool{}
	l.stop = make(chan struct{})
	return nil
}

// dir maps a tree path to its directory, failing on a bad path or a
// session that is not open. The node's own file is dir + ".json".
func (l *LocalFS) dir(path string) (string, error) {
	if l.root == "" {
		return "", errNotInitialized
	}
	select {
	case <-l.stop:
		return "", ErrClosedSession
	default:
	}
	path, err := cleanPath(path)
	if err != nil {
		return "", err
	}
	return filepath.Join(l.root, filepath.FromSlash(path)), nil
}

func (l *LocalFS) file(path string) (string, error) {
	d, err := l.dir(path)
	return d + ".json", err
}

// read returns the envelope in file; a lapsed lease reads as absent and
// is reaped. Caller holds l.lock.
func (l *LocalFS) read(file string) (envelope, bool, error) {
	var env envelope
	b, err := os.ReadFile(file)
	if errors.Is(err, fs.ErrNotExist) {
		return env, false, nil
	}
	if err != nil {
		return env, false, err
	}
	if err := json.Unmarshal(b, &env); err != nil {
		return env, false, fmt.Errorf("statemgr: corrupt envelope %s: %w", file, err)
	}
	if env.Deadline > 0 && time.Now().UnixNano() >= env.Deadline {
		_ = os.Remove(file) // reaping is best effort; the next read retries
		return envelope{}, false, nil
	}
	return env, true, nil
}

// update is the one write path: under the root lock it reads the node at
// path, and writes the envelope next returns unless next reports write =
// false. Creating a node first creates its missing parents as persistent
// nodes at version 1, as the memory kernel does.
func (l *LocalFS) update(path string, next func(cur envelope, exists bool) (envelope, bool, error)) (envelope, error) {
	file, err := l.file(path)
	if err != nil {
		return envelope{}, err
	}
	l.lock.Lock()
	defer l.lock.Unlock()
	cur, ok, err := l.read(file)
	if err != nil {
		return envelope{}, err
	}
	env, write, err := next(cur, ok)
	if err != nil || !write {
		return env, err
	}
	for i := 1; i < len(path) && !ok; i++ {
		if path[i] != '/' {
			continue
		}
		parent := filepath.Join(l.root, filepath.FromSlash(path[:i])) + ".json"
		_, err := os.Stat(parent)
		if errors.Is(err, fs.ErrNotExist) {
			err = writeEnvelope(parent, envelope{Version: 1})
		}
		if err != nil {
			return env, err
		}
	}
	if err := writeEnvelope(file, env); err != nil {
		return env, err
	}
	if env.Owner == l.owner {
		l.mu.Lock()
		if l.owned != nil {
			l.owned[file] = true
		}
		l.mu.Unlock()
	}
	return env, nil
}

// writeEnvelope atomically replaces file with env.
func writeEnvelope(file string, env envelope) error {
	b, err := json.Marshal(env)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(file), 0o755); err != nil {
		return err
	}
	tmp := file + ".tmp"
	if err := os.WriteFile(tmp, b, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, file)
}

// Set implements core.StateManager.
func (l *LocalFS) Set(path string, data []byte, ephemeral bool) error {
	var owner int64
	if ephemeral {
		owner = l.owner
	}
	_, err := l.update(path, func(cur envelope, _ bool) (envelope, bool, error) {
		return envelope{Version: cur.Version + 1, Data: data, Owner: owner}, true, nil
	})
	return err
}

// SetIf implements core.VersionedStore.
func (l *LocalFS) SetIf(path string, data []byte, expectVersion int64) (int64, error) {
	env, err := l.update(path, func(cur envelope, _ bool) (envelope, bool, error) {
		if cur.Version != expectVersion {
			return envelope{}, false, fmt.Errorf("%w: %s at version %d, expected %d", core.ErrVersionMismatch, path, cur.Version, expectVersion)
		}
		return envelope{Version: cur.Version + 1, Data: data}, true, nil
	})
	return env.Version, err
}

// GetVersioned implements core.VersionedStore.
func (l *LocalFS) GetVersioned(path string) ([]byte, int64, bool, error) {
	file, err := l.file(path)
	if err != nil {
		return nil, 0, false, err
	}
	l.lock.Lock()
	defer l.lock.Unlock()
	env, ok, err := l.read(file)
	return env.Data, env.Version, ok, err
}

// AcquireLease implements core.VersionedStore.
func (l *LocalFS) AcquireLease(path string, data []byte, ttl time.Duration) (bool, error) {
	if ttl <= 0 {
		return false, fmt.Errorf("statemgr: lease ttl %v <= 0", ttl)
	}
	env, err := l.update(path, func(cur envelope, ok bool) (envelope, bool, error) {
		if ok && cur.Owner != l.owner {
			return envelope{}, false, nil
		}
		if !ok || !bytes.Equal(cur.Data, data) {
			cur.Version++
			cur.Data = data
		}
		cur.Owner = l.owner
		cur.Deadline = time.Now().Add(ttl).UnixNano()
		return cur, true, nil
	})
	return err == nil && env.Owner == l.owner, err
}

// ReleaseLease implements core.VersionedStore.
func (l *LocalFS) ReleaseLease(path string) error {
	file, err := l.file(path)
	if err != nil {
		return err
	}
	l.lock.Lock()
	defer l.lock.Unlock()
	env, ok, err := l.read(file)
	if err != nil || !ok || env.Owner != l.owner {
		return err
	}
	return os.Remove(file)
}

// DeleteNode implements core.VersionedStore. The node's directory goes
// too once it holds no children.
func (l *LocalFS) DeleteNode(path string) error {
	dir, err := l.dir(path)
	if err != nil {
		return err
	}
	l.lock.Lock()
	defer l.lock.Unlock()
	if err := os.Remove(dir + ".json"); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return err
	}
	_ = os.Remove(dir) // fails, harmlessly, while children remain
	return nil
}

// NodeChildren implements core.VersionedStore.
func (l *LocalFS) NodeChildren(path string) ([]string, error) {
	dir, err := l.dir(path)
	if err != nil {
		return nil, err
	}
	entries, err := os.ReadDir(dir)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	seen := map[string]bool{}
	for _, e := range entries {
		name := e.Name()
		if !e.IsDir() {
			if !strings.HasSuffix(name, ".json") {
				continue // an in-flight .tmp write
			}
			name = strings.TrimSuffix(name, ".json")
		}
		seen[name] = true
	}
	out := make([]string, 0, len(seen))
	for n := range seen {
		out = append(out, n)
	}
	sort.Strings(out)
	return out, nil
}

// WatchNode implements core.VersionedStore with a poll loop. It reads the
// node before returning and fires on every (exists, version, data) change
// a later poll observes — including lease expiry, which a poll sees as a
// deletion. Transitions between two polls coalesce.
func (l *LocalFS) WatchNode(path string, cb func(data []byte, exists bool)) (func(), error) {
	file, err := l.file(path)
	if err != nil {
		return nil, err
	}
	poll := func() (envelope, bool, error) {
		l.lock.Lock()
		defer l.lock.Unlock()
		return l.read(file)
	}
	last, lastOK, err := poll()
	if err != nil {
		return nil, err
	}
	done := make(chan struct{})
	var once sync.Once
	cancel := func() { once.Do(func() { close(done) }) }
	l.watchWG.Add(1)
	go func() {
		defer l.watchWG.Done()
		t := time.NewTicker(watchPollInterval)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-l.stop:
				return
			case <-t.C:
			}
			env, ok, err := poll()
			if err != nil || (ok == lastOK && env.Version == last.Version && bytes.Equal(env.Data, last.Data)) {
				continue
			}
			last, lastOK = env, ok
			cb(env.Data, ok)
		}
	}()
	return cancel, nil
}

// shutdown stops the watches and hands back the owned-file set, once.
func (l *LocalFS) shutdown() map[string]bool {
	if l.root == "" {
		return nil
	}
	l.stopOnce.Do(func() { close(l.stop) })
	l.watchWG.Wait()
	l.mu.Lock()
	defer l.mu.Unlock()
	owned := l.owned
	l.owned = nil
	return owned
}

// Close implements core.StateManager: watches stop and the ephemeral and
// lease nodes this session still owns are deleted, emulating session
// expiry. A node another session took over since is theirs and stays.
func (l *LocalFS) Close() error {
	owned := l.shutdown()
	if len(owned) == 0 {
		return nil
	}
	l.lock.Lock()
	defer l.lock.Unlock()
	for file := range owned {
		if env, ok, err := l.read(file); err == nil && ok && env.Owner == l.owner {
			if err := os.Remove(file); err != nil && !errors.Is(err, fs.ErrNotExist) {
				return err
			}
		}
	}
	return nil
}

// Abandon implements core.StateManager: watches stop but ephemeral nodes
// and leases are left behind, to lapse by TTL or be taken over by a
// successor.
func (l *LocalFS) Abandon() { l.shutdown() }
