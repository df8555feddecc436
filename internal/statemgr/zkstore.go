package statemgr

import (
	"bytes"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"heron/internal/core"
)

func init() {
	core.RegisterStateManager("memory", func() core.StateManager { return &Session{} })
}

func newStore() *Store {
	return &Store{
		nodes:       map[string]*znode{},
		watches:     map[string]map[int64]*watch{},
		leases:      map[string]time.Time{},
		janitorKick: make(chan struct{}, 1),
	}
}

// ResetSharedStore does nothing: a memory tree belongs to its core.World
// and goes with it.
//
// Deprecated: give each deployment its own core.NewConfig instead.
func ResetSharedStore(root string) {}

// Store is a ZooKeeper-like tree of nodes, one per core.World and
// StateRoot, shared by every session opened on both as Heron's processes
// share one ensemble. All access happens through Sessions; ephemeral nodes
// die with the session that owns them.
type Store struct {
	mu       sync.Mutex
	nodes    map[string]*znode
	watches  map[string]map[int64]*watch
	nextSess int64
	nextWid  int64
	// open counts the sessions neither closed nor abandoned.
	open int
	// fired queues the watch callbacks owed by the mutations made under
	// mu; unlock runs them once mu is released.
	fired []event
	// leases maps lease-node path → expiry deadline; the janitor
	// goroutine reaps lapsed entries and fires their watches.
	leases      map[string]time.Time
	janitorOn   bool
	janitorKick chan struct{}
}

type znode struct {
	data []byte
	// owner is the session id for ephemeral and lease nodes, 0 for
	// persistent ones.
	owner int64
	// version counts writes to this node instance, starting at 1 on
	// creation; deletion and re-creation restart it (ZooKeeper semantics).
	version int64
}

type watch struct {
	id   int64
	path string
	cb   func(data []byte, exists bool)
}

type event struct {
	w      *watch
	data   []byte
	exists bool
}

// Session is the "memory" kernel: one client's session on a shared Store.
// Closing it removes the nodes it owns — the mechanism behind TMaster
// failure detection.
type Session struct {
	mu     sync.Mutex
	store  *Store
	id     int64
	closed bool
	// cancels stops this session's watches at Close.
	cancels []func()
}

// Initialize implements core.StateManager: the session joins cfg.World's
// tree for cfg.StateRoot.
func (se *Session) Initialize(cfg *core.Config) error {
	st, err := core.Shared(cfg.World, "memory tree", cfg.StateRoot, newStore)
	if err != nil {
		return err
	}
	st.mu.Lock()
	st.nextSess++
	st.open++
	id := st.nextSess
	st.mu.Unlock()
	se.mu.Lock()
	se.store, se.id = st, id
	se.mu.Unlock()
	return nil
}

// begin validates a call: the session must be open and the path well
// formed. It returns the store the session is bound to.
func (se *Session) begin(path string) (*Store, error) {
	se.mu.Lock()
	st, closed := se.store, se.closed
	se.mu.Unlock()
	switch {
	case closed:
		return nil, ErrClosedSession
	case st == nil:
		return nil, errNotInitialized
	}
	if _, err := cleanPath(path); err != nil {
		return nil, err
	}
	return st, nil
}

// lock takes the store lock and reaps lapsed leases.
func (st *Store) lock() {
	st.mu.Lock()
	st.reapLocked(time.Now())
}

// unlock releases the store lock, then fires the watches queued while it
// was held, so callbacks may call back into the store.
func (st *Store) unlock() {
	fired := st.fired
	st.fired = nil
	st.mu.Unlock()
	for _, e := range fired {
		e.w.cb(e.data, e.exists)
	}
}

// putLocked is the one write path: it stores data as the next version of
// the node at path (creating it and its persistent parents if needed),
// owned by owner (0 = persistent), and clears any lease deadline.
func (st *Store) putLocked(path string, data []byte, owner int64) int64 {
	n, ok := st.nodes[path]
	if !ok {
		st.mkParentsLocked(path)
		n = &znode{}
		st.nodes[path] = n
	}
	n.data = append(n.data[:0], data...)
	n.version++
	n.owner = owner
	delete(st.leases, path)
	st.notifyLocked(path, n.data, true)
	return n.version
}

func (st *Store) removeLocked(path string) {
	if _, ok := st.nodes[path]; !ok {
		return
	}
	delete(st.nodes, path)
	delete(st.leases, path)
	st.notifyLocked(path, nil, false)
}

// notifyLocked queues path's watches, oldest first, with a private copy
// of the node's data.
func (st *Store) notifyLocked(path string, data []byte, exists bool) {
	m := st.watches[path]
	if len(m) == 0 {
		return
	}
	if exists {
		data = append([]byte(nil), data...)
	}
	ws := make([]*watch, 0, len(m))
	for _, w := range m {
		ws = append(ws, w)
	}
	sort.Slice(ws, func(i, j int) bool { return ws[i].id < ws[j].id })
	for _, w := range ws {
		st.fired = append(st.fired, event{w, data, exists})
	}
}

// mkParentsLocked auto-creates persistent parents at version 1 (a
// convenience over raw ZooKeeper).
func (st *Store) mkParentsLocked(path string) {
	for i := 1; i < len(path); i++ {
		if path[i] == '/' {
			parent := path[:i]
			if _, ok := st.nodes[parent]; !ok {
				st.nodes[parent] = &znode{version: 1}
				st.notifyLocked(parent, nil, true)
			}
		}
	}
}

// Set implements core.StateManager.
func (se *Session) Set(path string, data []byte, ephemeral bool) error {
	st, err := se.begin(path)
	if err != nil {
		return err
	}
	var owner int64
	if ephemeral {
		owner = se.id
	}
	st.lock()
	st.putLocked(path, data, owner)
	st.unlock()
	return nil
}

// SetIf implements core.VersionedStore.
func (se *Session) SetIf(path string, data []byte, expectVersion int64) (int64, error) {
	st, err := se.begin(path)
	if err != nil {
		return 0, err
	}
	st.lock()
	defer st.unlock()
	var version int64
	if n, ok := st.nodes[path]; ok {
		version = n.version
	}
	if version != expectVersion {
		return 0, fmt.Errorf("%w: %s at version %d, expected %d", core.ErrVersionMismatch, path, version, expectVersion)
	}
	return st.putLocked(path, data, 0), nil
}

// GetVersioned implements core.VersionedStore.
func (se *Session) GetVersioned(path string) ([]byte, int64, bool, error) {
	st, err := se.begin(path)
	if err != nil {
		return nil, 0, false, err
	}
	st.lock()
	defer st.unlock()
	n, ok := st.nodes[path]
	if !ok {
		return nil, 0, false, nil
	}
	return append([]byte(nil), n.data...), n.version, true, nil
}

// AcquireLease implements core.VersionedStore.
func (se *Session) AcquireLease(path string, data []byte, ttl time.Duration) (bool, error) {
	st, err := se.begin(path)
	if err != nil {
		return false, err
	}
	if ttl <= 0 {
		return false, fmt.Errorf("statemgr: lease ttl %v <= 0", ttl)
	}
	st.lock()
	defer st.unlock()
	n, ok := st.nodes[path]
	if ok && n.owner != se.id {
		return false, nil
	}
	if !ok || !bytes.Equal(n.data, data) {
		st.putLocked(path, data, se.id)
	}
	st.leases[path] = time.Now().Add(ttl)
	st.kickJanitorLocked()
	return true, nil
}

// ReleaseLease implements core.VersionedStore.
func (se *Session) ReleaseLease(path string) error {
	st, err := se.begin(path)
	if err != nil {
		return err
	}
	st.lock()
	defer st.unlock()
	if n, ok := st.nodes[path]; ok && n.owner == se.id {
		st.removeLocked(path)
	}
	return nil
}

// DeleteNode implements core.VersionedStore.
func (se *Session) DeleteNode(path string) error {
	st, err := se.begin(path)
	if err != nil {
		return err
	}
	st.lock()
	st.removeLocked(path)
	st.unlock()
	return nil
}

// NodeChildren implements core.VersionedStore.
func (se *Session) NodeChildren(path string) ([]string, error) {
	st, err := se.begin(path)
	if err != nil {
		return nil, err
	}
	prefix := path
	if prefix != "/" {
		prefix += "/"
	}
	st.lock()
	seen := map[string]bool{}
	for p := range st.nodes {
		if strings.HasPrefix(p, prefix) && p != path {
			rest := p[len(prefix):]
			if i := strings.IndexByte(rest, '/'); i >= 0 {
				rest = rest[:i]
			}
			seen[rest] = true
		}
	}
	st.unlock()
	out := make([]string, 0, len(seen))
	for c := range seen {
		out = append(out, c)
	}
	sort.Strings(out)
	return out, nil
}

// WatchNode implements core.VersionedStore. Callbacks run synchronously
// after every write or deletion of the node, including deletions caused
// by session expiry and lease lapse. Unlike raw ZooKeeper's one-shot
// watches, these persist until cancelled — the re-arm loop every
// ZooKeeper client writes is folded in here.
func (se *Session) WatchNode(path string, cb func(data []byte, exists bool)) (func(), error) {
	st, err := se.begin(path)
	if err != nil {
		return nil, err
	}
	st.mu.Lock()
	st.nextWid++
	w := &watch{id: st.nextWid, path: path, cb: cb}
	m := st.watches[path]
	if m == nil {
		m = map[int64]*watch{}
		st.watches[path] = m
	}
	m[w.id] = w
	st.mu.Unlock()

	cancel := func() {
		st.mu.Lock()
		if m := st.watches[path]; m != nil {
			delete(m, w.id)
			if len(m) == 0 {
				delete(st.watches, path)
			}
		}
		st.mu.Unlock()
	}
	se.mu.Lock()
	se.cancels = append(se.cancels, cancel)
	se.mu.Unlock()
	return cancel, nil
}

// end marks the session closed and cancels its watches; it returns the
// store, or nil when the session was never opened or already ended.
func (se *Session) end() *Store {
	se.mu.Lock()
	if se.closed || se.store == nil {
		se.mu.Unlock()
		return nil
	}
	se.closed = true
	cancels := se.cancels
	se.cancels = nil
	se.mu.Unlock()
	for _, c := range cancels {
		c()
	}
	se.store.mu.Lock()
	se.store.open--
	se.store.mu.Unlock()
	return se.store
}

// OpenSessions counts the sessions on st that were neither closed nor
// abandoned; core.World.Close reports a tree where it is not zero.
func (st *Store) OpenSessions() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.open
}

// Close implements core.StateManager: the session expires, deleting the
// nodes it owns (firing other sessions' watches).
func (se *Session) Close() error {
	st := se.end()
	if st == nil {
		return nil
	}
	st.lock()
	for p, n := range st.nodes {
		if n.owner == se.id {
			st.removeLocked(p)
		}
	}
	st.unlock()
	return nil
}

// Abandon implements core.StateManager: the store-side view of a client
// that hard-crashed before its ZooKeeper session timed out. Plain
// ephemerals linger until another session overwrites or deletes them;
// lease nodes still lapse at their TTL, which is exactly the window leader
// election is designed around.
func (se *Session) Abandon() { se.end() }

// reapLocked removes lapsed lease nodes, queueing their watches.
func (st *Store) reapLocked(now time.Time) {
	for p, deadline := range st.leases {
		if !now.Before(deadline) {
			st.removeLocked(p)
		}
	}
}

// kickJanitorLocked (re)starts or nudges the lease janitor.
func (st *Store) kickJanitorLocked() {
	if !st.janitorOn {
		st.janitorOn = true
		go st.janitorLoop()
		return
	}
	select {
	case st.janitorKick <- struct{}{}:
	default:
	}
}

// janitorLoop wakes at the earliest lease deadline, reaps lapsed nodes,
// fires their watches, and exits once no leases remain — so idle stores
// carry no background goroutine.
func (st *Store) janitorLoop() {
	for {
		st.lock()
		if len(st.leases) == 0 {
			st.janitorOn = false
			st.unlock()
			return
		}
		var next time.Time
		for _, d := range st.leases {
			if next.IsZero() || d.Before(next) {
				next = d
			}
		}
		st.unlock()
		wait := time.Until(next) + time.Millisecond
		if wait < time.Millisecond {
			wait = time.Millisecond
		}
		timer := time.NewTimer(wait)
		select {
		case <-timer.C:
		case <-st.janitorKick:
			timer.Stop()
		}
	}
}
