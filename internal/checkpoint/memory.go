package checkpoint

import (
	"fmt"
	"sync"

	"heron/internal/core"
)

func init() {
	Register("memory", func() Backend { return &memoryBackend{} })
}

type memStore struct {
	mu sync.Mutex
	// snaps: topology → checkpoint id → task → snapshot.
	snaps map[string]map[int64]map[int32][]byte
	// committed: topology → latest committed id.
	committed map[string]int64
}

func newMemStore() *memStore {
	return &memStore{
		snaps:     map[string]map[int64]map[int32][]byte{},
		committed: map[string]int64{},
	}
}

// ResetSharedMemory does nothing: a snapshot store belongs to its
// core.World and goes with it.
//
// Deprecated: give each deployment its own core.NewConfig instead.
func ResetSharedMemory(root string) {}

// memoryBackend is a session on the snapshot store of its core.World and
// StateRoot: every container session on the same World and StateRoot sees
// the same snapshots, the way separate processes would share one
// checkpoint service.
type memoryBackend struct {
	store *memStore
}

func (m *memoryBackend) Initialize(cfg *core.Config) error {
	s, err := core.Shared(cfg.World, "memory snapshots", cfg.StateRoot, newMemStore)
	m.store = s
	return err
}

func (m *memoryBackend) checkInit() error {
	if m.store == nil {
		return fmt.Errorf("checkpoint: memory backend not initialized")
	}
	return nil
}

func (m *memoryBackend) Save(topology string, checkpointID int64, task int32, data []byte) error {
	if err := m.checkInit(); err != nil {
		return err
	}
	m.store.mu.Lock()
	defer m.store.mu.Unlock()
	byID := m.store.snaps[topology]
	if byID == nil {
		byID = map[int64]map[int32][]byte{}
		m.store.snaps[topology] = byID
	}
	byTask := byID[checkpointID]
	if byTask == nil {
		byTask = map[int32][]byte{}
		byID[checkpointID] = byTask
	}
	byTask[task] = append([]byte(nil), data...)
	return nil
}

func (m *memoryBackend) Load(topology string, checkpointID int64, task int32) ([]byte, error) {
	if err := m.checkInit(); err != nil {
		return nil, err
	}
	m.store.mu.Lock()
	defer m.store.mu.Unlock()
	data, ok := m.store.snaps[topology][checkpointID][task]
	if !ok {
		return nil, core.ErrNotFound
	}
	return append([]byte(nil), data...), nil
}

func (m *memoryBackend) Commit(topology string, checkpointID int64) error {
	if err := m.checkInit(); err != nil {
		return err
	}
	m.store.mu.Lock()
	defer m.store.mu.Unlock()
	if checkpointID > m.store.committed[topology] {
		m.store.committed[topology] = checkpointID
	}
	// Retire snapshots older than the newest commit; only the latest
	// committed checkpoint is ever restored.
	for id := range m.store.snaps[topology] {
		if id < m.store.committed[topology] {
			delete(m.store.snaps[topology], id)
		}
	}
	return nil
}

func (m *memoryBackend) LatestCommitted(topology string) (int64, error) {
	if err := m.checkInit(); err != nil {
		return 0, err
	}
	m.store.mu.Lock()
	defer m.store.mu.Unlock()
	return m.store.committed[topology], nil
}

func (m *memoryBackend) Dispose(topology string) error {
	if err := m.checkInit(); err != nil {
		return err
	}
	m.store.mu.Lock()
	defer m.store.mu.Unlock()
	delete(m.store.snaps, topology)
	delete(m.store.committed, topology)
	return nil
}

func (m *memoryBackend) Close() error {
	m.store = nil
	return nil
}
