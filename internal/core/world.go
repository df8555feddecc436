package core

import (
	"errors"
	"fmt"
	"sync"
)

// World is one deployment's shared services, the ones Heron's processes
// reach outside themselves: the ZooKeeper ensemble behind the memory State
// Manager, the checkpoint service behind the memory snapshot store and the
// Redis behind the redis one. Sessions opened on the same World and
// StateRoot share one service; inside a World, StateRoot names the
// namespace as a ZooKeeper chroot would. Another World is another
// deployment, whatever its StateRoot.
type World struct {
	mu       sync.Mutex
	services map[[2]string]any // {kind, root} → service
}

// NewWorld returns a deployment with no services yet.
func NewWorld() *World { return &World{services: map[[2]string]any{}} }

// Shared returns w's kind service for the namespace root ("" is "/heron"),
// building it on first use.
func Shared[T any](w *World, kind, root string, build func() T) (T, error) {
	var zero T
	if w == nil {
		return zero, errors.New("core: config has no World (build it with NewConfig)")
	}
	if root == "" {
		root = "/heron"
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	s, ok := w.services[[2]string{kind, root}]
	if !ok {
		s = build()
		w.services[[2]string{kind, root}] = s
	}
	return s.(T), nil
}

// Close names every service that still has an open session, the mark of a
// component that opened one and never closed it. The World stays usable.
func (w *World) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	var errs []error
	for k, s := range w.services {
		if o, ok := s.(interface{ OpenSessions() int }); ok && o.OpenSessions() > 0 {
			errs = append(errs, fmt.Errorf("core: %s %q has %d open sessions", k[0], k[1], o.OpenSessions()))
		}
	}
	return errors.Join(errs...)
}
