// Package statemgr provides the State Manager module (the paper's Section
// IV-C) in two layers.
//
// The kernel is core.StateManager: a session on a tree of versioned nodes
// with ephemerals, compare-and-set, TTL leases and continuous watches — the
// primitives ZooKeeper gives Heron. Two backends implement it and register
// with the core registry:
//
//   - "memory" (zkstore.go): a ZooKeeper-like in-process tree shared by
//     every session opened on the same World and StateRoot (Config.World,
//     Config.StateRoot), the coordination
//     semantics Heron uses in cluster mode (the TMaster location is an
//     ephemeral node, so its death is observed immediately by every Stream
//     Manager).
//   - "localfs" (localfs.go): the same tree persisted as versioned
//     envelope files for single-server deployments, with poll-based
//     watches.
//
// Manager is the second layer: the typed topology records of Heron's
// znode layout (topology, packing plan, TMaster and scheduler locations),
// written once over whichever kernel the Config names, so a new backend
// implements the kernel and nothing else.
package statemgr

import (
	"encoding/json"
	"errors"
	"fmt"
	"strings"

	"heron/internal/core"
)

// ErrClosedSession reports use of a closed or abandoned session.
var ErrClosedSession = errors.New("statemgr: session closed")

var errNotInitialized = errors.New("statemgr: state manager not initialized")

func cleanPath(p string) (string, error) {
	if !strings.HasPrefix(p, "/") || strings.Contains(p, "//") || (len(p) > 1 && strings.HasSuffix(p, "/")) {
		return "", fmt.Errorf("statemgr: bad path %q", p)
	}
	return p, nil
}

// Manager is a State Manager session with the topology records on top of
// its kernel. The kernel's methods are promoted, so a Manager is also the
// core.VersionedStore the control plane elects and logs through.
type Manager struct {
	core.StateManager
}

// Open starts a session on the kernel registered as cfg.StateManagerName.
func Open(cfg *core.Config) (*Manager, error) {
	k, err := core.NewStateManager(cfg.StateManagerName)
	if err != nil {
		return nil, err
	}
	if err := k.Initialize(cfg); err != nil {
		return nil, err
	}
	return &Manager{k}, nil
}

// Record names under /topologies/<topology>/, mirroring Heron's znode
// layout. The replicated control plane keeps its leader lease, term
// counter and control log in the same directory.
const (
	topologyRecord  = "topology"
	packingRecord   = "packingplan"
	tmasterRecord   = "tmaster"
	schedulerRecord = "scheduler"
)

func topologyDir(topology string) string { return "/topologies/" + topology }

func recordPath(topology, record string) string { return topologyDir(topology) + "/" + record }

func (m *Manager) put(topology, record string, v any, ephemeral bool) error {
	b, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("statemgr: encode %s of %q: %w", record, topology, err)
	}
	return m.Set(recordPath(topology, record), b, ephemeral)
}

// get decodes one record; an absent record is core.ErrNotFound.
func get[T any](m *Manager, topology, record string) (*T, error) {
	b, _, ok, err := m.GetVersioned(recordPath(topology, record))
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, fmt.Errorf("statemgr: no %s record for %q: %w", record, topology, core.ErrNotFound)
	}
	v := new(T)
	if err := json.Unmarshal(b, v); err != nil {
		return nil, fmt.Errorf("statemgr: decode %s of %q: %w", record, topology, err)
	}
	return v, nil
}

// SetTMasterLocation advertises the TMaster as an ephemeral record owned
// by this session: it vanishes when the session closes, which is how
// Stream Managers learn of a TMaster death. A new leader advertising over
// a dead leader's lingering record takes it over, so the dead session's
// eventual expiry cannot delete the new location.
func (m *Manager) SetTMasterLocation(loc core.TMasterLocation) error {
	return m.put(loc.Topology, tmasterRecord, loc, true)
}

// GetTMasterLocation reads the topology's TMaster location.
func (m *Manager) GetTMasterLocation(topology string) (core.TMasterLocation, error) {
	loc, err := get[core.TMasterLocation](m, topology, tmasterRecord)
	if err != nil {
		return core.TMasterLocation{}, err
	}
	return *loc, nil
}

// WatchTMasterLocation invokes cb on every change to the topology's
// TMaster location, including deletion (signalled by a zero-valued
// location). The returned cancel function stops the watch.
func (m *Manager) WatchTMasterLocation(topology string, cb func(core.TMasterLocation)) (func(), error) {
	return m.WatchNode(recordPath(topology, tmasterRecord), func(data []byte, exists bool) {
		var loc core.TMasterLocation
		if exists && json.Unmarshal(data, &loc) != nil {
			return // a corrupt write; the next update fires again
		}
		cb(loc)
	})
}

// SetSchedulerLocation records which scheduler manages the topology.
func (m *Manager) SetSchedulerLocation(loc core.SchedulerLocation) error {
	return m.put(loc.Topology, schedulerRecord, loc, false)
}

// SetTopology stores the topology definition.
func (m *Manager) SetTopology(t *core.Topology) error {
	return m.put(t.Name, topologyRecord, t, false)
}

// GetTopology reads a topology definition.
func (m *Manager) GetTopology(name string) (*core.Topology, error) {
	return get[core.Topology](m, name, topologyRecord)
}

// DeleteTopology removes the topology's whole subtree: its records and
// the replicated control plane's lease, term counter and control log, so
// a topology resubmitted under the same name starts from nothing.
func (m *Manager) DeleteTopology(name string) error {
	return m.deleteTree(topologyDir(name))
}

func (m *Manager) deleteTree(path string) error {
	children, err := m.NodeChildren(path)
	if err != nil {
		return err
	}
	for _, c := range children {
		if err := m.deleteTree(path + "/" + c); err != nil {
			return err
		}
	}
	return m.DeleteNode(path)
}

// ListTopologies names every topology whose definition record exists.
func (m *Manager) ListTopologies() ([]string, error) {
	names, err := m.NodeChildren("/topologies")
	if err != nil {
		return nil, err
	}
	out := names[:0]
	for _, n := range names {
		_, _, ok, err := m.GetVersioned(recordPath(n, topologyRecord))
		if err != nil {
			return nil, err
		}
		if ok {
			out = append(out, n)
		}
	}
	return out, nil
}

// SetPackingPlan stores the topology's active packing plan.
func (m *Manager) SetPackingPlan(topology string, p *core.PackingPlan) error {
	return m.put(topology, packingRecord, p, false)
}

// GetPackingPlan reads the topology's active packing plan.
func (m *Manager) GetPackingPlan(topology string) (*core.PackingPlan, error) {
	return get[core.PackingPlan](m, topology, packingRecord)
}
