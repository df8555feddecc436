// Package metrics implements the Metrics Manager module: per-container
// collection of counters, gauges and latency histograms from the
// processes in the container (the paper's Section II), periodically
// exported to the Topology Master as a typed, tagged Snapshot.
//
// Every metric has an identity: a taxonomy name ("instance.execute-count",
// "stmgr.cache-drain-count", ...) plus Tags locating it in the topology
// (component, task, stream). The Topology Master merges the per-container
// snapshots into a TopologyView (view.go), which is what the public
// heron.Handle.Metrics() API and the HTTP /metrics endpoint expose.
package metrics

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Tags locate a metric in the topology. The zero value means
// "container-scoped, no particular component".
type Tags struct {
	// Component is the logical component name; stream managers use the
	// reserved StmgrComponent.
	Component string `json:"component,omitempty"`
	// Task is the instance's task id, or the container id for
	// container-scoped metrics. Task ids start at 0, so it is never
	// omitted from JSON.
	Task int32 `json:"task"`
	// Stream is set on per-stream metrics only.
	Stream string `json:"stream,omitempty"`
}

// StmgrComponent is the reserved component tag of Stream Manager metrics.
const StmgrComponent = "__stmgr__"

// ID is a metric's full identity: taxonomy name plus tags. It is
// comparable and used as the registry key.
type ID struct {
	Name string `json:"name"`
	Tags
}

// Counter is a monotonically increasing metric.
type Counter struct {
	v atomic.Int64
}

// Inc adds delta.
func (c *Counter) Inc(delta int64) { c.v.Add(delta) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a set-to-latest metric.
type Gauge struct {
	v atomic.Int64
}

// Set records the current value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Value returns the last recorded value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Registry is one container's metric namespace. Components create metrics
// lazily by (name, tags); the Metrics Manager snapshots the whole
// registry.
type Registry struct {
	mu       sync.Mutex
	counters map[ID]*Counter
	gauges   map[ID]*Gauge
	histos   map[ID]*Histogram
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[ID]*Counter{},
		gauges:   map[ID]*Gauge{},
		histos:   map[ID]*Histogram{},
	}
}

// Counter returns (creating if needed) the named, tagged counter.
func (r *Registry) Counter(name string, tags Tags) *Counter {
	id := ID{Name: name, Tags: tags}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[id]
	if !ok {
		c = &Counter{}
		r.counters[id] = c
	}
	return c
}

// Gauge returns (creating if needed) the named, tagged gauge.
func (r *Registry) Gauge(name string, tags Tags) *Gauge {
	id := ID{Name: name, Tags: tags}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[id]
	if !ok {
		g = &Gauge{}
		r.gauges[id] = g
	}
	return g
}

// Histogram returns (creating if needed) the named, tagged histogram.
func (r *Registry) Histogram(name string, tags Tags) *Histogram {
	id := ID{Name: name, Tags: tags}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histos[id]
	if !ok {
		h = NewHistogram()
		r.histos[id] = h
	}
	return h
}

// HDR forwards to Histogram. Its only caller is bench/drives.go, which
// is frozen outside benchmark changes; the ROADMAP item 2 benchmark PR
// removes it.
func (r *Registry) HDR(name string, tags Tags) *Histogram { return r.Histogram(name, tags) }

// CounterPoint is one counter's identity and value in a snapshot.
type CounterPoint struct {
	ID
	Value int64 `json:"value"`
}

// GaugePoint is one gauge's identity and value in a snapshot.
type GaugePoint struct {
	ID
	Value int64 `json:"value"`
}

// HistogramPoint is one histogram's identity and summary in a snapshot.
type HistogramPoint struct {
	ID
	HistogramSnapshot
}

// Snapshot is one registry export: the typed wire form pushed over
// ctrl.OpMetrics (replacing the former opaque JSON blob). Points are
// sorted by identity so output is deterministic.
type Snapshot struct {
	Container     int32            `json:"container"`
	TakenAtUnixNs int64            `json:"takenAtUnixNs"`
	Counters      []CounterPoint   `json:"counters,omitempty"`
	Gauges        []GaugePoint     `json:"gauges,omitempty"`
	Histograms    []HistogramPoint `json:"histograms,omitempty"`
}

// less orders metric identities: by name, component, task, stream.
func (a ID) less(b ID) bool {
	if a.Name != b.Name {
		return a.Name < b.Name
	}
	if a.Component != b.Component {
		return a.Component < b.Component
	}
	if a.Task != b.Task {
		return a.Task < b.Task
	}
	return a.Stream < b.Stream
}

// Snapshot captures every metric's current value.
func (r *Registry) Snapshot(container int32) Snapshot {
	r.mu.Lock()
	s := Snapshot{
		Container:     container,
		TakenAtUnixNs: time.Now().UnixNano(),
		Counters:      make([]CounterPoint, 0, len(r.counters)),
		Gauges:        make([]GaugePoint, 0, len(r.gauges)),
		Histograms:    make([]HistogramPoint, 0, len(r.histos)),
	}
	for id, c := range r.counters {
		s.Counters = append(s.Counters, CounterPoint{ID: id, Value: c.Value()})
	}
	for id, g := range r.gauges {
		s.Gauges = append(s.Gauges, GaugePoint{ID: id, Value: g.Value()})
	}
	for id, h := range r.histos {
		s.Histograms = append(s.Histograms, HistogramPoint{ID: id, HistogramSnapshot: h.Snapshot()})
	}
	r.mu.Unlock()
	sort.Slice(s.Counters, func(i, j int) bool { return s.Counters[i].ID.less(s.Counters[j].ID) })
	sort.Slice(s.Gauges, func(i, j int) bool { return s.Gauges[i].ID.less(s.Gauges[j].ID) })
	sort.Slice(s.Histograms, func(i, j int) bool { return s.Histograms[i].ID.less(s.Histograms[j].ID) })
	return s
}

// Manager is the per-container Metrics Manager process: it periodically
// snapshots the container's registry and pushes the snapshot to a sink
// (the Topology Master's metrics endpoint).
type Manager struct {
	container int32
	registry  *Registry
	interval  time.Duration
	sink      func(Snapshot)
	stop      chan struct{}
	stopOnce  sync.Once
	wg        sync.WaitGroup
}

// NewManager creates a Metrics Manager exporting registry to sink every
// interval (default 1s if interval <= 0).
func NewManager(container int32, registry *Registry, interval time.Duration, sink func(Snapshot)) *Manager {
	if interval <= 0 {
		interval = time.Second
	}
	return &Manager{container: container, registry: registry, interval: interval, sink: sink, stop: make(chan struct{})}
}

// Start begins the export loop.
func (m *Manager) Start() {
	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		t := time.NewTicker(m.interval)
		defer t.Stop()
		for {
			select {
			case <-m.stop:
				return
			case <-t.C:
				m.sink(m.registry.Snapshot(m.container))
			}
		}
	}()
}

// Stop halts the export loop after a final export.
func (m *Manager) Stop() {
	m.stopOnce.Do(func() { close(m.stop) })
	m.wg.Wait()
	m.sink(m.registry.Snapshot(m.container))
}
