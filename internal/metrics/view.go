package metrics

import (
	"sort"
	"time"
)

// Engine metric taxonomy. Instance metrics are tagged with the component
// and task they belong to; Stream Manager metrics carry the reserved
// StmgrComponent and the container id as task. User metrics registered
// through api.TopologyContext.Metrics() are prefixed with UserPrefix.
const (
	// Per-instance (tags: component, task).
	MExecuteCount    = "instance.execute-count"    // tuples executed by a bolt
	MExecuteLatency  = "instance.execute-latency"  // ns spent inside Bolt.Execute (sampled 1-in-8)
	MEmitCount       = "instance.emit-count"       // tuples emitted
	MAckCount        = "instance.ack-count"        // tuples acked
	MFailCount       = "instance.fail-count"       // tuples failed
	MCompleteLatency = "instance.complete-latency" // ns from spout emit to tree completion
	MSpoutPending    = "spout.pending"             // un-acked tuples in flight (gauge)

	// Per-Stream-Manager (tags: StmgrComponent, container id as task).
	MStmgrTuplesIn       = "stmgr.tuples-in"
	MStmgrTuplesFwd      = "stmgr.tuples-forwarded"
	MStmgrAcksRouted     = "stmgr.acks-routed"
	MStmgrAcksDropped    = "stmgr.acks-dropped"             // remote acks with no peer outbox, and undecodable ack entries
	MStmgrCacheDrains    = "stmgr.cache-drain-count"        // drain-timer flushes
	MStmgrCacheDepth     = "stmgr.cache-depth"              // tuples buffered in the cache (gauge)
	MStmgrBytesSent      = "stmgr.bytes-sent"               // bytes written to instances and peers
	MStmgrBytesReceived  = "stmgr.bytes-received"           // bytes arriving at the router
	MStmgrBPTransitions  = "stmgr.backpressure-transitions" // assert/release edges
	MStmgrBPAssertedTime = "stmgr.backpressure-time-ns"     // total ns spent asserted
	MStmgrBPActive       = "stmgr.backpressure-active"      // 1 while this container asserts backpressure (gauge)
	// MStmgrRouteLatency is the Stream Manager's per-frame route latency
	// — dispatch-ring enqueue to delivery handoff, sampled 1-in-8 — so
	// /metrics and the TopologyView report p50/p99/p999 tails, not just
	// averages. Published at every shard count.
	MStmgrRouteLatency = "stmgr.route-latency-ns"

	// Checkpointing. Duration/size/restore are per-instance (tags:
	// component, task); epoch is per-Stream-Manager (tags: StmgrComponent,
	// container id as task) and tracks the last committed checkpoint id.
	MCheckpointDuration = "checkpoint.duration"   // ns to capture+persist one snapshot
	MCheckpointSize     = "checkpoint.size_bytes" // encoded snapshot bytes
	MCheckpointEpoch    = "checkpoint.epoch"      // latest globally-committed checkpoint id (gauge)
	MRestoreCount       = "restore.count"         // state restores performed after recovery

	// Health manager (tags: the affected component, task 0). Counters
	// accumulate per evaluation tick while the condition holds; the
	// histogram records wall time of each runtime rescale.
	MHealthSymptoms        = "healthmgr.symptoms"         // symptoms raised
	MHealthDiagnoses       = "healthmgr.diagnoses"        // diagnoses produced
	MHealthActions         = "healthmgr.resolver-actions" // resolver actions taken
	MHealthRescaleDuration = "healthmgr.rescale-duration" // ns per runtime rescale

	// Control-plane replicas (tags: component = replica node id).
	// Role is 1 for the leader and 0 for standbys; term is the replica's
	// last observed fencing term; failover latency is the leader's
	// loss-of-leader → promoted wall time.
	MReplicationRole            = "replication.role"
	MReplicationTerm            = "replication.term"
	MReplicationFailoverLatency = "replication.failover-latency-ns"
)

// UserPrefix namespaces metrics registered by user components so they can
// never collide with the engine taxonomy.
const UserPrefix = "user."

// TopologyView is the topology-wide typed metrics view: every container's
// latest Snapshot merged by metric identity. It is what the Topology
// Master serves to heron.Handle.Metrics() and the HTTP endpoints.
type TopologyView struct {
	// TakenAt is the newest merged snapshot's capture time.
	TakenAt    time.Time
	Counters   map[ID]int64
	Gauges     map[ID]int64
	Histograms map[ID]HistogramSnapshot
}

// NewView returns an empty view.
func NewView() *TopologyView {
	return &TopologyView{
		Counters:   map[ID]int64{},
		Gauges:     map[ID]int64{},
		Histograms: map[ID]HistogramSnapshot{},
	}
}

// Add merges one container snapshot into the view. Metric identities are
// globally unique across containers (tasks live in exactly one container),
// so later snapshots for the same identity replace earlier ones.
func (v *TopologyView) Add(s *Snapshot) {
	if s == nil {
		return
	}
	if at := time.Unix(0, s.TakenAtUnixNs); at.After(v.TakenAt) {
		v.TakenAt = at
	}
	for _, p := range s.Counters {
		v.Counters[p.ID] = p.Value
	}
	for _, p := range s.Gauges {
		v.Gauges[p.ID] = p.Value
	}
	for _, p := range s.Histograms {
		v.Histograms[p.ID] = p.HistogramSnapshot
	}
}

// MergeSnapshots builds a view from a set of container snapshots.
func MergeSnapshots(snaps ...*Snapshot) *TopologyView {
	v := NewView()
	for _, s := range snaps {
		v.Add(s)
	}
	return v
}

// match reports whether id belongs to metric name, restricted to
// component when component != "".
func match(id ID, name, component string) bool {
	return id.Name == name && (component == "" || id.Component == component)
}

// Counter sums the named counter across every task of component
// (component "" sums the whole topology).
func (v *TopologyView) Counter(name, component string) int64 {
	var total int64
	for id, val := range v.Counters {
		if match(id, name, component) {
			total += val
		}
	}
	return total
}

// Gauge sums the named gauge across every task of component (component ""
// sums the whole topology) — e.g. total spout.pending across spout tasks.
func (v *TopologyView) Gauge(name, component string) int64 {
	var total int64
	for id, val := range v.Gauges {
		if match(id, name, component) {
			total += val
		}
	}
	return total
}

// Histogram merges the named histogram across every task of component
// (component "" merges the whole topology): counts, sums and bucket
// counts add, so each task weighs in by its count and the quantiles are
// the topology's own.
func (v *TopologyView) Histogram(name, component string) HistogramSnapshot {
	var out HistogramSnapshot
	for id, hs := range v.Histograms {
		if match(id, name, component) {
			out.Merge(hs)
		}
	}
	return out
}

// TaskCounter returns the named counter of one specific task, and whether
// it exists.
func (v *TopologyView) TaskCounter(name, component string, task int32) (int64, bool) {
	val, ok := v.Counters[ID{Name: name, Tags: Tags{Component: component, Task: task}}]
	return val, ok
}

// Components returns the sorted distinct component tags present in the
// view (including StmgrComponent when stream-manager metrics are present).
func (v *TopologyView) Components() []string {
	seen := map[string]bool{}
	for id := range v.Counters {
		seen[id.Component] = true
	}
	for id := range v.Gauges {
		seen[id.Component] = true
	}
	for id := range v.Histograms {
		seen[id.Component] = true
	}
	delete(seen, "")
	out := make([]string, 0, len(seen))
	for c := range seen {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}

// HistogramSummary is one histogram's identity plus quantile summary in a
// ViewDump.
type HistogramSummary struct {
	ID
	Count int64 `json:"count"`
	Sum   int64 `json:"sum"`
	Min   int64 `json:"min"`
	Max   int64 `json:"max"`
	P50   int64 `json:"p50"`
	P90   int64 `json:"p90"`
	P99   int64 `json:"p99"`
	P999  int64 `json:"p999"`
}

// ViewDump is the JSON-friendly flattening of a TopologyView, served by
// the observability server's /topology endpoint. Points are sorted by
// identity.
type ViewDump struct {
	TakenAtUnixNs int64              `json:"takenAtUnixNs"`
	Counters      []CounterPoint     `json:"counters"`
	Gauges        []GaugePoint       `json:"gauges"`
	Histograms    []HistogramSummary `json:"histograms"`
}

// Dump flattens the view deterministically.
func (v *TopologyView) Dump() ViewDump {
	d := ViewDump{
		TakenAtUnixNs: v.TakenAt.UnixNano(),
		Counters:      make([]CounterPoint, 0, len(v.Counters)),
		Gauges:        make([]GaugePoint, 0, len(v.Gauges)),
		Histograms:    make([]HistogramSummary, 0, len(v.Histograms)),
	}
	for id, val := range v.Counters {
		d.Counters = append(d.Counters, CounterPoint{ID: id, Value: val})
	}
	for id, val := range v.Gauges {
		d.Gauges = append(d.Gauges, GaugePoint{ID: id, Value: val})
	}
	for id, hs := range v.Histograms {
		d.Histograms = append(d.Histograms, HistogramSummary{
			ID: id, Count: hs.Count, Sum: hs.Sum, Min: hs.Min, Max: hs.Max,
			P50: hs.Quantile(0.5), P90: hs.Quantile(0.9), P99: hs.Quantile(0.99),
			P999: hs.Quantile(0.999),
		})
	}
	sort.Slice(d.Counters, func(i, j int) bool { return d.Counters[i].ID.less(d.Counters[j].ID) })
	sort.Slice(d.Gauges, func(i, j int) bool { return d.Gauges[i].ID.less(d.Gauges[j].ID) })
	sort.Slice(d.Histograms, func(i, j int) bool { return d.Histograms[i].ID.less(d.Histograms[j].ID) })
	return d
}

// Names returns the sorted distinct metric names present in the view.
func (v *TopologyView) Names() []string {
	seen := map[string]bool{}
	for id := range v.Counters {
		seen[id.Name] = true
	}
	for id := range v.Gauges {
		seen[id.Name] = true
	}
	for id := range v.Histograms {
		seen[id.Name] = true
	}
	out := make([]string, 0, len(seen))
	for n := range seen {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
