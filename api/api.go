// Package api is Heron's public, user-facing API: the contracts a
// topology author implements (Spout, Bolt) and the TopologyBuilder used
// to assemble them into a directed graph of streams.
//
// A minimal word-count topology:
//
//	b := api.NewTopologyBuilder("wordcount")
//	b.SetSpout("word", newWordSpout, 4).OutputFields("word")
//	b.SetBolt("count", newCountBolt, 4).FieldsGrouping("word", "", "word")
//	spec, err := b.Build()
//
// The resulting Spec is submitted through the root heron package; module
// selection (scheduler, packing algorithm, state manager, transport) is
// entirely a matter of configuration.
package api

// Values is one tuple's payload. Supported element types are string,
// int64, float64, bool and []byte.
type Values = []any

// Tuple is a received data tuple as seen by a bolt. Implementations are
// provided by the engine; user code only reads them and passes them back
// as anchors or to Ack/Fail. A tuple, and every value read from it, may
// be kept after Execute returns, and read from any goroutine.
//
// The typed getters read the one field they are asked for and allocate
// nothing, except Bytes, which goes through Values.
type Tuple interface {
	// Values returns the tuple's fields. The engine materialises them on
	// the first call (or the first Bytes); later calls return the same
	// slice.
	Values() Values
	// SourceComponent is the name of the component that emitted the tuple.
	SourceComponent() string
	// Stream is the stream the tuple arrived on.
	Stream() string
	// String returns field i as a string (panics on type mismatch, like
	// the fail-fast accessors of Heron's Java API).
	String(i int) string
	// Int returns field i as an int64.
	Int(i int) int64
	// Float returns field i as a float64.
	Float(i int) float64
	// Bool returns field i as a bool.
	Bool(i int) bool
	// Bytes returns field i as a byte slice.
	Bytes(i int) []byte
}

// TopologyContext gives a component its place in the physical plan.
type TopologyContext interface {
	// TopologyName is the submitted topology's name.
	TopologyName() string
	// ComponentName is this instance's component.
	ComponentName() string
	// ComponentIndex is this instance's index within the component,
	// 0 ≤ index < parallelism.
	ComponentIndex() int32
	// TaskID is this instance's globally unique task id.
	TaskID() int32
	// ComponentParallelism returns the current parallelism of any
	// component in the topology.
	ComponentParallelism(component string) int
	// Metrics is this instance's metric registration surface: metrics
	// created here are automatically tagged with the component and task,
	// collected by the container's Metrics Manager, and aggregated into
	// the Topology Master's topology-wide view alongside the engine's own
	// metrics (heron.Handle.Metrics(), the HTTP /metrics endpoint).
	Metrics() ComponentMetrics
}

// ComponentMetrics registers custom metrics for one component instance.
// Names are free-form ("words-counted"); the engine namespaces them under
// a user prefix so they can never collide with engine metrics. Repeated
// calls with the same name return the same metric.
type ComponentMetrics interface {
	// Counter returns a monotonically increasing counter.
	Counter(name string) MetricCounter
	// Gauge returns a set-to-latest gauge.
	Gauge(name string) MetricGauge
	// Histogram returns a histogram (for latencies, sizes, ...) whose
	// quantiles are exact to within about 3% and merge exactly across
	// tasks.
	Histogram(name string) MetricHistogram
}

// MetricCounter is a monotonically increasing user metric.
type MetricCounter interface {
	Inc(delta int64)
}

// MetricGauge is a set-to-latest user metric.
type MetricGauge interface {
	Set(v int64)
}

// MetricHistogram records a stream of values with quantile summaries.
type MetricHistogram interface {
	Observe(v int64)
}

// SpoutCollector is how a spout emits tuples.
type SpoutCollector interface {
	// Emit sends values on a declared stream. A non-nil msgID makes the
	// tuple reliable: the spout's Ack or Fail method will eventually be
	// called with that id once the tuple tree completes or times out.
	// Stream "" means the default stream.
	Emit(stream string, msgID any, values ...any)
}

// Spout produces the topology's input streams (for example a stream of
// tweets, or the random-word source of the paper's WordCount benchmark).
type Spout interface {
	// Open prepares the spout. It is called once before any NextTuple.
	Open(ctx TopologyContext, out SpoutCollector) error
	// NextTuple emits at most a handful of tuples and returns. Returning
	// false tells the executor no input was available, letting it back
	// off briefly. NextTuple is never called concurrently with itself or
	// with Ack/Fail.
	NextTuple() bool
	// Ack reports that the tuple tree rooted at msgID completed.
	Ack(msgID any)
	// Fail reports that the tuple tree rooted at msgID failed or timed
	// out; a reliable spout typically re-emits.
	Fail(msgID any)
	// Close releases resources; called at topology teardown.
	Close() error
}

// BoltCollector is how a bolt emits and acknowledges tuples.
type BoltCollector interface {
	// Emit sends values on a declared stream, anchored to the given input
	// tuples: if any anchor's tree later fails, the spout is informed.
	// Stream "" means the default stream.
	Emit(stream string, anchors []Tuple, values ...any)
	// Ack marks an input tuple as fully processed.
	Ack(t Tuple)
	// Fail marks an input tuple as failed, failing its whole tree
	// immediately.
	Fail(t Tuple)
}

// Bolt consumes streams and optionally emits derived streams.
type Bolt interface {
	// Prepare initializes the bolt. It is called once before any Execute.
	Prepare(ctx TopologyContext, out BoltCollector) error
	// Execute processes one input tuple. A bolt processing reliably must
	// Ack or Fail every input it receives.
	Execute(t Tuple) error
	// Cleanup releases resources; called at topology teardown.
	Cleanup() error
}

// State is the key-value view a stateful component saves to and restores
// from. Keys are strings; values are opaque byte slices owned by the
// component (the engine copies on capture). The view is only valid for
// the duration of the SaveState/RestoreState call that received it.
type State interface {
	// Set stores a value under key, replacing any previous value.
	Set(key string, value []byte)
	// Get returns the value under key, or nil if absent.
	Get(key string) []byte
	// Delete removes key.
	Delete(key string)
	// Range calls fn for every key/value pair until fn returns false.
	Range(fn func(key string, value []byte) bool)
	// Len returns the number of keys.
	Len() int
}

// StatefulComponent is an optional extension for spouts and bolts that
// participate in distributed checkpointing. When the topology runs with a
// checkpoint interval, the engine periodically injects epoch markers at
// spouts; as each instance's barrier completes it calls SaveState, and the
// snapshot is persisted through the configured state backend. After a
// container failure every instance is rebuilt and RestoreState is called
// with the latest globally-committed snapshot before any new input is
// processed, giving stateful topologies effectively-once semantics.
type StatefulComponent interface {
	// SaveState writes the component's state into s. Called on the
	// executor goroutine, never concurrently with NextTuple/Execute.
	SaveState(s State) error
	// RestoreState rebuilds the component's state from s. Called once,
	// after Open/Prepare and before any NextTuple/Execute.
	RestoreState(s State) error
}

// TransactionalSource is an optional extension for spouts that read from
// an external system with durable consumer offsets (e.g. a Kafka consumer
// group). It extends checkpointing to the input edge: the engine calls
// PrepareOffsets at the same instant the spout's snapshot is taken (the
// read positions captured in SaveState and the staged offsets describe
// the same cut), and EpochCommitted once the checkpoint coordinator has
// globally committed that epoch — the point at which it is safe to
// advance the external offsets, because a later recovery can only rewind
// to this epoch or newer. After a failure the engine restores the
// snapshot (RestoreState seeks the external consumer back to the
// checkpointed positions), so replayed input re-reads exactly the tuples
// whose effects were discarded.
type TransactionalSource interface {
	StatefulComponent
	// PrepareOffsets stages the current read positions under epoch. Called
	// on the executor goroutine when the spout snapshots that epoch, before
	// the snapshot is acked to the coordinator.
	PrepareOffsets(epoch int64) error
	// EpochCommitted reports that epoch globally committed; the source
	// commits every staged position at or below it to the external system.
	// Notifications may be duplicated or skip epochs (only the newest is
	// re-broadcast after coordinator restarts) — implementations must be
	// idempotent and treat the epoch as a high-water mark.
	EpochCommitted(epoch int64) error
}

// TransactionalSink is an optional extension for bolts that write to an
// external system with a transactional producer (e.g. Kafka
// transactions). It extends checkpointing to the output edge with a
// two-phase commit driven by the checkpoint barrier: writes staged during
// an epoch are *prepared* (moved into a durable, invisible pending
// transaction) when the bolt's barrier-aligned snapshot is taken, and
// *committed* (made visible, exactly once) only when the coordinator
// broadcasts that the whole epoch committed. A failure between the two
// phases is resolved by RecoverEpochs against the recovered epoch:
// pending transactions at or below it commit (the checkpoint won), newer
// ones abort (their input will be replayed).
type TransactionalSink interface {
	// PrepareEpoch seals the writes staged since the previous barrier into
	// the pending transaction for epoch. Called on the executor goroutine
	// at snapshot time, before the snapshot is acked; an error abandons the
	// epoch (the coordinator never commits it), which is always safe.
	PrepareEpoch(epoch int64) error
	// CommitEpoch reports the global commit of epoch: the sink commits
	// every pending transaction at or below it, in order. Like
	// EpochCommitted, notifications are an idempotent high-water mark.
	CommitEpoch(epoch int64) error
	// RecoverEpochs is called once after a restart, before any input is
	// processed, with the globally committed epoch the topology recovered
	// to (0 if none): commit pending transactions ≤ committed, abort the
	// rest.
	RecoverEpochs(committed int64) error
}

// StateRepartitioner is an optional extension for stateful components of
// topologies that rescale at runtime. When a component's parallelism
// changes (heron.Handle.ScaleComponent, or the health manager acting on a
// diagnosis), the engine redistributes the component's last committed
// checkpoint across the new task set before relaunching. A component that
// implements StateRepartitioner controls that redistribution; one that
// does not gets the engine default: every bolt-state key moves to the
// instance the fields-grouping hash of the key routes to (so state and
// traffic land together), and spout state stays aligned by component
// index.
type StateRepartitioner interface {
	// RepartitionState redistributes checkpointed state across a new
	// parallelism. old holds the previous instances' states indexed by
	// component index; fresh holds one empty state per new instance, also
	// indexed by component index. The engine persists fresh as the
	// post-rescale snapshot, so every key that should survive must be
	// written into some fresh state.
	RepartitionState(old []State, fresh []State) error
}

// Ticker is an optional bolt extension: bolts that also implement Ticker
// and declare a tick interval (BoltDeclarer.TickEvery) receive periodic
// Tick calls on the executor goroutine, interleaved with Execute — the
// mechanism behind time-based windows and timeout flushing.
type Ticker interface {
	Tick() error
}

// SpoutFactory builds a fresh Spout per instance.
type SpoutFactory func() Spout

// BoltFactory builds a fresh Bolt per instance.
type BoltFactory func() Bolt
