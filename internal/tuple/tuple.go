// Package tuple defines the data model that flows through a Heron topology
// and the serialization codecs used to move tuples across process
// boundaries.
//
// Every message has a fixed layout, with no field tags. A data tuple is a
// fixed-offset header — its destination is the first four bytes — then
// its roots and its values (codec.go); an ack entry is 21 bytes at fixed
// offsets; frames batch either kind behind a count (frame.go).
//
// Two codecs are provided:
//
//   - FastCodec is the optimized path of the paper's Section V-A: it
//     encodes straight into the caller's (pooled) buffer, and routers
//     read the destination of an encoded tuple with PeekDest, one 4-byte
//     load, without deserializing the payload (lazy deserialization).
//     Instances apply the same idea on receive: DecodeHeader reads the
//     header in one pass and checks the values without building them,
//     and RawValues reads each value in place when a bolt asks for it.
//   - NaiveCodec is the "without optimizations" arm of the evaluation's
//     Figures 5–9: every encode allocates fresh memory, every decode
//     materializes and copies every value, and there is no partial read —
//     a router must fully decode and re-encode each tuple it forwards.
//
// Both codecs produce identical bytes, a property the tests check
// exhaustively, so switching them changes cost, never semantics.
package tuple

import "fmt"

// Kind enumerates the value types a tuple field may carry. The set matches
// what the WordCount and ETL workloads need and is easily extended.
type Kind uint8

// Supported field kinds.
const (
	KindString Kind = iota + 1
	KindInt
	KindFloat
	KindBool
	KindBytes
)

var kindNames = [...]string{KindString: "string", KindInt: "int64",
	KindFloat: "float64", KindBool: "bool", KindBytes: "[]byte"}

// String names the Go type a Kind decodes to.
func (k Kind) String() string {
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Values is one tuple's payload: a positional list of fields. Allowed
// dynamic types are string, int64, float64, bool and []byte.
type Values []any

// String returns field i as a string; it panics if the field has another
// type, mirroring the fail-fast accessors of Heron's tuple API.
func (v Values) String(i int) string { return v[i].(string) }

// Int returns field i as an int64.
func (v Values) Int(i int) int64 { return v[i].(int64) }

// Float returns field i as a float64.
func (v Values) Float(i int) float64 { return v[i].(float64) }

// Bool returns field i as a bool.
func (v Values) Bool(i int) bool { return v[i].(bool) }

// Bytes returns field i as a byte slice.
func (v Values) Bytes(i int) []byte { return v[i].([]byte) }

// KindOf reports the Kind of a dynamic value, or an error for unsupported
// types.
func KindOf(x any) (Kind, error) {
	switch x.(type) {
	case string:
		return KindString, nil
	case int64:
		return KindInt, nil
	case float64:
		return KindFloat, nil
	case bool:
		return KindBool, nil
	case []byte:
		return KindBytes, nil
	default:
		return 0, fmt.Errorf("tuple: unsupported value type %T", x)
	}
}

// DataTuple is one data tuple as it crosses the Stream Manager. DestTask
// is the first four bytes on the wire, so a router reads it with one
// load.
type DataTuple struct {
	DestTask int32  // receiving task id
	SrcTask  int32  // emitting task id
	StreamID int32  // index into the topology's stream table
	Key      uint64 // unique id of this tuple instance (0 if unanchored)
	// Roots holds the spout-tuple ids this tuple is anchored to; acks for
	// this tuple are XOR-ed into each root's tuple tree.
	Roots  []uint64
	Values Values
}

// Reset clears the tuple for reuse, keeping allocated slices.
func (t *DataTuple) Reset() {
	t.DestTask, t.SrcTask, t.StreamID, t.Key = 0, 0, 0, 0
	t.Roots = t.Roots[:0]
	for i := range t.Values {
		t.Values[i] = nil
	}
	t.Values = t.Values[:0]
}

// AckKind distinguishes the control tuples of the acking protocol.
type AckKind uint8

// Control tuple kinds.
const (
	AckAck  AckKind = 1 // tuple tree node processed successfully
	AckFail AckKind = 2 // explicit failure: fail the whole tree now
	// AckAnchor registers newly created tuple keys in a tree (a spout's
	// root emission); Delta carries the XOR of the new keys.
	AckAnchor AckKind = 3
	// AckExpired notifies a spout that a tree timed out (sent by the
	// acker toward the spout instance, never by bolts).
	AckExpired AckKind = 4
)

// AckTuple is the small control message bolts send toward the acker that
// manages the originating spout's tuple trees.
type AckTuple struct {
	Kind AckKind
	// SpoutTask is the task id of the spout that emitted the root tuple.
	SpoutTask int32
	// Root is the id of the root spout tuple whose tree this ack belongs to.
	Root uint64
	// Delta is XOR of the acked tuple's own key and the keys of all tuples
	// emitted while processing it (the anchors it created).
	Delta uint64
}
