package core

import "math"

// HashFields computes a stable FNV-1a hash over selected tuple fields,
// used by fields grouping in both the Heron engine and the Storm baseline
// so that key→task placement is directly comparable across engines.
func HashFields(values []any, idx []int) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(b byte) { h = (h ^ uint64(b)) * prime64 }
	mixU64 := func(v uint64) {
		for s := 0; s < 64; s += 8 {
			mix(byte(v >> s))
		}
	}
	for _, i := range idx {
		if i < 0 || i >= len(values) {
			mix(0xff)
			continue
		}
		switch v := values[i].(type) {
		case string:
			for j := 0; j < len(v); j++ {
				mix(v[j])
			}
		case int64:
			mixU64(uint64(v))
		case float64:
			mixU64(math.Float64bits(v))
		case bool:
			if v {
				mix(1)
			} else {
				mix(0)
			}
		case []byte:
			for _, b := range v {
				mix(b)
			}
		default:
			mix(0xfe)
		}
		mix(0x1f) // field separator
	}
	return h
}

// Tuple-tree root ids encode their owning spout task: the top 16 bits
// carry the task id, the low 48 bits are the caller's — not necessarily
// random (the Heron spout puts a generation and a pending-table slot
// there; the Storm baseline, random bits). Acks recover the spout from
// the root alone, so the wire format needs no extra field.
const rootLowBits = 48

// MakeRoot builds a tuple-tree root id for a spout task from the low 48
// bits of low.
func MakeRoot(spoutTask int32, low uint64) uint64 {
	return uint64(uint16(spoutTask))<<rootLowBits | (low & (1<<rootLowBits - 1))
}

// RootSpout recovers the spout task id from a root id.
func RootSpout(root uint64) int32 { return int32(root >> rootLowBits) }
