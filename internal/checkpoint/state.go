package checkpoint

import (
	"fmt"
	"sort"

	"heron/internal/encoding/wire"
)

// MapState is the engine's api.State implementation: a plain string→bytes
// map handed to StatefulComponent.SaveState/RestoreState. It is not safe
// for concurrent use; the executor goroutine owns it for the duration of
// the call.
type MapState struct {
	m map[string][]byte
}

// NewMapState returns an empty state view.
func NewMapState() *MapState { return &MapState{m: map[string][]byte{}} }

// NewMapStateSize returns an empty state view with room for n keys, so a
// snapshot about as large as the previous one never regrows its map.
func NewMapStateSize(n int) *MapState { return &MapState{m: make(map[string][]byte, n)} }

// Set implements api.State.
func (s *MapState) Set(key string, value []byte) { s.m[key] = value }

// Get implements api.State.
func (s *MapState) Get(key string) []byte { return s.m[key] }

// Delete implements api.State.
func (s *MapState) Delete(key string) { delete(s.m, key) }

// Range implements api.State.
func (s *MapState) Range(fn func(key string, value []byte) bool) {
	for k, v := range s.m {
		if !fn(k, v) {
			return
		}
	}
}

// Len implements api.State.
func (s *MapState) Len() int { return len(s.m) }

// EncodeState serializes a MapState for a backend:
//
//	uvarint(pairs) pairs×(uvarint(len(key)) key uvarint(len(value)) value)
//
// Keys are written in sorted order so equal states encode identically.
// The result is allocated at its exact size.
func EncodeState(s *MapState) []byte {
	keys := make([]string, 0, len(s.m))
	size := wire.UvarintLen(uint64(len(s.m)))
	for k, v := range s.m {
		keys = append(keys, k)
		size += wire.UvarintLen(uint64(len(k))) + len(k) + wire.UvarintLen(uint64(len(v))) + len(v)
	}
	sort.Strings(keys)
	b := wire.AppendUvarint(make([]byte, 0, size), uint64(len(keys)))
	for _, k := range keys {
		b = wire.AppendUvarint(b, uint64(len(k)))
		b = append(b, k...)
		v := s.m[k]
		b = wire.AppendUvarint(b, uint64(len(v)))
		b = append(b, v...)
	}
	return b
}

// DecodeState parses an encoded snapshot. The returned state copies out of
// b, so the caller may recycle the buffer.
func DecodeState(b []byte) (*MapState, error) {
	pairs, n, err := wire.Uvarint(b)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: state header: %w", err)
	}
	b = b[n:]
	// The header is unchecked input: size the map by what the bytes left
	// can hold, at least 2 per pair (two empty lengths).
	s := &MapState{m: make(map[string][]byte, min(pairs, uint64(len(b))/2))}
	for i := uint64(0); i < pairs; i++ {
		kl, n, err := wire.Uvarint(b)
		if err != nil || uint64(len(b[n:])) < kl {
			return nil, fmt.Errorf("checkpoint: state key %d truncated", i)
		}
		b = b[n:]
		k := string(b[:kl])
		b = b[kl:]
		vl, n, err := wire.Uvarint(b)
		if err != nil || uint64(len(b[n:])) < vl {
			return nil, fmt.Errorf("checkpoint: state value %d truncated", i)
		}
		b = b[n:]
		s.m[k] = append([]byte(nil), b[:vl]...)
		b = b[vl:]
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("checkpoint: %d trailing bytes", len(b))
	}
	return s, nil
}
