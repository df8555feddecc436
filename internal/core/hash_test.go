package core_test

import (
	"math/rand"
	"testing"

	"heron/internal/core"
	"heron/internal/workloads"
)

// TestHashFieldsGolden pins HashFields. Fields grouping, checkpoint
// repartitioning and the Storm baseline all place keys with it, and a
// key's task must not move between processes or releases: changing the
// function is a deliberate, recorded change of these values.
func TestHashFieldsGolden(t *testing.T) {
	for _, tc := range []struct {
		name   string
		values []any
		idx    []int
		want   uint64
	}{
		{"string", []any{"basedonut"}, []int{0}, 0xb4fb60c099936c1},
		{"empty string", []any{""}, []int{0}, 0xaf63d24c8601db8e},
		{"int64", []any{int64(-5)}, []int{0}, 0xa51ea54623dac512},
		{"float64", []any{2.5}, []int{0}, 0xc285333a1037961a},
		{"true", []any{true}, []int{0}, 0x82f2907b4e898a9},
		{"false", []any{false}, []int{0}, 0x8326907b4eb3b40},
		{"bytes equal the string", []any{[]byte("basedonut")}, []int{0}, 0xb4fb60c099936c1},
		{"unsupported type", []any{int32(7)}, []int{0}, 0xa9d2907b6f9205a},
		{"index past the end", []any{"w"}, []int{1}, 0xaf64724c8602eb6e},
		{"negative index", []any{"w"}, []int{-1}, 0xaf64724c8602eb6e},
		{"two fields", []any{"basedonut", int64(3)}, []int{1, 0}, 0xe6996d091ae7633},
		{"no fields", []any{"a"}, nil, 0xcbf29ce484222325},
	} {
		if got := core.HashFields(tc.values, tc.idx); got != tc.want {
			t.Errorf("%s: HashFields = %#x, want %#x", tc.name, got, tc.want)
		}
	}
}

// BenchmarkHashFields hashes random words of the benchmark's 45 k
// dictionary, boxed as a spout emits them.
func BenchmarkHashFields(b *testing.B) {
	dict := workloads.Dictionary(45_000)
	words := make([]any, 1<<12)
	rng := rand.New(rand.NewSource(1))
	for i := range words {
		words[i] = dict[rng.Intn(len(dict))]
	}
	idx := []int{0}
	var vals [1]any
	var sink uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vals[0] = words[i&(len(words)-1)]
		sink ^= core.HashFields(vals[:], idx)
	}
	_ = sink
}
