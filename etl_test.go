package heron

import (
	"fmt"
	"testing"
	"time"

	"heron/internal/extsvc/kafkasim"
	"heron/internal/extsvc/redissim"
	"heron/internal/workloads"
)

// TestETLEndToEndExactAggregates runs the Section VI-D pipeline over a
// bounded, deterministic Kafka log and verifies the Redis aggregates are
// EXACTLY the sums of the filtered events — full-pipeline correctness
// (consume, decompress, parse, filter, hash-partition, aggregate, write)
// with no tolerance.
func TestETLEndToEndExactAggregates(t *testing.T) {
	t.Parallel()
	const (
		partitions = 4
		perPart    = 2000
		users      = 37
	)
	broker := kafkasim.NewBroker(partitions)
	types := []string{"click", "view", "scroll", "hover"}
	expected := map[string]int64{} // "agg:u<user>" → sum of click amounts
	var clickEvents int64
	broker.Preload(perPart, func(part, i int) ([]byte, []byte) {
		et := types[i%len(types)]
		user := (part*perPart + i) % users
		amount := int64(i%97) + 1
		if et == "click" {
			expected[fmt.Sprintf("agg:u%d", user)] += amount
			clickEvents++
		}
		return []byte(fmt.Sprintf("k%d", i)), workloads.EventValue(user, et, amount)
	})
	redis := redissim.NewServer(4)

	spec, timers, err := workloads.BuildETL(workloads.ETLOptions{
		Name:   "etl-exact",
		Broker: broker, Redis: redis,
		Spouts: 2, Filters: 2, Aggregators: 2,
		FlushEvery:  1, // write-through: Redis converges without a kill
		OnceThrough: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(t)
	h, err := Submit(spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Kill()
	if err := h.WaitRunning(10 * time.Second); err != nil {
		t.Fatal(err)
	}

	total := int64(partitions * perPart)
	waitFor(t, 120*time.Second, "all events consumed", func() bool {
		return timers.Events.Load() >= total
	})
	// Every expected key must converge to its exact sum.
	waitFor(t, 120*time.Second, "aggregates converged", func() bool {
		for key, want := range expected {
			if got, _ := redis.Get(key); got != want {
				return false
			}
		}
		return true
	})
	if got := redis.Keys(); got != len(expected) {
		t.Errorf("redis keys = %d, want %d", got, len(expected))
	}
	t.Logf("verified %d aggregate keys over %d click events (of %d total)",
		len(expected), clickEvents, total)
}
