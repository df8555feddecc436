// Autotune: the paper's Section V-B future work, implemented — the
// max-spout-pending window of a live topology is driven from real-time
// observations instead of being hand-picked from a Figure-10-style sweep.
//
// The topology starts with a deliberately tiny window (throughput-bound)
// under the health manager's "tune-only" policy. While the spouts hold a
// full window and nothing backpressures, it grows the window ×1.5 for as
// long as each growth raises the acked rate, and halves it once a growth
// stops paying: the printout shows it walking up the Figure 10 curve to
// the knee.
//
//	go run ./examples/autotune
package main

import (
	"fmt"
	"log"
	"time"

	heron "heron"
	"heron/internal/workloads"
)

func main() {
	spec, stats, err := workloads.BuildWordCount(workloads.WordCountOptions{
		Spouts: 2, Bolts: 2, DictSize: 45_000, Reliable: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	cfg := heron.NewConfig()
	cfg.AckingEnabled = true
	cfg.MaxSpoutPending = 2 // start almost stalled
	cfg.MetricsExportInterval = 50 * time.Millisecond
	cfg.HealthInterval = 100 * time.Millisecond
	cfg.HealthPolicy = "tune-only"

	h, err := heron.Submit(spec, cfg)
	if err != nil {
		log.Fatal(err)
	}
	defer h.Kill()
	if err := h.WaitRunning(10 * time.Second); err != nil {
		log.Fatal(err)
	}

	fmt.Println("autotuning max-spout-pending (tune-only health policy, 10s)...")
	var last int64
	for i := 0; i < 10; i++ {
		time.Sleep(time.Second)
		acked := stats.Acked.Load()
		window, err := h.MaxSpoutPending()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("t+%2ds  window=%-5d  acked/sec=%d\n", i+1, window, acked-last)
		last = acked
	}
	fmt.Println("\ncontroller decisions (last 5):")
	actions := h.HealthStatus().Actions
	if len(actions) > 5 {
		actions = actions[len(actions)-5:]
	}
	for _, a := range actions {
		fmt.Printf("  %-14s %s%s\n", a.Diagnosis.Kind, a.Detail, a.Err)
	}
}
