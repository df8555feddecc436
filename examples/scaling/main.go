// Scaling: the self-regulating health manager closing the control loop
// end to end. A deliberately slow stateful bolt drives sustained
// backpressure; the health manager senses it from the merged metrics
// view, diagnoses the bolt as underprovisioned, and rescales it at
// runtime through the checkpoint-restore protocol — no operator, no
// restart of untouched components, no lost state.
//
// The run prints the diagnosis stream as the loop converges, then lifts
// the artificial slowness: with the load gone the same loop detects the
// over-provisioned component and scales it back down. Throughput is
// compared before and after.
//
//	go run ./examples/scaling
package main

import (
	"fmt"
	"log"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	heron "heron"
	"heron/api"
	"heron/internal/cluster"
	"heron/internal/core"
	"heron/internal/metrics"
)

// demoStats is shared by every spout and bolt instance across relaunches.
type demoStats struct {
	emitted  atomic.Int64
	executed atomic.Int64
	slow     atomic.Bool
}

// wordSpout emits a small dictionary round-robin and checkpoints its
// position, so a rescale's restore resumes exactly where the barrier cut.
type wordSpout struct {
	stats *demoStats
	dict  []string
	out   api.SpoutCollector
	seq   int64
}

func (s *wordSpout) Open(_ api.TopologyContext, out api.SpoutCollector) error {
	s.out = out
	return nil
}

func (s *wordSpout) NextTuple() bool {
	s.out.Emit("", nil, s.dict[s.seq%int64(len(s.dict))])
	s.seq++
	s.stats.emitted.Add(1)
	if s.seq%64 == 0 {
		time.Sleep(time.Millisecond) // pace the source
	}
	return true
}

func (s *wordSpout) Ack(any)      {}
func (s *wordSpout) Fail(any)     {}
func (s *wordSpout) Close() error { return nil }

func (s *wordSpout) SaveState(st api.State) error {
	st.Set("seq", strconv.AppendInt(nil, s.seq, 10))
	return nil
}

func (s *wordSpout) RestoreState(st api.State) error {
	if n, err := strconv.ParseInt(string(st.Get("seq")), 10, 64); err == nil {
		s.seq = n
	}
	return nil
}

// slowCountBolt is a stateful word counter with an artificial per-tuple
// stall — the "slow instance" the health manager must notice.
type slowCountBolt struct {
	stats  *demoStats
	mu     sync.Mutex
	counts map[string]int64
}

func (b *slowCountBolt) Prepare(api.TopologyContext, api.BoltCollector) error {
	b.counts = map[string]int64{}
	return nil
}

func (b *slowCountBolt) Execute(t api.Tuple) error {
	if b.stats.slow.Load() {
		time.Sleep(200 * time.Microsecond)
	}
	b.mu.Lock()
	b.counts[t.String(0)]++
	b.mu.Unlock()
	b.stats.executed.Add(1)
	return nil
}

func (b *slowCountBolt) Cleanup() error { return nil }

func (b *slowCountBolt) SaveState(s api.State) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	for w, n := range b.counts {
		s.Set(w, strconv.AppendInt(nil, n, 10))
	}
	return nil
}

func (b *slowCountBolt) RestoreState(s api.State) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	s.Range(func(k string, v []byte) bool {
		if n, err := strconv.ParseInt(string(v), 10, 64); err == nil {
			b.counts[k] = n
		}
		return true
	})
	return nil
}

func main() {
	stats := &demoStats{}
	stats.slow.Store(true)

	dict := make([]string, 30)
	for i := range dict {
		dict[i] = fmt.Sprintf("word-%02d", i)
	}
	b := api.NewTopologyBuilder("health-demo")
	b.SetSpout("word", func() api.Spout {
		return &wordSpout{stats: stats, dict: dict}
	}, 2).OutputFields("word")
	b.SetBolt("count", func() api.Bolt {
		return &slowCountBolt{stats: stats}
	}, 2).FieldsGrouping("word", "", "word")
	spec, err := b.Build()
	if err != nil {
		log.Fatal(err)
	}

	cfg := heron.NewConfig()
	cfg.NumContainers = 3
	cfg.SchedulerName = "yarn"
	cfg.Framework = cluster.New("health-demo-sim", 4, core.Resource{CPU: 32, RAMMB: 32 << 10, DiskMB: 64 << 10})
	cfg.CheckpointInterval = 300 * time.Millisecond
	cfg.MetricsExportInterval = 100 * time.Millisecond
	cfg.HealthInterval = 200 * time.Millisecond // enables the health manager ("autoscale" policy)
	cfg.CacheMaxBatchTuples = 1                 // keep the backlog small enough for barriers under backpressure
	cfg.HTTPAddr = "127.0.0.1:0"                // serves /health next to /metrics

	h, err := heron.Submit(spec, cfg)
	if err != nil {
		log.Fatal(err)
	}
	defer h.Kill()
	if err := h.WaitRunning(10 * time.Second); err != nil {
		log.Fatal(err)
	}
	printPlan(h)
	fmt.Printf("\nhealth status at http://%s/health\n", h.ObservabilityAddr())
	fmt.Println("\n→ the count bolt stalls 200µs per tuple; waiting for the health manager to act...")

	// Watch the control loop: throughput each second, plus every new
	// diagnosis as the detectors and the diagnosis step produce it.
	seen := map[string]bool{}
	start := time.Now()
	var slowRate float64
	for {
		time.Sleep(time.Second)
		base := stats.executed.Load()
		time.Sleep(time.Second)
		rate := float64(stats.executed.Load()-base) / 1000
		st := h.HealthStatus()
		for _, d := range st.Diagnoses {
			key := string(d.Kind) + "/" + d.Component
			if !seen[key] {
				seen[key] = true
				fmt.Printf("  diagnosis: %s on %q (%s)\n", d.Kind, d.Component, d.Detail)
			}
		}
		plan, err := h.PackingPlan()
		if err != nil {
			log.Fatal(err)
		}
		n := plan.ComponentCounts()["count"]
		fmt.Printf("  t+%2.0fs  throughput=%6.1fk tuples/s  count parallelism=%d\n",
			time.Since(start).Seconds(), rate, n)
		if n > 2 {
			slowRate = rate
			break
		}
		if time.Since(start) > 90*time.Second {
			log.Fatal("health manager did not rescale within 90s")
		}
	}

	// Lift the stall and let the control loop settle: backpressure released
	// and no action in the last few seconds. (The loop may act more than
	// once while the symptom persists.)
	fmt.Println("\n→ the health manager rescaled count; lifting the stall and letting the loop settle...")
	stats.slow.Store(false)
	settleStart := time.Now()
	for time.Since(settleStart) < 60*time.Second {
		time.Sleep(500 * time.Millisecond)
		st := h.HealthStatus()
		recent := len(st.Actions) > 0 && time.Since(st.Actions[len(st.Actions)-1].At) < 3*time.Second
		if !recent && h.Metrics().Gauge(metrics.MStmgrBPActive, "") == 0 {
			break
		}
	}

	fmt.Println("\n→ actions taken:")
	for _, a := range h.HealthStatus().Actions {
		fmt.Printf("  %s (%s on %q) %s\n", a.Resolver, a.Diagnosis.Kind, a.Diagnosis.Component, a.Detail)
	}
	printPlan(h)

	fmt.Println("\n→ throughput after convergence:")
	base := stats.executed.Load()
	time.Sleep(3 * time.Second)
	rate := float64(stats.executed.Load()-base) / 3000
	fmt.Printf("  stalled + backpressured: %6.1fk tuples/s\n", slowRate)
	fmt.Printf("  healthy + right-sized:   %6.1fk tuples/s\n", rate)
	fmt.Printf("\ntotal emitted=%d executed=%d\n", stats.emitted.Load(), stats.executed.Load())
}

func printPlan(h *heron.Handle) {
	plan, err := h.PackingPlan()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("packing plan: %d containers, %d instances\n", len(plan.Containers), plan.NumInstances())
	for _, c := range plan.Containers {
		fmt.Printf("  container %d:", c.ID)
		for _, inst := range c.Instances {
			fmt.Printf(" %s", inst.ID)
		}
		fmt.Println()
	}
}
