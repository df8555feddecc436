package heron

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"heron/api"
	"heron/internal/cluster"
	"heron/internal/core"
	"heron/internal/metrics"
)

// slowCountBolt is the chaos lever of the health-manager tests: the
// stateful word counter from the checkpoint harness, with a togglable
// per-tuple delay. While slow is set the bolt cannot keep up with the
// spouts, the delivery queue crosses the backpressure high-water mark,
// and the health manager must diagnose the component as
// underprovisioned.
type slowCountBolt struct {
	ckptCountBolt
	slow *atomic.Bool
}

func (b *slowCountBolt) Execute(t api.Tuple) error {
	if b.slow.Load() {
		time.Sleep(200 * time.Microsecond)
	}
	return b.ckptCountBolt.Execute(t)
}

// healthDict is the deterministic emission dictionary shared by the
// health e2e tests.
func healthDict() []string {
	dict := make([]string, 30)
	for i := range dict {
		dict[i] = fmt.Sprintf("h%02d", i)
	}
	return dict
}

// buildHealthTopology wires 2 seqSpouts into `bolts` slow-capable
// stateful counters under fields grouping.
func buildHealthTopology(t *testing.T, name string, h *ckptHarness, slow *atomic.Bool, dict []string, bolts int) *api.Spec {
	t.Helper()
	b := api.NewTopologyBuilder(name)
	b.SetSpout("word", func() api.Spout {
		return &seqSpout{h: h, dict: dict}
	}, 2).OutputFields("word")
	b.SetBolt("count", func() api.Bolt {
		return &slowCountBolt{ckptCountBolt: ckptCountBolt{h: h}, slow: slow}
	}, bolts).FieldsGrouping("word", "", "word")
	spec, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// countParallelism reads the live packing plan's instance count for
// "count".
func countParallelism(t *testing.T, handle *Handle) int {
	t.Helper()
	plan, err := handle.PackingPlan()
	if err != nil {
		t.Fatal(err)
	}
	return plan.ComponentCounts()["count"]
}

// drainAndAudit stops the sources, waits for the pipeline to go quiet,
// and then verifies the live bolts' summed counts EXACTLY match the live
// spouts' deterministic emission history — the PR 3 audit, applied after
// a runtime rescale: a lost tuple makes a count too low, a replayed one
// too high. Instances are filtered through the final packing plan: a
// shrink drops tasks, and their last pre-shrink generation (whose state
// was repartitioned onto the survivors) must not be double-counted.
func drainAndAudit(t *testing.T, handle *Handle, h *ckptHarness, dict []string) {
	t.Helper()
	h.stop.Store(true)
	// Quiescence must cover relaunches, not just tuple flow: a rescale
	// completing mid-drain swaps in a restored generation (spout seqs roll
	// back to the barrier), and auditing across generations would compare
	// an old spout lineage against restored bolt state. Progress, spout
	// positions, and the restore counter must ALL hold still.
	snap := func() [3]int64 {
		var seqSum int64
		h.mu.Lock()
		for _, s := range h.spouts {
			seqSum += s.seq.Load()
		}
		h.mu.Unlock()
		return [3]int64{h.executed.Load(), seqSum, handle.SumCounter(metrics.MRestoreCount)}
	}
	quiet, last := time.Now(), snap()
	waitFor(t, 60*time.Second, "pipeline quiescence", func() bool {
		if n := snap(); n != last {
			last, quiet = n, time.Now()
			return false
		}
		return time.Since(quiet) > time.Second
	})

	plan, err := handle.PackingPlan()
	if err != nil {
		t.Fatal(err)
	}
	live := map[int32]bool{}
	for i := range plan.Containers {
		for _, inst := range plan.Containers[i].Instances {
			live[inst.ID.TaskID] = true
		}
	}

	h.mu.Lock()
	spouts := make([]*seqSpout, 0, len(h.spouts))
	for task, s := range h.spouts {
		if live[task] {
			spouts = append(spouts, s)
		}
	}
	bolts := make([]*ckptCountBolt, 0, len(h.bolts))
	for task, cb := range h.bolts {
		if live[task] {
			bolts = append(bolts, cb)
		}
	}
	h.mu.Unlock()
	if len(spouts) != 2 {
		t.Fatalf("live spout instances = %d, want 2", len(spouts))
	}
	expected := map[string]int64{}
	for _, s := range spouts {
		seq := s.seq.Load()
		for i, w := range dict {
			expected[w] += seq / int64(len(dict))
			if int64(i) < seq%int64(len(dict)) {
				expected[w]++
			}
		}
	}
	actual := map[string]int64{}
	for _, cb := range bolts {
		cb.mu.Lock()
		for w, n := range cb.counts {
			actual[w] += n
		}
		cb.mu.Unlock()
	}
	for _, w := range dict {
		if actual[w] != expected[w] {
			t.Errorf("word %q: counted %d, emitted %d (Δ%+d)",
				w, actual[w], expected[w], actual[w]-expected[w])
		}
	}
}

// healthTestConfig is the shared stateful-topology configuration: yarn
// scheduler on a simulated cluster, memory checkpoint backend.
func healthTestConfig(t *testing.T) *Config {
	t.Helper()
	cfg := testConfig(t)
	cfg.SchedulerName = "yarn"
	cfg.CheckpointInterval = 300 * time.Millisecond
	return cfg
}

// TestHealthManagerAutoscaleConvergence is the chaos test of the tentpole:
// an artificially slow bolt drives sustained backpressure; the health
// manager must — autonomously — detect it, diagnose "count" as
// underprovisioned, and rescale it to a higher parallelism through the
// checkpoint-restore protocol, all with zero tuple loss.
func TestHealthManagerAutoscaleConvergence(t *testing.T) {
	dict := healthDict()
	h := &ckptHarness{spouts: map[int32]*seqSpout{}, bolts: map[int32]*ckptCountBolt{}}
	var slow atomic.Bool
	slow.Store(true)
	spec := buildHealthTopology(t, "health-autoscale", h, &slow, dict, 2)

	cfg := healthTestConfig(t)
	cfg.MetricsExportInterval = 100 * time.Millisecond
	cfg.HealthInterval = 200 * time.Millisecond
	// Unbatched frames make the outbox high-water mark a bound on queued
	// TUPLES (~2048), not on 1024-tuple batches: backpressure then caps
	// the backlog at a size the slow bolt drains in well under a second,
	// so the rescale's checkpoint barrier completes while the pipeline is
	// saturated — exactly the regime the health manager operates in.
	cfg.CacheMaxBatchTuples = 1
	cl := cluster.New("health-autoscale-sim", 4, core.Resource{CPU: 32, RAMMB: 32768, DiskMB: 65536})
	cfg.Framework = cl

	handle, err := Submit(spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer handle.Kill()
	if err := handle.WaitRunning(10 * time.Second); err != nil {
		t.Fatal(err)
	}

	// The slow bolt throttles the pipeline; the health manager must react
	// without any operator involvement.
	waitFor(t, 90*time.Second, "automatic scale-up of the slow bolt", func() bool {
		return countParallelism(t, handle) > 2
	})
	slow.Store(false)

	// With the slowness lifted and extra parallelism in place the pipeline
	// must make brisk progress again.
	base := h.executed.Load()
	waitFor(t, 30*time.Second, "post-rescale progress", func() bool {
		return h.executed.Load() > base+10_000
	})
	// Let the control loop settle before draining: fresh samples flowing
	// (no rescale blocking the tick goroutine), backpressure gone, and no
	// action in the last few seconds.
	waitFor(t, 60*time.Second, "health manager settled", func() bool {
		st := handle.HealthStatus()
		if time.Since(st.LastSampleAt) > time.Second {
			return false
		}
		if len(st.Actions) > 0 && time.Since(st.Actions[len(st.Actions)-1].At) < 3*time.Second {
			return false
		}
		return handle.Metrics().Gauge(metrics.MStmgrBPActive, "") == 0
	})

	// Only read the status after the loop settles: the scale-up Action is
	// appended when the (blocking) rescale returns, which can be well after
	// the new packing plan is already visible.
	status := handle.HealthStatus()
	if status.Policy != "autoscale" {
		t.Errorf("policy = %q, want autoscale", status.Policy)
	}
	var sawScaleUp bool
	for _, a := range status.Actions {
		if a.Resolver == "scale-up" && a.Err == "" {
			sawScaleUp = true
		}
	}
	if !sawScaleUp {
		t.Errorf("no successful scale-up action in %+v", status.Actions)
	}
	if n := handle.Metrics().Counter(metrics.MHealthActions, ""); n < 1 {
		t.Errorf("healthmgr.resolver-actions = %d, want ≥ 1", n)
	}
	if n := handle.Metrics().Counter(metrics.MHealthSymptoms, "count"); n < 1 {
		t.Errorf("healthmgr.symptoms{count} = %d, want ≥ 1", n)
	}

	drainAndAudit(t, handle, h, dict)
}

// TestScaleComponentManual drives the exact same stateful rescale the
// resolver uses through each public entry point: Handle.ScaleComponent,
// and Handle.Scale, which takes the same protocol on a checkpointed
// topology.
func TestScaleComponentManual(t *testing.T) {
	t.Parallel()
	for _, entry := range []struct {
		name  string
		scale func(h *Handle, component string, parallelism int) error
	}{
		{"ScaleComponent", (*Handle).ScaleComponent},
		{"Scale", func(h *Handle, component string, parallelism int) error {
			return h.Scale(map[string]int{component: parallelism})
		}},
	} {
		t.Run(entry.name, func(t *testing.T) {
			t.Parallel()
			dict := healthDict()
			h := &ckptHarness{spouts: map[int32]*seqSpout{}, bolts: map[int32]*ckptCountBolt{}}
			var slow atomic.Bool // never set: this test rescales a healthy topology
			spec := buildHealthTopology(t, "health-manual-"+entry.name, h, &slow, dict, 2)

			cfg := healthTestConfig(t)
			cl := cluster.New("health-manual-"+entry.name+"-sim", 4, core.Resource{CPU: 32, RAMMB: 32768, DiskMB: 65536})
			cfg.Framework = cl

			handle, err := Submit(spec, cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer handle.Kill()
			if err := handle.WaitRunning(10 * time.Second); err != nil {
				t.Fatal(err)
			}
			waitFor(t, 15*time.Second, "initial progress", func() bool {
				return h.executed.Load() > 10_000
			})

			if err := entry.scale(handle, "count", 4); err != nil {
				t.Fatalf("%s: %v", entry.name, err)
			}
			if got := countParallelism(t, handle); got != 4 {
				t.Fatalf("count parallelism = %d after rescale, want 4", got)
			}
			waitFor(t, 15*time.Second, "state restored on relaunch", func() bool {
				return handle.SumCounter(metrics.MRestoreCount) > 0
			})
			base := h.executed.Load()
			waitFor(t, 30*time.Second, "post-rescale progress", func() bool {
				return h.executed.Load() > base+10_000
			})

			// Guard rails of the public API.
			if err := entry.scale(handle, "count", 4); err != nil {
				t.Errorf("no-op rescale errored: %v", err)
			}
			if err := entry.scale(handle, "nope", 2); err == nil {
				t.Error("rescaling an unknown component succeeded")
			}
			if err := entry.scale(handle, "count", 0); err == nil {
				t.Error("rescaling to parallelism 0 succeeded")
			}

			drainAndAudit(t, handle, h, dict)
		})
	}
}

// TestScaleComponentRollback forces the relaunch step of the rescale to
// fail — the repack opens a container the simulated cluster cannot place
// — and verifies the topology rolls back to the pre-rescale plan and
// checkpoint, still losing nothing.
func TestScaleComponentRollback(t *testing.T) {
	t.Parallel()
	dict := healthDict()
	h := &ckptHarness{spouts: map[int32]*seqSpout{}, bolts: map[int32]*ckptCountBolt{}}
	var slow atomic.Bool
	spec := buildHealthTopology(t, "health-rollback", h, &slow, dict, 2)

	cfg := healthTestConfig(t)
	// Bin-packed containers hold exactly 2 instances (capacity minus
	// overhead), so growing "count" past the packed plan must open a new
	// container — and the 2-node cluster below has nowhere to put it.
	cfg.PackingAlgorithm = "binpacking"
	cfg.ContainerCapacity = core.Resource{CPU: 3, RAMMB: 2560, DiskMB: 2560}
	cl := cluster.New("health-rollback-sim", 2, core.Resource{CPU: 4, RAMMB: 3584, DiskMB: 3584})
	cfg.Framework = cl

	handle, err := Submit(spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer handle.Kill()
	if err := handle.WaitRunning(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 15*time.Second, "initial progress", func() bool {
		return h.executed.Load() > 5_000
	})

	err = handle.ScaleComponent("count", 4)
	if err == nil {
		t.Fatal("rescale succeeded on a full cluster")
	}
	if !errors.Is(err, cluster.ErrNoCapacity) {
		t.Fatalf("rescale error = %v, want to wrap cluster.ErrNoCapacity", err)
	}
	if got := countParallelism(t, handle); got != 2 {
		t.Fatalf("count parallelism = %d after rollback, want 2", got)
	}

	// The rolled-back topology must keep processing from the pre-rescale
	// checkpoint...
	base := h.executed.Load()
	waitFor(t, 30*time.Second, "post-rollback progress", func() bool {
		return h.executed.Load() > base+5_000
	})
	// ...and a rescale that fits must still succeed afterwards (state
	// held intact through rollback).
	if err := handle.ScaleComponent("count", 1); err != nil {
		t.Fatalf("shrink after rollback: %v", err)
	}
	if got := countParallelism(t, handle); got != 1 {
		t.Fatalf("count parallelism = %d after shrink, want 1", got)
	}
	base = h.executed.Load()
	waitFor(t, 30*time.Second, "post-shrink progress", func() bool {
		return h.executed.Load() > base+5_000
	})
	drainAndAudit(t, handle, h, dict)
}
