package heron

import (
	"testing"
	"time"

	"heron/api"
	"heron/internal/metrics"
)

// TestDynamicMaxSpoutPending verifies the live-retune control path: a
// spout gated at a tiny window keeps at most that many tuples in flight,
// and holds more once the window is raised through the TMaster broadcast.
// It reads each spout task's spout.pending gauge, which the window bounds
// whatever the machine's load, not an acked rate, which the load moves too.
func TestDynamicMaxSpoutPending(t *testing.T) {
	var f fixture
	spec := f.buildWordCount(t, 2, 2, -1, true)
	cfg := testConfig(t)
	cfg.AckingEnabled = true
	cfg.MaxSpoutPending = 2 // nearly stalled
	cfg.MessageTimeout = 10 * time.Second
	cfg.MetricsExportInterval = 20 * time.Millisecond

	h, err := Submit(spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Kill()
	if err := h.WaitRunning(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	// maxPending is the largest spout.pending any spout task reports.
	maxPending := func() int64 {
		var most int64
		for id, p := range h.Metrics().Gauges {
			if id.Name == metrics.MSpoutPending && id.Component == "word" {
				most = max(most, p)
			}
		}
		return most
	}
	var slow int64
	for deadline := time.Now().Add(time.Second); time.Now().Before(deadline); time.Sleep(10 * time.Millisecond) {
		slow = max(slow, maxPending())
	}
	if slow > 2 {
		t.Fatalf("spout.pending reached %d at window 2", slow)
	}

	if err := h.SetMaxSpoutPending(500); err != nil {
		t.Fatal(err)
	}
	fast := maxPending()
	for deadline := time.Now().Add(2 * time.Second); fast <= 2 && time.Now().Before(deadline); time.Sleep(10 * time.Millisecond) {
		fast = maxPending()
	}
	t.Logf("max spout.pending: window=2 → %d, window=500 → %d", slow, fast)
	if fast <= 2 {
		t.Errorf("retune had no effect: spout.pending still %d after raising the window to 500", fast)
	}
}

// TestTunedWindowSurvivesRelaunch: a window set through
// SetMaxSpoutPending outlives the spouts it was first sent to. The
// control log records it, the TMaster re-sends it with the plan a
// relaunched container receives, and that container's Stream Manager
// replays it to the spout that registers there.
func TestTunedWindowSurvivesRelaunch(t *testing.T) {
	t.Parallel()
	var f fixture
	spec := f.buildWordCount(t, 2, 2, -1, true)
	cfg := testConfig(t)
	cfg.AckingEnabled = true
	cfg.MaxSpoutPending = 2
	cfg.MessageTimeout = 10 * time.Second

	h, err := Submit(spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Kill()
	if err := h.WaitRunning(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := h.SetMaxSpoutPending(500); err != nil {
		t.Fatal(err)
	}
	plan, err := h.PackingPlan()
	if err != nil {
		t.Fatal(err)
	}
	container := int32(-1)
	for _, c := range plan.Containers {
		for _, inst := range c.Instances {
			if inst.ID.Component == "word" {
				container = c.ID
			}
		}
	}
	old := h.Registries()[container]
	if err := h.Restart(container); err != nil {
		t.Fatal(err)
	}
	// The relaunched container reports through a fresh registry.
	var pending int64
	for deadline := time.Now().Add(10 * time.Second); pending <= 2 && time.Now().Before(deadline); time.Sleep(10 * time.Millisecond) {
		reg := h.Registries()[container]
		if reg == nil || reg == old {
			continue
		}
		for _, g := range reg.Snapshot(container).Gauges {
			if g.Name == metrics.MSpoutPending {
				pending = max(pending, g.Value)
			}
		}
	}
	if pending <= 2 {
		t.Errorf("relaunched spout in container %d holds at most %d in flight: it started at the configured window 2, not the tuned 500", container, pending)
	}
	if w, err := h.MaxSpoutPending(); err != nil || w != 500 {
		t.Errorf("MaxSpoutPending() = %d, %v; want 500", w, err)
	}
}

// batchAckBolt acks the tuples it receives on its next tick, like a sink
// that commits every few milliseconds. A tuple's round trip then lasts
// about a tick however busy the CPU is, so up to the knee the
// max-spout-pending window, not the machine, bounds the acked rate.
type batchAckBolt struct {
	out  api.BoltCollector
	held []api.Tuple
}

func (b *batchAckBolt) Prepare(_ api.TopologyContext, out api.BoltCollector) error {
	b.out = out
	return nil
}

func (b *batchAckBolt) Execute(t api.Tuple) error {
	b.held = append(b.held, t)
	return nil
}

func (b *batchAckBolt) Tick() error {
	for _, t := range b.held {
		b.out.Ack(t)
	}
	b.held = b.held[:0]
	return nil
}

func (b *batchAckBolt) Cleanup() error { return nil }

// TestAutoTunerDrivesLiveTopology runs the health manager's tune-only
// policy, the paper's §V-B future work, against a real topology: starting
// from a stalling window, it must grow the window and multiply
// throughput. The sink acks every 2 ms, so the pipeline has a knee far
// above window 2 on any machine; a CPU-bound WordCount under the race
// detector saturates at about twice its window-2 rate, and a tuner that
// stops at the knee would leave the 2× check to chance there.
func TestAutoTunerDrivesLiveTopology(t *testing.T) {
	if testing.Short() {
		t.Skip("autotuner end-to-end")
	}
	// submit starts 2 looping reliable word spouts into 2 batch-acking
	// sinks at window 2, with the health manager running policy at 50 ms
	// ticks.
	submit := func(f *fixture, policy string) *Handle {
		words := testWords(10_000)
		b := api.NewTopologyBuilder("tune-" + t.Name())
		b.SetSpout("word", func() api.Spout {
			return &boundedWordSpout{
				words: words, loop: true, reliable: true,
				emitted: &f.emitted, acked: &f.acked, failed: &f.failed,
			}
		}, 2).OutputFields("word")
		b.SetBolt("sink", func() api.Bolt { return &batchAckBolt{} }, 2).
			FieldsGrouping("word", "", "word").
			TickEvery(2 * time.Millisecond)
		spec, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		cfg := testConfig(t)
		cfg.AckingEnabled = true
		cfg.MaxSpoutPending = 2
		cfg.MessageTimeout = 10 * time.Second
		cfg.MetricsExportInterval = 20 * time.Millisecond
		cfg.HealthInterval = 50 * time.Millisecond
		cfg.HealthPolicy = policy
		h, err := Submit(spec, cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = h.Kill() })
		if err := h.WaitRunning(10 * time.Second); err != nil {
			t.Fatal(err)
		}
		return h
	}
	// ackedPerSec measures f's acked rate over 700 ms.
	ackedPerSec := func(f *fixture) float64 {
		n, at := f.acked.Load(), time.Now()
		time.Sleep(700 * time.Millisecond)
		return float64(f.acked.Load()-n) / time.Since(at).Seconds()
	}

	// The baseline: the same topology held at window 2, settled, with a
	// health manager that only observes, so both sides pay for its ticks.
	var base fixture
	h := submit(&base, "observe")
	time.Sleep(500 * time.Millisecond)
	baseRate := ackedPerSec(&base)
	if err := h.Kill(); err != nil {
		t.Fatal(err)
	}

	var tuned fixture
	h = submit(&tuned, "tune-only")
	// Growing 2 → 3 → 5 → 8 → 12 takes four growths that each paid; a
	// growth the measurement misjudged costs a halving and a regrowth.
	waitFor(t, 20*time.Second, "the window to grow to 12", func() bool {
		w, err := h.MaxSpoutPending()
		return err == nil && w >= 12
	})
	tunedRate := ackedPerSec(&tuned)
	w, err := h.MaxSpoutPending()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("acked/sec: initial %.0f → tuned %.0f (window now %d)", baseRate, tunedRate, w)
	for _, a := range h.HealthStatus().Actions {
		t.Logf("  %s %s: %s", a.Resolver, a.Diagnosis.Kind, a.Detail+a.Err)
	}
	if tunedRate < baseRate*2 {
		t.Errorf("autotuner did not improve throughput: %.0f → %.0f", baseRate, tunedRate)
	}
	if w <= 2 {
		t.Errorf("window never grew: %d", w)
	}
}
