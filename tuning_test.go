package heron

import (
	"testing"
	"time"

	"heron/internal/metrics"
	"heron/internal/tuning"
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

// TestAutoTunerDrivesLiveTopology runs the observation-driven controller
// (the paper's §V-B future work) against a real topology: starting from a
// stalling window, it must grow the window and multiply throughput while
// keeping latency near the target.
func TestAutoTunerDrivesLiveTopology(t *testing.T) {
	if testing.Short() {
		t.Skip("autotuner end-to-end")
	}
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
	time.Sleep(500 * time.Millisecond)
	base := f.acked.Load()
	time.Sleep(700 * time.Millisecond)
	baseRate := f.acked.Load() - base

	tuner, err := tuning.New(tuning.NewHandleTarget(h), tuning.Options{
		LatencyTarget: 50 * time.Millisecond,
		Period:        250 * time.Millisecond,
		Initial:       4,
		Step:          16,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := tuner.Start(); err != nil {
		t.Fatal(err)
	}
	defer tuner.Stop()
	time.Sleep(3 * time.Second)

	tuned := f.acked.Load()
	time.Sleep(700 * time.Millisecond)
	tunedRate := f.acked.Load() - tuned
	t.Logf("acked/sec: initial %d → tuned %d (window now %d)", baseRate, tunedRate, tuner.Window())
	if tunedRate < baseRate*2 {
		t.Errorf("autotuner did not improve throughput: %d → %d", baseRate, tunedRate)
	}
	if w := tuner.Window(); w <= 4 {
		t.Errorf("window never grew: %d", w)
	}
}
