package heron

import (
	"testing"
	"time"
)

// TestWordCountOverTCP runs the full engine with real sockets: every
// instance↔stream-manager and stream-manager↔stream-manager hop crosses
// loopback TCP, proving the transport module is genuinely pluggable.
func TestWordCountOverTCP(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("tcp end-to-end")
	}
	var f fixture
	spec := f.buildWordCount(t, 2, 2, 300, true)
	cfg := testConfig(t)
	cfg.Transport = "tcp"
	cfg.AckingEnabled = true
	cfg.MaxSpoutPending = 50
	cfg.MessageTimeout = 10 * time.Second

	h, err := Submit(spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Kill()
	if err := h.WaitRunning(15 * time.Second); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 120*time.Second, "all tuples acked over tcp", func() bool {
		return f.acked.Load() >= 2*300
	})
	f.table.mu.Lock()
	defer f.table.mu.Unlock()
	for word, tasks := range f.table.counts {
		if len(tasks) != 1 {
			t.Errorf("word %q on %d tasks", word, len(tasks))
		}
	}
}

// TestWordCountWithLocalFSStateManager swaps the coordination store for
// the filesystem implementation: TMaster discovery and plan storage run
// through files and poll-based watches.
func TestWordCountWithLocalFSStateManager(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("localfs end-to-end")
	}
	var f fixture
	spec := f.buildWordCount(t, 2, 2, 500, false)
	cfg := testConfig(t)
	cfg.StateManagerName = "localfs"
	cfg.Extra["localfs.root"] = t.TempDir()

	h, err := Submit(spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Kill()
	if err := h.WaitRunning(20 * time.Second); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 120*time.Second, "all tuples counted via localfs", func() bool {
		return f.table.total.Load() >= 2*500
	})
}

// TestBinPackingSchedulerEndToEnd runs the engine under the bin-packing
// resource manager and checks the cost-optimized plan actually runs.
func TestBinPackingSchedulerEndToEnd(t *testing.T) {
	t.Parallel()
	var f fixture
	spec := f.buildWordCount(t, 2, 3, 500, false)
	cfg := testConfig(t)
	cfg.PackingAlgorithm = "binpacking"

	h, err := Submit(spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Kill()
	if err := h.WaitRunning(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	plan, err := h.PackingPlan()
	if err != nil {
		t.Fatal(err)
	}
	// 5 one-core instances fit one default-capacity container.
	if len(plan.Containers) != 1 {
		t.Errorf("binpacking used %d containers, want 1", len(plan.Containers))
	}
	waitFor(t, 120*time.Second, "tuples counted", func() bool {
		return f.table.total.Load() >= 2*500
	})
}
