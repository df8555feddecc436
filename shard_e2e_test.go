package heron

import (
	"runtime"
	"testing"
	"time"

	"heron/internal/metrics"
)

// TestRouteLatencyReachesView runs reliable WordCount with acking on the
// default transport and checks that every word is owned by exactly one
// task and that the Stream Managers' route-latency histogram reaches the
// aggregated TopologyView with ordered percentiles.
func TestRouteLatencyReachesView(t *testing.T) {
	var f fixture
	spec := f.buildWordCount(t, 2, 2, 300, true)
	cfg := testConfig(t)
	cfg.AckingEnabled = true
	cfg.MaxSpoutPending = 50
	cfg.MessageTimeout = 10 * time.Second
	cfg.MetricsExportInterval = 25 * time.Millisecond

	h, err := Submit(spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Kill()
	if err := h.WaitRunning(15 * time.Second); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 120*time.Second, "all tuples acked", func() bool {
		return f.acked.Load() >= 2*300
	})
	f.table.mu.Lock()
	for word, tasks := range f.table.counts {
		if len(tasks) != 1 {
			t.Errorf("word %q on %d tasks", word, len(tasks))
		}
	}
	f.table.mu.Unlock()

	// The data path publishes route latency as a histogram; it must
	// surface in the aggregated TopologyView with usable tails.
	waitFor(t, 15*time.Second, "route-latency histogram in view", func() bool {
		return h.Metrics().Histogram(metrics.MStmgrRouteLatency, metrics.StmgrComponent).Count > 0
	})
	hs := h.Metrics().Histogram(metrics.MStmgrRouteLatency, metrics.StmgrComponent)
	p50, p99, p999 := hs.Quantile(0.50), hs.Quantile(0.99), hs.Quantile(0.999)
	if p50 <= 0 || p99 < p50 || p999 < p99 {
		t.Errorf("route-latency percentiles not ordered: p50=%d p99=%d p999=%d", p50, p99, p999)
	}
}

// TestWordCountExactAtEveryShardCount is the one-data-path certificate:
// a bounded WordCount must land every word exactly once — nothing
// dropped before the first plan, nothing duplicated — over inproc and
// over tcp, and on the unoptimized arm the same worker runs.
func TestWordCountExactAtEveryShardCount(t *testing.T) {
	type arm struct {
		name, transport string
		naive           bool
	}
	arms := []arm{
		{name: "naive", transport: "inproc", naive: true},
		{name: "inproc", transport: "inproc"},
		{name: "tcp", transport: "tcp"},
	}
	const spouts, bolts, perSpout = 2, 2, 1000
	want := map[string]int64{}
	for _, w := range testWords(perSpout) {
		want[w] += spouts
	}
	for _, a := range arms {
		t.Run(a.name, func(t *testing.T) {
			var f fixture
			spec := f.buildWordCount(t, spouts, bolts, perSpout, false)
			cfg := testConfig(t)
			cfg.Transport = a.transport
			if a.naive {
				cfg.Codec = "naive"
				cfg.StreamManagerOptimized = false
			}
			h, err := Submit(spec, cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer h.Kill()
			if err := h.WaitRunning(15 * time.Second); err != nil {
				t.Fatal(err)
			}
			const total = spouts * perSpout
			waitFor(t, 60*time.Second, "every word counted", func() bool {
				return f.table.total.Load() >= total
			})
			time.Sleep(50 * time.Millisecond) // a duplicate would trail the last word
			f.table.mu.Lock()
			defer f.table.mu.Unlock()
			if got := f.table.total.Load(); got != total {
				t.Errorf("counted %d tuples, want exactly %d", got, total)
			}
			for word, n := range want {
				tasks := f.table.counts[word]
				if len(tasks) != 1 {
					t.Errorf("word %q on %d tasks", word, len(tasks))
				}
				var got int64
				for _, c := range tasks {
					got += c
				}
				if got != n {
					t.Errorf("word %q counted %d times, want %d", word, got, n)
				}
			}
		})
	}
}

// TestKillLeavesNoGoroutines: Submit → WaitRunning → Kill returns the
// process to the goroutine count it started from — no transport reader,
// outbox sender or Stream Manager worker outlives its topology.
func TestKillLeavesNoGoroutines(t *testing.T) {
	var f fixture
	spec := f.buildWordCount(t, 2, 2, 200, false)
	cfg := testConfig(t)
	cfg.MetricsExportInterval = 10 * time.Millisecond // every container's sink has dialed the TMaster

	before := runtime.NumGoroutine()
	h, err := Submit(spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.WaitRunning(15 * time.Second); err != nil {
		h.Kill()
		t.Fatal(err)
	}
	waitFor(t, 60*time.Second, "every word counted", func() bool {
		return f.table.total.Load() >= 2*200
	})
	h.Kill()
	// Readers notice their closed connection asynchronously; give them a
	// moment, then whatever is left is a leak.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		buf := make([]byte, 1<<16)
		t.Fatalf("%d goroutines before Submit, %d after Kill:\n%s", before, after, buf[:runtime.Stack(buf, true)])
	}
}
