package heron

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"heron/api"
	"heron/windows"
)

// numberSpout emits 0..max-1 then idles.
type numberSpout struct {
	out  api.SpoutCollector
	next int64
	max  int64
}

func (s *numberSpout) Open(_ api.TopologyContext, out api.SpoutCollector) error {
	s.out = out
	return nil
}

func (s *numberSpout) NextTuple() bool {
	if s.next >= s.max {
		return false
	}
	s.out.Emit("", nil, s.next)
	s.next++
	return true
}

func (s *numberSpout) Ack(any)      {}
func (s *numberSpout) Fail(any)     {}
func (s *numberSpout) Close() error { return nil }

// TestCountWindowEndToEnd runs tumbling count windows inside the real
// engine: 1000 numbers through windows of 100, summed per window by the
// handler and verified downstream.
func TestCountWindowEndToEnd(t *testing.T) {
	t.Parallel()
	const n, win = 1000, 100
	var windowsSeen atomic.Int64
	var grandTotal atomic.Int64
	var mu sync.Mutex
	var sums []int64

	b := api.NewTopologyBuilder("win-" + t.Name())
	b.SetSpout("nums", func() api.Spout { return &numberSpout{max: n} }, 1).
		OutputFields("n")
	b.SetBolt("window", func() api.Bolt {
		return windows.NewTumblingCountWindow(win, func(w windows.Window, out api.BoltCollector) {
			var sum int64
			for _, tp := range w.Tuples {
				sum += tp.Int(0)
			}
			out.Emit("", w.Tuples, sum)
		})
	}, 1).GlobalGrouping("nums", "").OutputFields("sum")
	b.SetBolt("sink", func() api.Bolt {
		return &funcBolt{fn: func(tp api.Tuple) {
			windowsSeen.Add(1)
			grandTotal.Add(tp.Int(0))
			mu.Lock()
			sums = append(sums, tp.Int(0))
			mu.Unlock()
		}}
	}, 1).GlobalGrouping("window", "")
	spec, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	h, err := Submit(spec, testConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	defer h.Kill()
	if err := h.WaitRunning(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 120*time.Second, "all windows", func() bool {
		return windowsSeen.Load() == n/win
	})
	// Sum over all windows = sum 0..999.
	if want := int64(n * (n - 1) / 2); grandTotal.Load() != want {
		t.Errorf("grand total = %d, want %d", grandTotal.Load(), want)
	}
	// First window is exactly sum 0..99.
	mu.Lock()
	defer mu.Unlock()
	if sums[0] != win*(win-1)/2 {
		t.Errorf("first window sum = %d", sums[0])
	}
}

// TestTimeWindowEndToEnd runs time windows driven by the engine's ticks.
func TestTimeWindowEndToEnd(t *testing.T) {
	t.Parallel()
	var windowsSeen atomic.Int64
	var tuplesSeen atomic.Int64

	b := api.NewTopologyBuilder("timewin-" + t.Name())
	b.SetSpout("nums", func() api.Spout { return &numberSpout{max: 1 << 40} }, 1).
		OutputFields("n")
	b.SetBolt("window", func() api.Bolt {
		return windows.NewTumblingTimeWindow(200*time.Millisecond,
			func(w windows.Window, out api.BoltCollector) {
				out.Emit("", w.Tuples, int64(len(w.Tuples)))
			})
	}, 1).GlobalGrouping("nums", "").
		TickEvery(50 * time.Millisecond).
		OutputFields("count")
	b.SetBolt("sink", func() api.Bolt {
		return &funcBolt{fn: func(tp api.Tuple) {
			windowsSeen.Add(1)
			tuplesSeen.Add(tp.Int(0))
		}}
	}, 1).GlobalGrouping("window", "")
	spec, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	h, err := Submit(spec, testConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	defer h.Kill()
	if err := h.WaitRunning(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 120*time.Second, "several time windows", func() bool {
		return windowsSeen.Load() >= 5 && tuplesSeen.Load() > 0
	})
}

// funcBolt adapts a function to api.Bolt for test sinks.
type funcBolt struct {
	fn  func(api.Tuple)
	out api.BoltCollector
}

func (b *funcBolt) Prepare(_ api.TopologyContext, out api.BoltCollector) error {
	b.out = out
	return nil
}

func (b *funcBolt) Execute(t api.Tuple) error {
	b.fn(t)
	b.out.Ack(t)
	return nil
}

func (b *funcBolt) Cleanup() error { return nil }
